type variant =
  | Faithful
  | No_feedback
  | No_recheck
  | Skip_init
  | Fewer_slots
  | Abort_no_release
  | Abort_keeps_x

(* Program counters follow Figure 6's statement numbers, with 30 for the
   critical section.  Statement 12 (private [last] update) is folded into the
   successful CAS at 11, and 16 (the exit faa) into the 30 -> 17 move, since
   private actions are free.  An abort leaves 3 by the exit faa and then
   shares 17-21. *)
type state = {
  pc : int array;
  crashed : bool array;
  x : int;
  q : int;  (* encoded pid*(k+2)+loc *)
  pbits : bool array;  (* n*(k+2): the spin locations P *)
  r : int array;  (* n*(k+2): the feedback counters R *)
  last : int array;
  next_loc : int array;  (* private *)
  u : int array;  (* private; encoded *)
}

let in_cs s pid = s.pc.(pid) = 30
let live_entering s pid = (not s.crashed.(pid)) && s.pc.(pid) >= 2 && s.pc.(pid) <= 15
let crash_count s = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 s.crashed

let model ?(variant = Faithful) ~n ~max_crashes () : (module System.MODEL with type state = state)
    =
  let k = n - 1 in
  let slots = match variant with Fewer_slots -> k + 1 | _ -> k + 2 in
  (module struct
    type nonrec state = state

    let name =
      Printf.sprintf "fig6[n=%d,k=%d,crashes<=%d%s]" n k max_crashes
        (match variant with
        | Faithful -> ""
        | No_feedback -> ",no-feedback"
        | No_recheck -> ",no-recheck"
        | Skip_init -> ",skip-init"
        | Fewer_slots -> ",fewer-slots"
        | Abort_no_release -> ",abort-no-release"
        | Abort_keeps_x -> ",abort-keeps-x")

    let initial =
      [ { pc = Array.make n 0;
          crashed = Array.make n false;
          x = k;
          q = 0;
          pbits = Array.make (n * slots) false;
          r = Array.make (n * slots) 0;
          last = Array.make n 0;
          next_loc = Array.make n 0;
          u = Array.make n 0 } ]

    let set_arr a i v = (let a = Array.copy a in a.(i) <- v; a)
    let with_pc s pid pc = { s with pc = set_arr s.pc pid pc }

    let next s =
      let moves = ref [] in
      let add label s' = moves := (label, s') :: !moves in
      for pid = 0 to n - 1 do
        if not s.crashed.(pid) then begin
          let lbl fmt = Printf.sprintf ("p%d: " ^^ fmt) pid in
          (match s.pc.(pid) with
          | 0 ->
              add (lbl "enter") (with_pc s pid 2);
              add (lbl "retire") (with_pc s pid 99)
          | 99 -> ()
          | 2 ->
              let old = s.x in
              add (lbl "faa X (old=%d)" old)
                { (with_pc s pid (if old = 0 then 3 else 30)) with x = s.x - 1 }
          | 3 ->
              let loc = (s.last.(pid) + 1) mod slots in
              add (lbl "next.loc := %d" loc)
                { (with_pc s pid 4) with next_loc = set_arr s.next_loc pid loc };
              (* The no-wait entry: the faa returned 0, so run the exit. *)
              add (lbl "abort, exit faa X")
                (match variant with
                | Abort_keeps_x -> with_pc s pid 17
                | Abort_no_release -> { (with_pc s pid 0) with x = s.x + 1 }
                | Faithful | No_feedback | No_recheck | Skip_init | Fewer_slots ->
                    { (with_pc s pid 17) with x = s.x + 1 })
          | 4 ->
              let loc = s.next_loc.(pid) in
              let busy = s.r.((pid * slots) + loc) <> 0 in
              add (lbl "R[p][%d] %s" loc (if busy then "busy" else "free"))
                (with_pc s pid (if busy then 5 else 6))
          | 5 ->
              let loc = (s.next_loc.(pid) + 1) mod slots in
              add (lbl "advance to %d" loc)
                { (with_pc s pid 4) with next_loc = set_arr s.next_loc pid loc }
          | 6 ->
              let cell = (pid * slots) + s.next_loc.(pid) in
              let s' =
                match variant with
                | Skip_init -> with_pc s pid 7
                | _ -> { (with_pc s pid 7) with pbits = set_arr s.pbits cell false }
              in
              add (lbl "P[p][%d] := false" s.next_loc.(pid)) s'
          | 7 ->
              let tgt = match variant with No_feedback -> 10 | _ -> 8 in
              add (lbl "u := Q (=%d)" s.q) { (with_pc s pid tgt) with u = set_arr s.u pid s.q }
          | 8 ->
              let c = s.u.(pid) in
              add (lbl "R[%d]++" c) { (with_pc s pid 9) with r = set_arr s.r c (s.r.(c) + 1) }
          | 9 ->
              let same = s.q = s.u.(pid) in
              let tgt = match variant with No_recheck -> 10 | _ -> if same then 10 else 15 in
              add (lbl "Q %s u" (if same then "=" else "<>")) (with_pc s pid tgt)
          | 10 ->
              let c = s.u.(pid) in
              add (lbl "P[%d] := true" c) { (with_pc s pid 11) with pbits = set_arr s.pbits c true }
          | 11 ->
              let mine = (pid * slots) + s.next_loc.(pid) in
              if s.q = s.u.(pid) then
                add (lbl "CAS Q ok (-> %d)" mine)
                  { (with_pc s pid 13) with q = mine; last = set_arr s.last pid s.next_loc.(pid) }
              else add (lbl "CAS Q failed") (with_pc s pid 15)
          | 13 ->
              add (lbl "read X=%d" s.x) (with_pc s pid (if s.x < 0 then 14 else 15))
          | 14 ->
              let cell = (pid * slots) + s.next_loc.(pid) in
              if s.pbits.(cell) then add (lbl "released") (with_pc s pid 15)
          | 15 ->
              let c = s.u.(pid) in
              let s' =
                match variant with
                | No_feedback -> with_pc s pid 30
                | _ -> { (with_pc s pid 30) with r = set_arr s.r c (s.r.(c) - 1) }
              in
              add (lbl "R[%d]--; CS" c) s'
          | 30 -> add (lbl "exit faa X") { (with_pc s pid 17) with x = s.x + 1 }
          | 17 ->
              let tgt = match variant with No_feedback -> 20 | _ -> 18 in
              add (lbl "u := Q (=%d)" s.q) { (with_pc s pid tgt) with u = set_arr s.u pid s.q }
          | 18 ->
              let c = s.u.(pid) in
              add (lbl "R[%d]++" c) { (with_pc s pid 19) with r = set_arr s.r c (s.r.(c) + 1) }
          | 19 ->
              let same = s.q = s.u.(pid) in
              let tgt = match variant with No_recheck -> 20 | _ -> if same then 20 else 21 in
              add (lbl "Q %s u" (if same then "=" else "<>")) (with_pc s pid tgt)
          | 20 ->
              let c = s.u.(pid) in
              add (lbl "P[%d] := true" c) { (with_pc s pid 21) with pbits = set_arr s.pbits c true }
          | 21 ->
              let c = s.u.(pid) in
              let s' =
                match variant with
                | No_feedback -> with_pc s pid 0
                | _ -> { (with_pc s pid 0) with r = set_arr s.r c (s.r.(c) - 1) }
              in
              add (lbl "R[%d]--; done" c) s'
          | _ -> assert false);
          if s.pc.(pid) <> 0 && s.pc.(pid) <> 99 && crash_count s < max_crashes then
            add (lbl "crash@%d" s.pc.(pid)) { s with crashed = set_arr s.crashed pid true }
        end
      done;
      !moves

    let encode s =
      let b = Buffer.create 64 in
      let ints a = Array.iter (fun v -> Buffer.add_string b (string_of_int v); Buffer.add_char b ',') a in
      ints s.pc;
      Array.iter (fun c -> Buffer.add_char b (if c then 'X' else '.')) s.crashed;
      Buffer.add_string b (string_of_int s.x);
      Buffer.add_char b ';';
      Buffer.add_string b (string_of_int s.q);
      Buffer.add_char b ';';
      Array.iter (fun v -> Buffer.add_char b (if v then '1' else '0')) s.pbits;
      ints s.r;
      ints s.last;
      ints s.next_loc;
      ints s.u;
      Buffer.contents b

    let pp ppf s =
      Format.fprintf ppf "pc=[%s] X=%d Q=%d P=[%s] R=[%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int s.pc)))
        s.x s.q
        (String.concat "" (Array.to_list (Array.map (fun v -> if v then "1" else "0") s.pbits)))
        (String.concat ";" (Array.to_list (Array.map string_of_int s.r)))

    let count_in_protocol s =
      Array.fold_left (fun acc pc -> if (pc >= 3 && pc <= 15) || pc = 30 then acc + 1 else acc) 0 s.pc

    let invariants =
      [ ("k-exclusion", fun s -> Array.fold_left (fun a pc -> if pc = 30 then a + 1 else a) 0 s.pc <= k);
        ("X = k - |in protocol|", fun s -> s.x = k - count_in_protocol s);
        ("X within [-1, k]", fun s -> s.x >= -1 && s.x <= k);
        ( "R counters within [0, k+1]",
          fun s -> Array.for_all (fun v -> v >= 0 && v <= k + 1) s.r ) ]

    (* The paper's (U2) analogue: once a waiting process's spin location has
       been set, it stays set until the process proceeds — nobody un-releases
       a waiter. *)
    let step_invariants =
      [ ( "U2: released waiter stays released",
          fun s s' ->
            let ok = ref true in
            for pid = 0 to n - 1 do
              let cell = (pid * slots) + s.next_loc.(pid) in
              if (s.pc.(pid) = 13 || s.pc.(pid) = 14) && s.pbits.(cell) then
                if
                  not
                    (((s'.pc.(pid) = 13 || s'.pc.(pid) = 14) && s'.pbits.(cell))
                    || s'.pc.(pid) = 15 || s'.pc.(pid) = 30)
                then ok := false
            done;
            !ok ) ]
  end)
