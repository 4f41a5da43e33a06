type variant = Faithful | No_cas

(* Phases follow Figure 5's statement numbers (3 covers the private location
   choice plus statement 4's P initialisation; 30 is the critical section).
   Location ids: pid * rounds + index, with n * rounds as the initial dummy
   the paper writes as (0,0). *)
type state = {
  pc : int array;
  crashed : bool array;
  iter : int array;
  x : int;
  q : int;
  pbits : bool array;  (* n*rounds + 1 cells *)
  alloc : int array;  (* next fresh location index per process *)
  u : int array;  (* private *)
  next : int array;  (* private: location currently owned *)
}

let in_cs s pid = s.pc.(pid) = 30
let live_entering s pid = (not s.crashed.(pid)) && s.pc.(pid) >= 2 && s.pc.(pid) <= 9
let crash_count s = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 s.crashed

let model ?(variant = Faithful) ~n ~rounds ~max_crashes () :
    (module System.MODEL with type state = state) =
  let k = n - 1 in
  let dummy = n * rounds in
  (module struct
    type nonrec state = state

    let name =
      Printf.sprintf "fig5[n=%d,k=%d,rounds=%d,crashes<=%d%s]" n k rounds max_crashes
        (match variant with Faithful -> "" | No_cas -> ",no-cas")

    let initial =
      [ { pc = Array.make n 0;
          crashed = Array.make n false;
          iter = Array.make n 0;
          x = k;
          q = dummy;
          pbits = Array.make ((n * rounds) + 1) false;
          alloc = Array.make n 0;
          u = Array.make n dummy;
          next = Array.make n dummy } ]

    let set_arr a i v = (let a = Array.copy a in a.(i) <- v; a)
    let with_pc s pid pc = { s with pc = set_arr s.pc pid pc }

    let next_tr s =
      let moves = ref [] in
      let add label s' = moves := (label, s') :: !moves in
      for pid = 0 to n - 1 do
        if not s.crashed.(pid) then begin
          let lbl fmt = Printf.sprintf ("p%d: " ^^ fmt) pid in
          (match s.pc.(pid) with
          | 0 ->
              if s.iter.(pid) < rounds then add (lazy (lbl "enter")) (with_pc s pid 2);
              add (lazy (lbl "retire")) (with_pc s pid 99)
          | 99 -> ()
          | 2 ->
              let old = s.x in
              add (lazy (lbl "faa X (old=%d)" old))
                { (with_pc s pid (if old = 0 then 3 else 30)) with x = s.x - 1 }
          | 3 ->
              (* fresh spin location, initialised false *)
              let loc = (pid * rounds) + s.alloc.(pid) in
              add (lazy (lbl "new loc %d; P := false" loc))
                { (with_pc s pid 5) with
                  alloc = set_arr s.alloc pid (s.alloc.(pid) + 1);
                  pbits = set_arr s.pbits loc false;
                  next = set_arr s.next pid loc }
          | 5 -> add (lazy (lbl "u := Q (=%d)" s.q))
                   { (with_pc s pid 6) with u = set_arr s.u pid s.q }
          | 6 ->
              let c = s.u.(pid) in
              add (lazy (lbl "P[%d] := true" c))
                { (with_pc s pid 7) with pbits = set_arr s.pbits c true }
          | 7 -> (
              match variant with
              | Faithful ->
                  if s.q = s.u.(pid) then
                    add (lazy (lbl "CAS Q ok")) { (with_pc s pid 8) with q = s.next.(pid) }
                  else add (lazy (lbl "CAS Q failed; proceed")) (with_pc s pid 30)
              | No_cas -> add (lazy (lbl "Q := next (blind)"))
                            { (with_pc s pid 8) with q = s.next.(pid) })
          | 8 -> add (lazy (lbl "read X=%d" s.x)) (with_pc s pid (if s.x < 0 then 9 else 30))
          | 9 -> if s.pbits.(s.next.(pid)) then add (lazy (lbl "released")) (with_pc s pid 30)
          | 30 -> add (lazy (lbl "exit faa X")) { (with_pc s pid 11) with x = s.x + 1 }
          | 11 -> add (lazy (lbl "u := Q (=%d)" s.q))
                    { (with_pc s pid 12) with u = set_arr s.u pid s.q }
          | 12 ->
              let c = s.u.(pid) in
              add (lazy (lbl "P[%d] := true; done" c))
                { (with_pc s pid 0) with
                  pbits = set_arr s.pbits c true;
                  iter = set_arr s.iter pid (s.iter.(pid) + 1) }
          | _ -> assert false);
          if s.pc.(pid) <> 0 && s.pc.(pid) <> 99 && crash_count s < max_crashes then
            add (lazy (lbl "crash@%d" s.pc.(pid))) { s with crashed = set_arr s.crashed pid true }
        end
      done;
      !moves

    let next = next_tr

    let encode s =
      let b = Buffer.create 48 in
      let ints a = Array.iter (fun v -> Buffer.add_string b (string_of_int v); Buffer.add_char b ',') a in
      ints s.pc;
      Array.iter (fun c -> Buffer.add_char b (if c then 'X' else '.')) s.crashed;
      ints s.iter;
      Buffer.add_string b (string_of_int s.x);
      Buffer.add_char b ';';
      Buffer.add_string b (string_of_int s.q);
      Buffer.add_char b ';';
      Array.iter (fun v -> Buffer.add_char b (if v then '1' else '0')) s.pbits;
      ints s.alloc;
      ints s.u;
      ints s.next;
      Buffer.contents b

    let pp ppf s =
      Format.fprintf ppf "pc=[%s] X=%d Q=%d P=[%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int s.pc)))
        s.x s.q
        (String.concat "" (Array.to_list (Array.map (fun v -> if v then "1" else "0") s.pbits)))

    let count_in_protocol s =
      Array.fold_left (fun acc pc -> if (pc >= 3 && pc <= 9) || pc = 30 then acc + 1 else acc) 0 s.pc

    let invariants =
      [ ("k-exclusion", fun s -> Array.fold_left (fun a pc -> if pc = 30 then a + 1 else a) 0 s.pc <= k);
        ("X = k - |in protocol|", fun s -> s.x = k - count_in_protocol s);
        ("X within [-1, k]", fun s -> s.x >= -1 && s.x <= k);
        ("allocation bounded", fun s -> Array.for_all (fun a -> a <= rounds) s.alloc) ]
  end)
