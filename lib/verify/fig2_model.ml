type variant = Faithful | No_release_write | Broken_gate | Abort_no_release | Abort_keeps_x

(* Program counters follow Figure 2's statement numbers:
   0 noncritical; 2 faa gate; 3 write Q; 4 re-read X; 5 spin on Q;
   6 critical section (about to execute the exit faa); 7 write Q (release).
   An abort leaves 3 by the exit faa and then shares 7. *)
type state = { pc : int array; crashed : bool array; x : int; q : int }

let in_cs s pid = s.pc.(pid) = 6
let live_entering s pid = (not s.crashed.(pid)) && s.pc.(pid) >= 2 && s.pc.(pid) <= 5
let crash_count s = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 s.crashed

let model ?(variant = Faithful) ~n ~max_crashes () : (module System.MODEL with type state = state)
    =
  let k = n - 1 in
  (module struct
    type nonrec state = state

    let name = Printf.sprintf "fig2[n=%d,k=%d,crashes<=%d]" n k max_crashes

    let initial =
      [ { pc = Array.make n 0; crashed = Array.make n false; x = k; q = 0 } ]

    let with_pc s pid pc = { s with pc = (let a = Array.copy s.pc in a.(pid) <- pc; a) }

    let next s =
      let moves = ref [] in
      let add label s' = moves := (label, s') :: !moves in
      for pid = 0 to n - 1 do
        if not s.crashed.(pid) then begin
          (match s.pc.(pid) with
          | 0 ->
              add (Printf.sprintf "p%d: enter" pid) (with_pc s pid 2);
              (* A process may also stay in its noncritical section forever:
                 progress must not depend on future arrivals. *)
              add (Printf.sprintf "p%d: retire" pid) (with_pc s pid 99)
          | 99 -> ()
          | 2 ->
              (* faa(X, -1): old value decides the branch. *)
              let old = s.x in
              let s' = { (with_pc s pid (if old = 0 then 3 else 6)) with x = s.x - 1 } in
              let s' =
                match variant with
                | Broken_gate -> { s' with pc = (let a = Array.copy s'.pc in a.(pid) <- 6; a) }
                | Faithful | No_release_write | Abort_no_release | Abort_keeps_x -> s'
              in
              add (Printf.sprintf "p%d: faa X (old=%d)" pid old) s'
          | 3 ->
              add (Printf.sprintf "p%d: Q := %d" pid pid) { (with_pc s pid 4) with q = pid };
              (* The no-wait entry: the faa returned 0, so run the exit. *)
              add (Printf.sprintf "p%d: abort, exit faa X" pid)
                (match variant with
                | Abort_keeps_x -> with_pc s pid 7
                | Abort_no_release -> { (with_pc s pid 0) with x = s.x + 1 }
                | Faithful | No_release_write | Broken_gate -> { (with_pc s pid 7) with x = s.x + 1 })
          | 4 ->
              add
                (Printf.sprintf "p%d: read X=%d" pid s.x)
                (with_pc s pid (if s.x < 0 then 5 else 6))
          | 5 ->
              (* Spin on Q; only the escaping read is a distinct state. *)
              if s.q <> pid then add (Printf.sprintf "p%d: released (Q=%d)" pid s.q) (with_pc s pid 6)
          | 6 -> add (Printf.sprintf "p%d: exit faa X" pid) { (with_pc s pid 7) with x = s.x + 1 }
          | 7 ->
              let s' = with_pc s pid 0 in
              let s' =
                match variant with
                | No_release_write -> s'
                | Faithful | Broken_gate | Abort_no_release | Abort_keeps_x -> { s' with q = pid }
              in
              add (Printf.sprintf "p%d: release Q" pid) s'
          | _ -> assert false);
          (* Crash transition: allowed anywhere outside the noncritical
             section, up to the budget. *)
          if s.pc.(pid) <> 0 && s.pc.(pid) <> 99 && crash_count s < max_crashes then
            add
              (Printf.sprintf "p%d: crash@%d" pid s.pc.(pid))
              { s with crashed = (let a = Array.copy s.crashed in a.(pid) <- true; a) }
        end
      done;
      !moves

    let encode s =
      let b = Buffer.create 32 in
      Array.iter (fun pc -> Buffer.add_char b (Char.chr (48 + pc))) s.pc;
      Array.iter (fun c -> Buffer.add_char b (if c then 'X' else '.')) s.crashed;
      Buffer.add_string b (string_of_int s.x);
      Buffer.add_char b ',';
      Buffer.add_string b (string_of_int s.q);
      Buffer.contents b

    let pp ppf s =
      Format.fprintf ppf "pc=[%s] crashed=[%s] X=%d Q=%d"
        (String.concat ";" (Array.to_list (Array.map string_of_int s.pc)))
        (String.concat ";" (Array.to_list (Array.map (fun c -> if c then "x" else "-") s.crashed)))
        s.x s.q

    let count_pc_in s lo hi =
      Array.fold_left (fun acc pc -> if pc >= lo && pc <= hi then acc + 1 else acc) 0 s.pc

    let invariants =
      [ ("I4: k-exclusion", fun s -> count_pc_in s 6 6 <= k);
        ("I2: X = k - |{p@3..6}|", fun s -> s.x = k - count_pc_in s 3 6);
        ( "I3: X<0 => exists p@3 or (p@{4,5} and Q=p)",
          fun s ->
            s.x >= 0
            || Array.exists Fun.id
                 (Array.mapi
                    (fun pid pc -> pc = 3 || ((pc = 4 || pc = 5) && s.q = pid))
                    s.pc) );
        ("X within [-1, k]", fun s -> s.x >= -1 && s.x <= k) ]

    let step_invariants =
      [ ( "U1: p@5 /\\ Q<>p unless p@6",
          fun s s' ->
            let ok = ref true in
            for pid = 0 to n - 1 do
              if s.pc.(pid) = 5 && s.q <> pid then
                if not ((s'.pc.(pid) = 5 && s'.q <> pid) || s'.pc.(pid) = 6) then ok := false
            done;
            !ok ) ]
  end)
