type variant = Faithful | Leaky_gate | No_slow_path | Abort_no_release | Abort_keeps_x

(* Phases: 0 noncrit; 99 retired; 1 gate; 2 slow-path wait (abstract);
   10..13 = Figure 2 statements 2..5 of the current layer; 30 CS;
   20,21 = Figure 2 statements 6,7 of the current layer; 3 slow release;
   4 gate release.  The final (2k,k) block is the Theorem 1 stack of k
   Figure 2 layers; layer l (entered in order 0..k-1) has gate capacity
   2k-1-l, the innermost admitting exactly k.  An abort leaves 11 by the
   layer's exit faa and then shares 21, 20 and the gate release 4. *)
type state = {
  pc : int array;
  layer : int array;
  slow_taken : bool array;
  crashed : bool array;
  gate : int;
  slow : int;
  xs : int array;  (* per-layer X *)
  qs : int array;  (* per-layer Q; holds pid+1, 0 = none *)
}

let in_cs s pid = s.pc.(pid) = 30

let live_entering s pid =
  (not s.crashed.(pid)) && (s.pc.(pid) = 1 || s.pc.(pid) = 2 || (s.pc.(pid) >= 10 && s.pc.(pid) <= 13))

let crash_count s = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 s.crashed

let model ?(variant = Faithful) ~n ~k ~max_crashes () :
    (module System.MODEL with type state = state) =
  (module struct
    type nonrec state = state

    let name =
      Printf.sprintf "fig4[n=%d,k=%d,crashes<=%d%s]" n k max_crashes
        (match variant with
        | Faithful -> ""
        | Leaky_gate -> ",leaky-gate"
        | No_slow_path -> ",no-slow-path"
        | Abort_no_release -> ",abort-no-release"
        | Abort_keeps_x -> ",abort-keeps-x")

    let cap l = (2 * k) - 1 - l

    let initial =
      [ { pc = Array.make n 0;
          layer = Array.make n 0;
          slow_taken = Array.make n false;
          crashed = Array.make n false;
          gate = k;
          slow = 0;
          xs = Array.init k cap;
          qs = Array.make k 0 } ]

    let set_arr a i v = (let a = Array.copy a in a.(i) <- v; a)
    let with_pc s pid pc = { s with pc = set_arr s.pc pid pc }
    let with_pc_layer s pid pc layer =
      { s with pc = set_arr s.pc pid pc; layer = set_arr s.layer pid layer }

    (* After finishing entry of layer l, move to the next layer or the CS. *)
    let next_entry s pid l = if l = k - 1 then with_pc s pid 30 else with_pc_layer s pid 10 (l + 1)

    let next s =
      let moves = ref [] in
      let add label s' = moves := (label, s') :: !moves in
      for pid = 0 to n - 1 do
        if not s.crashed.(pid) then begin
          let lbl fmt = Printf.sprintf ("p%d: " ^^ fmt) pid in
          let l = s.layer.(pid) in
          (match s.pc.(pid) with
          | 0 ->
              add (lazy (lbl "enter"))
                { (with_pc_layer s pid 1 0) with slow_taken = set_arr s.slow_taken pid false };
              add (lazy (lbl "retire")) (with_pc s pid 99)
          | 99 -> ()
          | 1 -> (
              match variant with
              | Faithful | No_slow_path | Abort_no_release | Abort_keeps_x ->
                  (* bounded faa: no-op when the gate is empty *)
                  if s.gate = 0 then begin
                    if variant = No_slow_path then
                      add (lazy (lbl "gate empty; skip slow (MUTANT)")) (with_pc_layer s pid 10 0)
                    else
                      add (lazy (lbl "gate empty -> slow path"))
                        { (with_pc s pid 2) with slow_taken = set_arr s.slow_taken pid true };
                    add (lazy (lbl "gate empty -> refused")) (with_pc s pid 0)
                  end
                  else add (lazy (lbl "gate slot (%d left)" (s.gate - 1)))
                      { (with_pc_layer s pid 10 0) with gate = s.gate - 1 }
              | Leaky_gate ->
                  (* plain faa: only an exact zero routes to the slow path *)
                  if s.gate = 0 then
                    add (lazy (lbl "gate=0 -> slow path"))
                      { (with_pc s pid 2) with gate = s.gate - 1;
                        slow_taken = set_arr s.slow_taken pid true }
                  else
                    add (lazy (lbl "gate=%d -> fast (leaky)" s.gate))
                      { (with_pc_layer s pid 10 0) with gate = s.gate - 1 })
          | 2 ->
              (* Abstract correct (N-k,k)-exclusion: admits while below k. *)
              if s.slow < k then
                add (lazy (lbl "slow path admits"))
                  { (with_pc_layer s pid 10 0) with slow = s.slow + 1 }
          | 10 ->
              let old = s.xs.(l) in
              let s' = { s with xs = set_arr s.xs l (old - 1) } in
              if old = 0 then add (lazy (lbl "layer %d: faa X (wait)" l)) (with_pc s' pid 11)
              else add (lazy (lbl "layer %d: faa X (through)" l)) (next_entry s' pid l)
          | 11 ->
              add (lazy (lbl "layer %d: Q := p" l))
                { (with_pc s pid 12) with qs = set_arr s.qs l (pid + 1) };
              (* The no-wait entry (fast-path processes only: it never takes
                 the slow path): the faa returned 0, so run the exit. *)
              if not s.slow_taken.(pid) then begin
                let restored = { s with xs = set_arr s.xs l (s.xs.(l) + 1) } in
                add (lazy (lbl "layer %d: abort, exit faa X" l))
                  (match variant with
                  | Abort_keeps_x -> with_pc s pid 21
                  | Abort_no_release ->
                      if l > 0 then with_pc_layer restored pid 20 (l - 1) else with_pc restored pid 4
                  | Faithful | Leaky_gate | No_slow_path -> with_pc restored pid 21)
              end
          | 12 ->
              if s.xs.(l) < 0 then add (lazy (lbl "layer %d: X<0, spin" l)) (with_pc s pid 13)
              else add (lazy (lbl "layer %d: X>=0, through" l)) (next_entry s pid l)
          | 13 -> if s.qs.(l) <> pid + 1 then add (lazy (lbl "layer %d: released" l))
                                                (next_entry s pid l)
          | 30 -> add (lazy (lbl "exit: begin")) (with_pc_layer s pid 20 (k - 1))
          | 20 ->
              add (lazy (lbl "layer %d: exit faa X" l))
                { (with_pc s pid 21) with xs = set_arr s.xs l (s.xs.(l) + 1) }
          | 21 ->
              let s' = { s with qs = set_arr s.qs l (pid + 1) } in
              if l > 0 then add (lazy (lbl "layer %d: release Q" l))
                              (with_pc_layer s' pid 20 (l - 1))
              else if s.slow_taken.(pid) then add (lazy (lbl "release Q; slow exit"))
                                                (with_pc s' pid 3)
              else add (lazy (lbl "release Q; gate exit")) (with_pc s' pid 4)
          | 3 -> add (lazy (lbl "slow release")) { (with_pc s pid 0) with slow = s.slow - 1 }
          | 4 ->
              let gate =
                match variant with
                | Faithful | No_slow_path | Abort_no_release | Abort_keeps_x ->
                    min (s.gate + 1) k  (* bounded faa *)
                | Leaky_gate -> s.gate + 1
              in
              add (lazy (lbl "gate release")) { (with_pc s pid 0) with gate }
          | _ -> assert false);
          if s.pc.(pid) <> 0 && s.pc.(pid) <> 99 && crash_count s < max_crashes then
            add (lazy (lbl "crash@%d" s.pc.(pid))) { s with crashed = set_arr s.crashed pid true }
        end
      done;
      !moves

    let encode s =
      let b = Buffer.create 48 in
      let ints a = Array.iter (fun v -> Buffer.add_string b (string_of_int v); Buffer.add_char b ',') a in
      ints s.pc;
      ints s.layer;
      Array.iter (fun v -> Buffer.add_char b (if v then '1' else '0')) s.slow_taken;
      Array.iter (fun v -> Buffer.add_char b (if v then 'X' else '.')) s.crashed;
      Buffer.add_string b (string_of_int s.gate);
      Buffer.add_char b ';';
      Buffer.add_string b (string_of_int s.slow);
      Buffer.add_char b ';';
      ints s.xs;
      ints s.qs;
      Buffer.contents b

    let pp ppf s =
      Format.fprintf ppf "pc=[%s] gate=%d slow=%d xs=[%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int s.pc)))
        s.gate s.slow
        (String.concat ";" (Array.to_list (Array.map string_of_int s.xs)))

    let in_final s =
      Array.fold_left
        (fun acc pc -> if (pc >= 10 && pc <= 13) || pc = 30 || pc = 20 || pc = 21 then acc + 1 else acc)
        0 s.pc

    (* Does the process at [pid] hold layer [l]'s X (its entry faa done, its
       exit faa not yet)?  A layer below the current one was passed. *)
    let holds s pid l =
      let at = s.layer.(pid) in
      match s.pc.(pid) with
      | 10 | 21 -> l < at
      | 11 | 12 | 13 | 20 -> l <= at
      | 30 -> true
      | _ -> false

    let layer_count s =
      let ok = ref true in
      for l = 0 to k - 1 do
        let holders = ref 0 in
        for pid = 0 to n - 1 do
          if holds s pid l then incr holders
        done;
        if s.xs.(l) <> cap l - !holders then ok := false
      done;
      !ok

    let invariants =
      [ ("k-exclusion", fun s -> Array.fold_left (fun a pc -> if pc = 30 then a + 1 else a) 0 s.pc <= k);
        ("final block admission <= 2k", fun s -> in_final s <= 2 * k);
        ("slow occupancy within [0,k]", fun s -> s.slow >= 0 && s.slow <= k) ]
      @ (match variant with
        | Faithful | No_slow_path | Abort_no_release | Abort_keeps_x ->
            [ ("gate within [0,k]", fun s -> s.gate >= 0 && s.gate <= k) ]
        | Leaky_gate -> [])
      @ [ ("layer X = cap - |holders|", layer_count) ]
  end)
