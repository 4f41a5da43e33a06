(* Phases: 0 noncritical; 99 retired; 98 walked off the grid (a stop-
   guarantee violation, flagged by invariant); 1 write X; 2 read Y;
   3 write Y; 4 re-read X; 30 holding; 31 resetting Y on release. *)
type state = {
  pc : int array;
  crashed : bool array;
  r : int array;  (* private grid position *)
  d : int array;
  xs : int array;  (* per-splitter X: pid+1, 0 = none *)
  ys : bool array;  (* per-splitter Y *)
}

let holding s pid = s.pc.(pid) = 30
let crash_count s = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 s.crashed

let model ?(reset_on_release = true) ~procs ~k ~max_crashes () :
    (module System.MODEL with type state = state) =
  let cells = k * (k + 1) / 2 in
  let index ~r ~d = (d * k) - (d * (d - 1) / 2) + r in
  (module struct
    type nonrec state = state

    let name =
      Printf.sprintf "ll-splitter[procs=%d,k=%d,crashes<=%d,%s]" procs k max_crashes
        (if reset_on_release then "long-lived" else "one-shot")

    let initial =
      [ { pc = Array.make procs 0;
          crashed = Array.make procs false;
          r = Array.make procs 0;
          d = Array.make procs 0;
          xs = Array.make cells 0;
          ys = Array.make cells false } ]

    let set_arr a i v = (let a = Array.copy a in a.(i) <- v; a)
    let set_barr a i v = (let a = Array.copy a in a.(i) <- v; a)
    let with_pc s pid pc = { s with pc = set_arr s.pc pid pc }

    let next s =
      let moves = ref [] in
      let add label s' = moves := (label, s') :: !moves in
      for pid = 0 to procs - 1 do
        if not s.crashed.(pid) then begin
          let lbl fmt = Printf.sprintf ("p%d: " ^^ fmt) pid in
          let pos = index ~r:(s.r.(pid)) ~d:(s.d.(pid)) in
          let last_diagonal = s.r.(pid) + s.d.(pid) >= k - 1 in
          (match s.pc.(pid) with
          | 0 ->
              add (lazy (lbl "seek"))
                { (with_pc s pid 1) with r = set_arr s.r pid 0; d = set_arr s.d pid 0 };
              add (lazy (lbl "retire")) (with_pc s pid 99)
          | 99 | 98 -> ()
          | 1 -> add (lazy (lbl "X[%d] := p" pos))
                   { (with_pc s pid 2) with xs = set_arr s.xs pos (pid + 1) }
          | 2 ->
              if s.ys.(pos) then
                if last_diagonal then add (lazy (lbl "RIGHT off grid!")) (with_pc s pid 98)
                else
                  add (lazy (lbl "right"))
                    { (with_pc s pid 1) with r = set_arr s.r pid (s.r.(pid) + 1) }
              else add (lazy (lbl "Y clear")) (with_pc s pid 3)
          | 3 -> add (lazy (lbl "Y[%d] := true" pos))
                   { (with_pc s pid 4) with ys = set_barr s.ys pos true }
          | 4 ->
              if s.xs.(pos) = pid + 1 then add (lazy (lbl "stop at %d" pos)) (with_pc s pid 30)
              else if last_diagonal then add (lazy (lbl "DOWN off grid!")) (with_pc s pid 98)
              else add (lazy (lbl "down"))
                     { (with_pc s pid 1) with d = set_arr s.d pid (s.d.(pid) + 1) }
          | 30 ->
              if reset_on_release then add (lazy (lbl "release")) (with_pc s pid 31)
              else add (lazy (lbl "hold forever (one-shot)")) (with_pc s pid 99)
          | 31 ->
              add (lazy (lbl "reset Y[%d]" pos))
                { (with_pc s pid 0) with ys = set_barr s.ys pos false }
          | _ -> assert false);
          if s.pc.(pid) <> 0 && s.pc.(pid) <> 99 && s.pc.(pid) <> 98 && crash_count s < max_crashes
          then add (lazy (lbl "crash@%d" s.pc.(pid)))
                 { s with crashed = set_arr s.crashed pid true }
        end
      done;
      !moves

    let encode s =
      let b = Buffer.create 32 in
      Array.iteri
        (fun i pc ->
          Buffer.add_string b (string_of_int pc);
          Buffer.add_char b (if s.crashed.(i) then 'X' else ':');
          Buffer.add_string b (string_of_int s.r.(i));
          Buffer.add_char b ',';
          Buffer.add_string b (string_of_int s.d.(i));
          Buffer.add_char b ';')
        s.pc;
      Array.iter (fun v -> Buffer.add_string b (string_of_int v); Buffer.add_char b ',') s.xs;
      Array.iter (fun v -> Buffer.add_char b (if v then '1' else '0')) s.ys;
      Buffer.contents b

    let pp ppf s =
      Format.fprintf ppf "pc=[%s] pos=[%s] Y=[%s]"
        (String.concat ";" (Array.to_list (Array.map string_of_int s.pc)))
        (String.concat ";"
           (List.init procs (fun i -> Printf.sprintf "%d,%d" s.r.(i) s.d.(i))))
        (String.concat "" (Array.to_list (Array.map (fun v -> if v then "1" else "0") s.ys)))

    let invariants =
      [ ( "holders occupy distinct splitters",
          fun s ->
            let taken = Array.make cells false in
            let ok = ref true in
            Array.iteri
              (fun pid pc ->
                if pc = 30 || pc = 31 then begin
                  let pos = index ~r:(s.r.(pid)) ~d:(s.d.(pid)) in
                  if taken.(pos) then ok := false else taken.(pos) <- true
                end)
              s.pc;
            !ok );
        ( "nobody walks off the grid",
          fun s -> Array.for_all (fun pc -> pc <> 98) s.pc ) ]
  end)
