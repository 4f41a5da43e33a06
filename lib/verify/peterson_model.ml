(* Phases: 0 noncrit; 99 retired; 1 write flag; 2 write turn; 3 read rival
   flag; 4 read turn; 30 CS; 31 clear flag. *)
type state = { pc : int array; crashed : bool array; flags : bool array; turn : int }

let in_cs s pid = s.pc.(pid) = 30
let live_entering s pid = (not s.crashed.(pid)) && s.pc.(pid) >= 1 && s.pc.(pid) <= 4

let model ?(max_crashes = 0) () : (module System.MODEL with type state = state) =
  (module struct
    type nonrec state = state

    let name = Printf.sprintf "peterson[crashes<=%d]" max_crashes

    let initial =
      [ { pc = [| 0; 0 |]; crashed = [| false; false |]; flags = [| false; false |]; turn = 0 } ]

    let set_arr a i v = (let a = Array.copy a in a.(i) <- v; a)
    let with_pc s pid pc = { s with pc = set_arr s.pc pid pc }
    let crash_count s = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 s.crashed

    let next s =
      let moves = ref [] in
      let add label s' = moves := (label, s') :: !moves in
      for pid = 0 to 1 do
        if not s.crashed.(pid) then begin
          let lbl fmt = Printf.sprintf ("p%d: " ^^ fmt) pid in
          (match s.pc.(pid) with
          | 0 ->
              add (lazy (lbl "enter")) (with_pc s pid 1);
              add (lazy (lbl "retire")) (with_pc s pid 99)
          | 99 -> ()
          | 1 -> add (lazy (lbl "flag := true"))
                   { (with_pc s pid 2) with flags = set_arr s.flags pid true }
          | 2 -> add (lazy (lbl "turn := p")) { (with_pc s pid 3) with turn = pid }
          | 3 ->
              if s.flags.(1 - pid) then add (lazy (lbl "rival present")) (with_pc s pid 4)
              else add (lazy (lbl "rival absent")) (with_pc s pid 30)
          | 4 ->
              if s.turn <> pid then add (lazy (lbl "priority")) (with_pc s pid 30)
              else add (lazy (lbl "spin")) (with_pc s pid 3)
          | 30 -> add (lazy (lbl "exit")) (with_pc s pid 31)
          | 31 -> add (lazy (lbl "flag := false"))
                    { (with_pc s pid 0) with flags = set_arr s.flags pid false }
          | _ -> assert false);
          if s.pc.(pid) <> 0 && s.pc.(pid) <> 99 && crash_count s < max_crashes then
            add (lazy (lbl "crash@%d" s.pc.(pid))) { s with crashed = set_arr s.crashed pid true }
        end
      done;
      !moves

    let encode s =
      Printf.sprintf "%d%c%d%c%c%c%d" s.pc.(0)
        (if s.crashed.(0) then 'X' else ':')
        s.pc.(1)
        (if s.crashed.(1) then 'X' else ':')
        (if s.flags.(0) then '1' else '0')
        (if s.flags.(1) then '1' else '0')
        s.turn

    let pp ppf s =
      Format.fprintf ppf "pc=[%d;%d] flags=[%b;%b] turn=%d" s.pc.(0) s.pc.(1) s.flags.(0)
        s.flags.(1) s.turn

    let invariants =
      [ ("mutual exclusion", fun s -> not (s.pc.(0) = 30 && s.pc.(1) = 30)) ]
  end)
