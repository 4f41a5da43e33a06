open Import
open Op

(* Tournament tree: at level l, process p plays side ((p lsr l) land 1) of
   match (p lsr (l+1)).  Each match is a Peterson two-process lock laid out
   as three cells: flag0 | flag1 | turn. *)
let levels ~n = Spec.ceil_log2 (max 1 n)

let create mem ~n =
  let nlevels = levels ~n in
  let node_base =
    Array.init nlevels (fun l ->
        let matches = max 1 ((n + (1 lsl (l + 1)) - 1) / (1 lsl (l + 1))) in
        Memory.alloc mem ~init:0 (3 * matches))
  in
  let cells ~level ~game = (node_base.(level) + (3 * game), node_base.(level) + (3 * game) + 1, node_base.(level) + (3 * game) + 2) in
  let acquire_match ~pid ~level =
    let side = (pid lsr level) land 1 in
    let game = pid lsr (level + 1) in
    let flag0, flag1, turn = cells ~level ~game in
    let mine = if side = 0 then flag0 else flag1 in
    let theirs = if side = 0 then flag1 else flag0 in
    let* () = write mine 1 in
    let* () = write turn side in
    (* Spin until the rival is absent or has priority. *)
    let rec wait () =
      let* f = read theirs in
      if f = 0 then return ()
      else
        let* t = read turn in
        if t <> side then return () else wait ()
    in
    wait ()
  in
  let release_match ~pid ~level =
    let side = (pid lsr level) land 1 in
    let game = pid lsr (level + 1) in
    let flag0, flag1, _ = cells ~level ~game in
    write (if side = 0 then flag0 else flag1) 0
  in
  let entry ~pid =
    let rec climb level =
      if level >= nlevels then return ()
      else
        let* () = acquire_match ~pid ~level in
        climb (level + 1)
    in
    climb 0
  in
  let exit ~pid =
    let rec descend level =
      if level < 0 then return ()
      else
        let* () = release_match ~pid ~level in
        descend (level - 1)
    in
    descend (nlevels - 1)
  in
  { Protocol.name = Printf.sprintf "peterson-tree[n=%d]" n; entry; exit;
    try_entry = (fun ~pid:_ -> return false) }
