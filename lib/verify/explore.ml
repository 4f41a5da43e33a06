type 'state violation = { property : string; trace : (string * 'state) list }

type 'state report = {
  states : int;
  transitions : int;
  complete : bool;
  violation : 'state violation option;
}

(* The reachable edge set, as parallel flat int arrays (src.(i) -> dst.(i)).
   Recording them is opt-in: [check] never reads edges, so it runs without
   accumulating an O(transitions) structure; [reachable] asks for them and
   gets cache-friendly arrays instead of a list of boxed pairs. *)
type edges = { src : int array; dst : int array }

let n_edges e = Array.length e.src

(* Internal BFS bookkeeping: state index -> its predecessor's index
   ([-1] for an initial state) and the position, in the predecessor's
   [M.next], of the move that first reached it.  No label is kept:
   [trace_to] forces the labels of the moves on a trace's path, re-running
   [M.next], which gives the same moves in the same order. *)
let bfs (type s) (module M : System.MODEL with type state = s) ~max_states ~record_edges
    ~on_state =
  let index : (string, int) Hashtbl.t = Hashtbl.create 4096 in
  let states : s array ref = ref (Array.make 1024 (List.hd M.initial)) in
  let parents = ref (Array.make 1024 (-1)) in
  let moves = ref (Array.make 1024 0) in
  let n = ref 0 in
  let e_src = ref (Array.make 1024 0) in
  let e_dst = ref (Array.make 1024 0) in
  let n_edges = ref 0 in
  let record_edge i j =
    if record_edges then begin
      if !n_edges >= Array.length !e_src then begin
        let grow a =
          let a' = Array.make (2 * Array.length a) 0 in
          Array.blit a 0 a' 0 (Array.length a);
          a'
        in
        e_src := grow !e_src;
        e_dst := grow !e_dst
      end;
      !e_src.(!n_edges) <- i;
      !e_dst.(!n_edges) <- j;
      incr n_edges
    end
  in
  let transitions = ref 0 in
  let queue = Queue.create () in
  let push parent move s =
    let key = M.encode s in
    match Hashtbl.find_opt index key with
    | Some i ->
        if parent >= 0 then record_edge parent i;
        Some i
    | None ->
        if !n >= max_states then None
        else begin
          if !n >= Array.length !states then begin
            let grow a fill =
              let a' = Array.make (2 * Array.length a) fill in
              Array.blit a 0 a' 0 (Array.length a);
              a'
            in
            states := grow !states s;
            parents := grow !parents (-1);
            moves := grow !moves 0
          end;
          let i = !n in
          Hashtbl.add index key i;
          !states.(i) <- s;
          !parents.(i) <- parent;
          !moves.(i) <- move;
          incr n;
          if parent >= 0 then record_edge parent i;
          Queue.push i queue;
          Some i
        end
  in
  let capped = ref false in
  let stop = ref false in
  List.iter
    (fun s ->
      match push (-1) 0 s with
      | Some i -> if on_state i s = `Stop then stop := true
      | None -> capped := true)
    M.initial;
  while (not !stop) && not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    let s = !states.(i) in
    List.iteri
      (fun move (_, s') ->
        if not !stop then begin
          incr transitions;
          match push i move s' with
          | Some j ->
              (* only check state invariants the first time we see j *)
              if j = !n - 1 && on_state j s' = `Stop then stop := true
          | None -> capped := true
        end)
      (M.next s)
  done;
  let trace_to i =
    let rec go i acc =
      let parent = !parents.(i) in
      if parent < 0 then ("init", !states.(i)) :: acc
      else
        let label, _ = List.nth (M.next !states.(parent)) !moves.(i) in
        go parent ((Lazy.force label, !states.(i)) :: acc)
    in
    go i []
  in
  let edges = { src = Array.sub !e_src 0 !n_edges; dst = Array.sub !e_dst 0 !n_edges } in
  (!n, !transitions, not !capped, Array.sub !states 0 !n, edges, trace_to)

let check (type s) (module M : System.MODEL with type state = s) ?(max_states = 2_000_000) () =
  let violation = ref None in
  let check_state i s =
    match List.find_opt (fun (_, p) -> not (p s)) M.invariants with
    | Some (name, _) ->
        violation := Some (name, i);
        `Stop
    | None -> `Continue
  in
  let states, transitions, complete, _all, _edges, trace_to =
    bfs (module M) ~max_states ~record_edges:false ~on_state:check_state
  in
  let violation =
    Option.map (fun (property, i) -> { property; trace = trace_to i }) !violation
  in
  { states; transitions; complete; violation }

let reachable (type s) (module M : System.MODEL with type state = s) ?(max_states = 2_000_000)
    () =
  let states, _, complete, all, edges, _ =
    bfs (module M) ~max_states ~record_edges:true ~on_state:(fun _ _ -> `Continue)
  in
  if not complete then failwith (M.name ^ ": state space exceeds max_states");
  ignore states;
  (all, edges)

let progress_on_graph states preds ~waiting ~goal =
  let n = Array.length states in
  let can_reach_goal = Array.make n false in
  let queue = Queue.create () in
  Array.iteri
    (fun i s ->
      if goal s then begin
        can_reach_goal.(i) <- true;
        Queue.push i queue
      end)
    states;
  while not (Queue.is_empty queue) do
    let j = Queue.pop queue in
    List.iter
      (fun i ->
        if not can_reach_goal.(i) then begin
          can_reach_goal.(i) <- true;
          Queue.push i queue
        end)
      preds.(j)
  done;
  let stuck = ref None in
  Array.iteri
    (fun i s -> if !stuck = None && waiting s && not can_reach_goal.(i) then stuck := Some (s, i))
    states;
  !stuck

let predecessors states edges =
  let preds = Array.make (Array.length states) [] in
  for e = 0 to n_edges edges - 1 do
    preds.(edges.dst.(e)) <- edges.src.(e) :: preds.(edges.dst.(e))
  done;
  preds

let possible_progress_many (type s) (module M : System.MODEL with type state = s) ?max_states
    ~cases () =
  let states, edges = reachable (module M) ?max_states () in
  let preds = predecessors states edges in
  List.map (fun (waiting, goal) -> progress_on_graph states preds ~waiting ~goal) cases

let hunt (type s) (module M : System.MODEL with type state = s) ?(on_step = fun _ -> None) ~seeds
    ~steps () =
  let bad s =
    match List.find_opt (fun (_, p) -> not (p s)) M.invariants with
    | Some (name, _) -> Some name
    | None -> on_step s
  in
  let walk seed =
    let rng = Random.State.make [| seed |] in
    (* [trace] is the walk so far, newest first, its labels unforced. *)
    let rec go s trace remaining =
      match bad s with
      | Some property ->
          Some { property; trace = List.rev_map (fun (label, s) -> (Lazy.force label, s)) trace }
      | None ->
          if remaining = 0 then None
          else begin
            match M.next s with
            | [] -> None
            | moves ->
                let ((_, s') as move) =
                  List.nth moves (Random.State.int rng (List.length moves))
                in
                go s' (move :: trace) (remaining - 1)
          end
    in
    let init = List.nth M.initial (Random.State.int rng (List.length M.initial)) in
    go init [ (lazy "init", init) ] steps
  in
  List.fold_left (fun acc seed -> match acc with Some _ -> acc | None -> walk seed) None seeds

let pp_violation pp_state ppf { property; trace } =
  Format.fprintf ppf "violated: %s@." property;
  List.iteri
    (fun i (label, s) -> Format.fprintf ppf "  %2d. [%s] %a@." i label pp_state s)
    trace
