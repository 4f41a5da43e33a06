module Op = Kex_sim.Op
module Memory = Kex_sim.Memory

(* One shared-memory access performed by a CFG node, with its site resolved
   (owner, region label) at the moment the access was discovered — the
   instance that discovered it is the one that allocated the cell, so lazy
   per-pid banks resolve correctly even though every replay rebuilds the
   protocol from scratch. *)
type acc = {
  a_addr : Op.addr;
  a_site : string;
  a_owner : int option;
  a_region : (string * int) option;
  a_read : bool;
  a_write : bool;
  a_rmw : bool;
  a_value : Op.value option;  (* the value stored, for plain writes *)
}

type shape =
  | Halt
  | Event of Op.event
  | Access of {
      pp : string;
      accs : acc list;
      bfaa : (int * int * int) option;  (* (delta, lo, hi) of a Bounded_faa *)
    }

type node = {
  id : int;
  shape : shape;
  mutable succs : (Op.value option * int) list;
      (* edge label = the driven result value (None for event edges) *)
  depth : int;
}

type t = {
  nodes : node array;
  complete : bool;
  max_depth_hit : bool;
}

let n_nodes t = Array.length t.nodes
let node t i = t.nodes.(i)

(* ------------------------------------------------------------------ *)
(* Driving one step symbolically.                                      *)

(* The feasible-result samples used to drive a [Step] continuation.  CAS and
   test-and-set have a two-point result domain by definition.  Reads and
   fetch-and-adds are driven with the cell's current (initial) value plus the
   abstract probes {-1, 0, 1}: enough to take both sides of every guard in
   the paper's figures (slots-available vs exhausted, spin-released vs not,
   x < 0, q = u, ...) while keeping the branching factor at four. *)
let probes = [ -1; 0; 1 ]

let dedup xs =
  let rec go seen = function
    | [] -> []
    | x :: tl -> if List.mem x seen then go seen tl else x :: go (x :: seen) tl
  in
  go [] xs

let cell_value mem a = if a >= 0 && a < Memory.size mem then Memory.get mem a else 0

(* Execute an atomic block against a read/write overlay: reads see prior
   in-block writes, the backing memory is never mutated, and the footprint is
   recorded in first-access order. *)
let exec_block mem f =
  let reads = ref [] and writes = ref [] in
  let over : (Op.addr, Op.value) Hashtbl.t = Hashtbl.create 8 in
  let read a =
    if not (List.mem a !reads) then reads := a :: !reads;
    match Hashtbl.find_opt over a with Some v -> v | None -> cell_value mem a
  in
  let write a v =
    if not (List.mem a !writes) then writes := a :: !writes;
    Hashtbl.replace over a v
  in
  let result = f ~read ~write in
  (List.rev !reads, List.rev !writes, result)

let samples_of_step mem (s : Op.step) : Op.value list =
  match s with
  | Op.Write _ | Op.Delay _ -> [ 0 ]
  | Op.Cas _ -> [ 0; 1 ]
  | Op.Tas a -> dedup (cell_value mem a :: [ 0; 1 ])
  | Op.Read a | Op.Faa (a, _) | Op.Bounded_faa (a, _, _, _) | Op.Swap (a, _) ->
      dedup (cell_value mem a :: probes)
  | Op.Atomic_block (_, f) ->
      let _, _, r = exec_block mem f in
      dedup (r :: [ 0; 1 ])

(* ------------------------------------------------------------------ *)
(* Replay.                                                             *)

exception Bad_prefix

(* Walk a fresh instance of the program along a recorded choice list.  Every
   replay re-runs the construction and all continuation side effects in true
   path order, so private per-process state (the paper's private variables,
   [Pid_state] banks) is always consistent with the path being examined. *)
let replay (make : unit -> Memory.t * unit Op.t) (prefix : int list) =
  let mem, p0 = make () in
  let rec go p = function
    | [] -> (mem, p)
    | c :: rest -> (
        match (p : unit Op.t) with
        | Op.Return () -> raise Bad_prefix
        | Op.Mark (_, k) ->
            if c <> 0 then raise Bad_prefix;
            go (k ()) rest
        | Op.Step (s, k) ->
            let samples = samples_of_step mem s in
            let v = try List.nth samples c with _ -> raise Bad_prefix in
            go (k v) rest)
  in
  go p0 prefix

(* ------------------------------------------------------------------ *)
(* Continuation fingerprints.                                          *)

let pp_event (e : Op.event) =
  match e with
  | Op.Entry_begin -> "entry-begin"
  | Op.Cs_enter n -> Printf.sprintf "cs-enter(%d)" n
  | Op.Cs_exit -> "cs-exit"
  | Op.Exit_end -> "exit-end"
  | Op.Note s -> "note:" ^ s

let desc_of_step mem (s : Op.step) =
  match s with
  | Op.Read a -> Printf.sprintf "read@%d" a
  | Op.Write (a, v) -> Printf.sprintf "write@%d:=%d" a v
  | Op.Faa (a, d) -> Printf.sprintf "faa@%d%+d" a d
  | Op.Bounded_faa (a, d, lo, hi) -> Printf.sprintf "bfaa@%d%+d[%d..%d]" a d lo hi
  | Op.Cas (a, e, d) -> Printf.sprintf "cas@%d(%d->%d)" a e d
  | Op.Tas a -> Printf.sprintf "tas@%d" a
  | Op.Swap (a, v) -> Printf.sprintf "swap@%d:=%d" a v
  | Op.Delay n -> Printf.sprintf "delay(%d)" n
  | Op.Atomic_block (name, f) ->
      let reads, writes, r = exec_block mem f in
      Printf.sprintf "block'%s'r{%s}w{%s}=%d" name
        (String.concat "," (List.map string_of_int reads))
        (String.concat "," (List.map string_of_int writes))
        r

(* Bounded structural unrolling: the hash-consing key for a continuation
   state.  Two states with the same depth-[d] behaviour tree are merged;
   spin loops (whose every iteration unrolls identically) therefore close
   into CFG cycles.  Forcing continuations during fingerprinting replays
   side effects out of path order, but each fingerprint is computed on a
   dedicated fresh replay that is discarded afterwards, so the corruption
   never leaks into another node's expansion. *)
let rec fingerprint_into buf mem d (p : unit Op.t) =
  if d = 0 then Buffer.add_char buf '.'
  else
    match p with
    | Op.Return () -> Buffer.add_char buf 'R'
    | Op.Mark (e, k) ->
        Buffer.add_char buf 'M';
        Buffer.add_string buf (pp_event e);
        Buffer.add_char buf '(';
        fingerprint_into buf mem (d - 1) (k ());
        Buffer.add_char buf ')'
    | Op.Step (s, k) ->
        Buffer.add_char buf 'S';
        Buffer.add_string buf (desc_of_step mem s);
        Buffer.add_char buf '(';
        List.iter
          (fun v ->
            fingerprint_into buf mem (d - 1) (k v);
            Buffer.add_char buf ';')
          (samples_of_step mem s);
        Buffer.add_char buf ')'

let fingerprint mem ~depth p =
  let buf = Buffer.create 256 in
  fingerprint_into buf mem depth p;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

let resolve mem a =
  let owner = if a >= 0 && a < Memory.size mem then Memory.owner mem a else None in
  let region = if a >= 0 && a < Memory.size mem then Memory.region mem a else None in
  let site = Format.asprintf "%a" (Memory.pp_addr mem) a in
  (owner, region, site)

let acc_of mem a ~read ~write ~rmw ~value =
  let a_owner, a_region, a_site = resolve mem a in
  { a_addr = a; a_site; a_owner; a_region; a_read = read; a_write = write; a_rmw = rmw;
    a_value = value }

let shape_of mem (p : unit Op.t) =
  match p with
  | Op.Return () -> Halt
  | Op.Mark (e, _) -> Event e
  | Op.Step (s, _) -> (
      let site_pp a =
        (* human-readable variant with region labels *)
        Format.asprintf "%a" (Memory.pp_addr mem) a
      in
      match s with
      | Op.Read a ->
          Access
            { pp = "read " ^ site_pp a;
              accs = [ acc_of mem a ~read:true ~write:false ~rmw:false ~value:None ];
              bfaa = None }
      | Op.Write (a, v) ->
          Access
            { pp = Printf.sprintf "write %s := %d" (site_pp a) v;
              accs = [ acc_of mem a ~read:false ~write:true ~rmw:false ~value:(Some v) ];
              bfaa = None }
      | Op.Faa (a, d) ->
          Access
            { pp = Printf.sprintf "faa %s %+d" (site_pp a) d;
              accs = [ acc_of mem a ~read:true ~write:true ~rmw:true ~value:None ];
              bfaa = None }
      | Op.Bounded_faa (a, d, lo, hi) ->
          Access
            { pp = Printf.sprintf "bounded_faa %s %+d [%d..%d]" (site_pp a) d lo hi;
              accs = [ acc_of mem a ~read:true ~write:true ~rmw:true ~value:None ];
              bfaa = Some (d, lo, hi) }
      | Op.Cas (a, e, d) ->
          Access
            { pp = Printf.sprintf "cas %s (%d -> %d)" (site_pp a) e d;
              accs = [ acc_of mem a ~read:true ~write:true ~rmw:true ~value:None ];
              bfaa = None }
      | Op.Tas a ->
          Access
            { pp = "tas " ^ site_pp a;
              accs = [ acc_of mem a ~read:true ~write:true ~rmw:true ~value:None ];
              bfaa = None }
      | Op.Swap (a, v) ->
          Access
            { pp = Printf.sprintf "swap %s := %d" (site_pp a) v;
              accs = [ acc_of mem a ~read:true ~write:true ~rmw:true ~value:(Some v) ];
              bfaa = None }
      | Op.Delay n -> Access { pp = Printf.sprintf "delay %d" n; accs = []; bfaa = None }
      | Op.Atomic_block (name, f) ->
          let reads, writes, _ = exec_block mem f in
          let accs =
            List.map
              (fun a ->
                let w = List.mem a writes in
                acc_of mem a ~read:true ~write:w ~rmw:false ~value:None)
              reads
            @ List.filter_map
                (fun a ->
                  if List.mem a reads then None
                  else Some (acc_of mem a ~read:false ~write:true ~rmw:false ~value:None))
                writes
          in
          Access
            { pp =
                Printf.sprintf "atomic block %S %s" name
                  (String.concat " "
                     (List.map
                        (fun (acc : acc) ->
                          (if acc.a_write then "w:" else "r:") ^ acc.a_site)
                        accs));
              accs;
              bfaa = None })

type builder_node = { b_prefix : int list (* reversed *); b_id : int }

let max_nodes = 4000
let max_depth = 400
let fingerprint_depth = 5

let build ~make () =
  let index : (string, int) Hashtbl.t = Hashtbl.create 512 in
  let nodes : node array ref = ref [||] in
  let n = ref 0 in
  let complete = ref true in
  let max_depth_hit = ref false in
  let push nd =
    if !n = 0 then nodes := Array.make 64 nd
    else if !n >= Array.length !nodes then begin
      let a = Array.make (2 * !n) nd in
      Array.blit !nodes 0 a 0 !n;
      nodes := a
    end;
    !nodes.(!n) <- nd;
    incr n
  in
  let queue : builder_node Queue.t = Queue.create () in
  (* Register the state reached by [prefix]; returns its node id. *)
  let register prefix =
    let mem, p = replay make (List.rev prefix) in
    let fp = fingerprint mem ~depth:fingerprint_depth p in
    match Hashtbl.find_opt index fp with
    | Some id -> id
    | None ->
        if !n >= max_nodes then begin
          complete := false;
          -1
        end
        else begin
          let id = !n in
          Hashtbl.add index fp id;
          push { id; shape = shape_of mem p; succs = []; depth = List.length prefix };
          Queue.push { b_prefix = prefix; b_id = id } queue;
          id
        end
  in
  let root = register [] in
  assert (root = 0 || root = -1);
  while not (Queue.is_empty queue) do
    let { b_prefix; b_id } = Queue.pop queue in
    if List.length b_prefix >= max_depth then begin
      max_depth_hit := true;
      complete := false
    end
    else begin
      let mem, p = replay make (List.rev b_prefix) in
      match p with
      | Op.Return () -> ()
      | Op.Mark (_, _) ->
          let id = register (0 :: b_prefix) in
          if id >= 0 then !nodes.(b_id).succs <- [ (None, id) ]
      | Op.Step (s, _) ->
          let samples = samples_of_step mem s in
          let succs =
            List.mapi
              (fun i v ->
                let id = register (i :: b_prefix) in
                (Some v, id))
              samples
            |> List.filter (fun (_, id) -> id >= 0)
          in
          !nodes.(b_id).succs <- succs
    end
  done;
  { nodes = Array.sub !nodes 0 !n; complete = !complete; max_depth_hit = !max_depth_hit }

(* ------------------------------------------------------------------ *)
(* Graph analyses.                                                     *)

(* Tarjan strongly-connected components.  A node belongs to a loop iff its
   SCC has more than one node or it has a self edge. *)
let sccs t =
  let nn = Array.length t.nodes in
  let indexv = Array.make nn (-1) in
  let low = Array.make nn 0 in
  let on_stack = Array.make nn false in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strong v =
    indexv.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (_, w) ->
        if indexv.(w) < 0 then begin
          strong w;
          if low.(w) < low.(v) then low.(v) <- low.(w)
        end
        else if on_stack.(w) && indexv.(w) < low.(v) then low.(v) <- indexv.(w))
      t.nodes.(v).succs;
    if low.(v) = indexv.(v) then begin
      let rec popped acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else popped (w :: acc)
      in
      out := popped [] :: !out
    end
  in
  for v = 0 to nn - 1 do
    if indexv.(v) < 0 then strong v
  done;
  !out

let loops t =
  sccs t
  |> List.filter (fun comp ->
         match comp with
         | [ v ] -> List.exists (fun (_, w) -> w = v) t.nodes.(v).succs
         | _ :: _ :: _ -> true
         | [] -> false)

(* Reachability from [start] to any Halt node, treating nodes satisfying
   [blocked] as absent.  Used by the name-leak pass: can the program finish
   without ever passing through a release site? *)
let reaches_halt_avoiding t ~start ~blocked =
  let nn = Array.length t.nodes in
  let seen = Array.make nn false in
  let parent = Array.make nn (-1) in
  let q = Queue.create () in
  seen.(start) <- true;
  Queue.push start q;
  let hit = ref None in
  while !hit = None && not (Queue.is_empty q) do
    let v = Queue.pop q in
    if t.nodes.(v).shape = Halt then hit := Some v
    else
      List.iter
        (fun (_, w) ->
          if (not seen.(w)) && not (blocked t.nodes.(w)) then begin
            seen.(w) <- true;
            parent.(w) <- v;
            Queue.push w q
          end)
        t.nodes.(v).succs
  done;
  match !hit with
  | None -> None
  | Some v ->
      let rec path v acc = if v < 0 then acc else path parent.(v) (v :: acc) in
      Some (path v [])

let pp_shape ppf = function
  | Halt -> Format.pp_print_string ppf "halt"
  | Event e -> Format.fprintf ppf "event %s" (pp_event e)
  | Access { pp; _ } -> Format.pp_print_string ppf pp

let describe t i = Format.asprintf "%a" pp_shape t.nodes.(i).shape
