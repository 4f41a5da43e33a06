type access =
  | Read of int
  | Write of int * int
  | Faa of int * int
  | Bounded_faa of int * int * int * int
  | Cas of int * int * int
  | Tas of int
  | Await of int * (int -> bool)
  | Swap of int * int

(* [Mark] opens a scope and [Collapse] closes the innermost one with the
   code of its result.  Neither is an access, and both hold thunks so the
   code after them runs only once the interpreter has moved past them. *)
type 'a m =
  | Return of 'a
  | Step of access * (int -> 'a m)
  | Mark of (unit -> 'a m)
  | Collapse of int * (unit -> 'a m)

let return x = Return x

let rec bind m f =
  match m with
  | Return x -> f x
  | Step (a, k) -> Step (a, fun r -> bind (k r) f)
  | Mark k -> Mark (fun () -> bind (k ()) f)
  | Collapse (c, k) -> Collapse (c, fun () -> bind (k ()) f)

let scope code body = Mark (fun () -> bind (body ()) (fun v -> Collapse (code v, fun () -> Return v)))

type block = int
type cell = int

(* [log] is the history of the call being run: the interpreter sets it
   before running a continuation, and [get] adds to it. *)
type ctx = {
  procs : int;
  mutable init : int array;
  mutable names : string array;
  mutable vars : var list;
  mutable log : int list;
}

and var = Var : 'a per_pid -> var

and 'a per_pid = {
  ctx : ctx;
  index : int;
  live : 'a array;
  ids : ('a, int) Hashtbl.t;
  mutable values : 'a array;  (* by id *)
}

let create ~procs = { procs; init = [||]; names = [||]; vars = []; log = [] }

let alloc ctx ?owner:_ ~label ~init len =
  let base = Array.length ctx.init in
  if base + len > 1 lsl 20 then invalid_arg "Traced.alloc: too many cells";
  ctx.init <- Array.append ctx.init (Array.make len init);
  ctx.names <-
    Array.append ctx.names
      (Array.init len (fun i -> if len = 1 then label else Printf.sprintf "%s[%d]" label i));
  base

let cell base i = base + i
let memory ctx = Array.copy ctx.init
let cell_name ctx c = ctx.names.(c)
let access a = Step (a, fun r -> Return r)
let read c = access (Read c)
let write c v = Step (Write (c, v), fun _ -> Return ())
let faa c d = access (Faa (c, d))
let bounded_faa c d ~lo ~hi = access (Bounded_faa (c, d, lo, hi))
let cas c ~expected ~desired = Step (Cas (c, expected, desired), fun r -> Return (r = 1))
let tas c = Step (Tas c, fun old -> Return (old = 0))
let swap c v = access (Swap (c, v))
let await c p = Step (Await (c, p), fun _ -> Return ())

(* One integer per history event: kind, cell and result.  Kinds 0-6 and
   9 are the accesses, 7 a closed scope with its result's code, 8 a
   private read, whose cell is its entry in [save]'s vector and result its
   id.  [alloc] keeps cells below 2^20, so the fields do not overlap. *)
let event kind cell result = (result lsl 25) lor (cell lsl 4) lor kind

let intern v x =
  match Hashtbl.find_opt v.ids x with
  | Some id -> id
  | None ->
      let id = Array.length v.values in
      Hashtbl.add v.ids x id;
      v.values <- Array.append v.values [| x |];
      id

let per_pid ctx init =
  let index = List.length ctx.vars in
  let v = { ctx; index; live = Array.init ctx.procs init; ids = Hashtbl.create 8; values = [||] } in
  ctx.vars <- Var v :: ctx.vars;
  v

let get v pid =
  let x = v.live.(pid) in
  v.ctx.log <- event 8 ((v.index * v.ctx.procs) + pid) (intern v x) :: v.ctx.log;
  x

let set v pid x = v.live.(pid) <- x

(* Entry [index * procs + pid] is that variable's value for [pid]. *)
let save ctx =
  let out = Array.make (List.length ctx.vars * ctx.procs) 0 in
  List.iter
    (fun (Var v) -> Array.iteri (fun pid x -> out.((v.index * ctx.procs) + pid) <- intern v x) v.live)
    ctx.vars;
  out

let restore ctx saved =
  List.iter
    (fun (Var v) ->
      Array.iteri (fun pid _ -> v.live.(pid) <- v.values.(saved.((v.index * ctx.procs) + pid))) v.live)
    ctx.vars

type 'a run = { prog : 'a m; history : int list; marks : int list list }

let rec settle ctx prog marks =
  match (prog, marks) with
  | (Return _ | Step _), _ -> { prog; history = ctx.log; marks }
  | Mark body, _ ->
      let marks = ctx.log :: marks in
      settle ctx (body ()) marks
  | Collapse (code, rest), outer :: marks ->
      ctx.log <- event 7 0 code :: outer;
      settle ctx (rest ()) marks
  | Collapse _, [] -> invalid_arg "Traced: scope closed twice"

let start ctx body =
  ctx.log <- [];
  settle ctx (body ()) []

let finished r = match r.prog with Return x -> Some x | _ -> None
let history r = r.history

(* Kind, cell, new memory (a copy where it writes) and result. *)
let apply mem a =
  let set c v =
    let mem = Array.copy mem in
    mem.(c) <- v;
    mem
  in
  match a with
  | Read c -> (0, c, mem, mem.(c))
  | Write (c, v) -> (1, c, set c v, 0)
  | Faa (c, d) -> (2, c, set c (mem.(c) + d), mem.(c))
  | Bounded_faa (c, d, lo, hi) ->
      let v = mem.(c) + d in
      (3, c, (if v < lo || v > hi then mem else set c v), mem.(c))
  | Cas (c, expected, desired) ->
      if mem.(c) = expected then (4, c, set c desired, 1) else (4, c, mem, 0)
  | Tas c -> (5, c, set c 1, mem.(c))
  | Await (c, _) -> (6, c, mem, mem.(c))
  | Swap (c, v) -> (9, c, set c v, mem.(c))

let perform ctx mem r =
  match r.prog with
  | Step (Await (c, p), _) when not (p mem.(c)) -> None
  | Step (a, k) ->
      let kind, cell, mem, result = apply mem a in
      ctx.log <- event kind cell result :: r.history;
      Some (a, mem, result, settle ctx (k result) r.marks)
  | _ -> None

let describe ctx a =
  let cell c = " " ^ ctx.names.(c) and int v = " " ^ string_of_int v in
  match a with
  | Read c -> "read" ^ cell c
  | Write (c, v) -> "write" ^ cell c ^ int v
  | Faa (c, d) -> "faa" ^ cell c ^ int d
  | Bounded_faa (c, d, lo, hi) -> "bounded faa" ^ cell c ^ int d ^ int lo ^ int hi
  | Cas (c, e, d) -> "cas" ^ cell c ^ int e ^ int d
  | Tas c -> "tas" ^ cell c
  | Await (c, _) -> "await" ^ cell c
  | Swap (c, v) -> "swap" ^ cell c ^ int v
