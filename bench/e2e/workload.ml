(* The four workloads and their request generator.  Everything the server
   sees is derived from [--seed]: each connection draws from its own
   PRNG stream seeded with [(seed, connection)], so the same seed replays
   the same request sequence (the replay in [Replay] regenerates it).

   Keys are uniform over [keys] data keys.  Values are 16 bytes: the key's
   index as 8 hex digits, then 8 random hex digits — so a GET can be
   checked to return NIL or a value written for its own key.  UPDATEs go
   to a separate set of [counters] counter keys, never touched by SET,
   whose final values the oracle checks against acknowledged increments. *)

module Protocol = Kex_service.Protocol

type op = Get | Set | Update
type loop = Closed of int  (** window per connection *) | Paced of float  (** req/s per connection *)

type t = {
  name : string;
  loop : loop;
  wire : Protocol.wire;
  mix : (op * int) list;
  keys : int;
  chaos : bool;  (** each server is one window with one worker killed inside it *)
}

let connections = 2
let counters = 1024

(* Open-loop cap: a connection with this many requests in flight stops
   sending until one returns, and the backlog shows up as lateness. *)
let paced_max_inflight = 64

let all ~smoke =
  [ { name = "read-1m";
      loop = Closed 32;
      wire = Protocol.Binary;
      mix = [ (Get, 95); (Set, 5) ];
      keys = (if smoke then 20_000 else 1_000_000);
      chaos = false };
    { name = "write-10k";
      loop = Closed 32;
      wire = Protocol.Text;
      mix = [ (Set, 50); (Update, 40); (Get, 10) ];
      keys = 10_000;
      chaos = false };
    { name = "paced-mixed";
      loop = Paced 20_000.;
      wire = Protocol.Binary;
      mix = [ (Get, 70); (Set, 20); (Update, 10) ];
      keys = 10_000;
      chaos = false };
    { name = "chaos-kill";
      loop = Closed 32;
      wire = Protocol.Text;
      mix = [ (Get, 70); (Set, 20); (Update, 10) ];
      keys = 10_000;
      chaos = true } ]

let find ~smoke name = List.find_opt (fun w -> w.name = name) (all ~smoke)

let key_of_index = Kex_service.Keydist.key_of_index
let counter_key c = Printf.sprintf "c%07d" c

let value_for idx rng = Printf.sprintf "%08x%08x" idx (Random.State.bits rng land 0xffffffff)

(* Does [v] carry the tag of data key [idx]? *)
let value_matches idx v =
  String.length v = 16 && String.sub v 0 8 = Printf.sprintf "%08x" idx

(* What a request targets, kept by the client to check its response. *)
type target = Data of int | Counter of int

type gen = { rng : Random.State.t; total : int; w : t }

let gen w ~seed ~conn =
  { rng = Random.State.make [| seed; conn |]; total = List.fold_left (fun a (_, n) -> a + n) 0 w.mix; w }

let next g =
  let roll = Random.State.int g.rng g.total in
  let rec pick acc = function
    | [] -> assert false
    | (op, n) :: rest -> if roll < acc + n then op else pick (acc + n) rest
  in
  match pick 0 g.w.mix with
  | Get ->
      let i = Random.State.int g.rng g.w.keys in
      (Protocol.Get (key_of_index i), Data i)
  | Set ->
      let i = Random.State.int g.rng g.w.keys in
      (Protocol.Set (key_of_index i, value_for i g.rng), Data i)
  | Update ->
      let c = Random.State.int g.rng counters in
      (Protocol.Update (counter_key c, 1), Counter c)

(* Oracle for one response.  An [ERR] reply is a failed request (it
   counts against [failed] and as infinite latency); any other mismatch is
   a wrong answer and fails the run. *)
type verdict = Acked | Incremented of int  (** counter index *) | Refused | Wrong of string

let check req target (resp : Protocol.response) =
  match (req, target, resp) with
  | _, _, Protocol.Error _ -> Refused
  | Protocol.Get _, Data _, Protocol.Value None -> Acked
  | Protocol.Get _, Data i, Protocol.Value (Some v) ->
      if value_matches i v then Acked
      else Wrong (Printf.sprintf "GET %s returned %S, not a value of that key" (key_of_index i) v)
  | Protocol.Set _, _, Protocol.Ok -> Acked
  | Protocol.Update _, Counter c, Protocol.Int n when n >= 1 -> Incremented c
  | _ -> Wrong (Printf.sprintf "unexpected response to %s" (Protocol.print_request req))
