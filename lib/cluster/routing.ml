(* The cluster routing table: shard -> owning node address, versioned by one
   monotone epoch.

   This is the exclusive-selection core of the cluster (Chlebus & Kowalski's
   problem shape): at any epoch every shard has exactly one owner, and
   ownership only changes together with an epoch bump, so two nodes can
   never both believe they own a shard *at the same epoch*.  Everyone —
   server nodes and clients alike — holds one of these and adopts newer
   mappings only ([observe]/[install] are monotone in the epoch), so a stale
   MOVED or TOPO reply can never roll a table backwards.  A client chasing a
   key therefore follows at most one redirect per epoch: the redirect either
   teaches it a newer epoch or tells it nothing new.

   The table is mutated under a mutex and read under it too — routing
   lookups are two loads, far off any hot path that matters (the loadgen
   does one lookup per generated request; servers consult their own [owned]
   bitmap, not this table, on the data path). *)

type t = {
  m : Mutex.t;
  mutable epoch : int;
  owners : string array;  (* shard -> "host:port" *)
}

(* srclint knows this wrapper (Srclint.default_manifest): anything run
   through [locked] holds [m], which guards [epoch] and [owners]. *)
let locked t f = Kex_sync.Sync.with_lock t.m f

let create ~epoch ~owners =
  if Array.length owners = 0 then invalid_arg "Routing.create: no shards";
  if epoch < 0 then invalid_arg "Routing.create: negative epoch";
  { m = Mutex.create (); epoch; owners = Array.copy owners }

(* The bootstrap assignment every node computes identically from the shared
   [--cluster] node list: shard s starts at node (s mod n), epoch 1.  *)
let initial ~addrs ~shards =
  let n = List.length addrs in
  if n = 0 then invalid_arg "Routing.initial: no nodes";
  if shards < 1 then invalid_arg "Routing.initial: no shards";
  let addrs = Array.of_list addrs in
  create ~epoch:1 ~owners:(Array.init shards (fun s -> addrs.(s mod n)))

let shards t = locked t (fun () -> Array.length t.owners)
let epoch t = locked t (fun () -> t.epoch)
let owner t shard = locked t (fun () -> t.owners.(shard))

let snapshot t =
  locked t (fun () ->
      (t.epoch, Array.to_list (Array.mapi (fun s addr -> (s, addr)) t.owners)))

(* Local decision: reassign [shard] and bump the epoch.  Returns the new
   epoch — the one the migration's final import and MOVED replies carry. *)
let move t ~shard ~addr =
  locked t (fun () ->
      t.epoch <- t.epoch + 1;
      t.owners.(shard) <- addr;
      t.epoch)

(* Remote teaching: adopt a (shard, addr) mapping stamped [epoch] iff it is
   strictly newer than what we hold.  Returns whether anything changed. *)
let observe t ~shard ~epoch ~addr =
  locked t (fun () ->
      if epoch > t.epoch && shard >= 0 && shard < Array.length t.owners then begin
        t.epoch <- epoch;
        t.owners.(shard) <- addr;
        true
      end
      else false)

(* Whole-table teaching (a TOPO reply): adopt iff strictly newer. *)
let install t ~epoch ~owners =
  locked t (fun () ->
      if epoch > t.epoch then begin
        List.iter
          (fun (shard, addr) ->
            if shard >= 0 && shard < Array.length t.owners then t.owners.(shard) <- addr)
          owners;
        t.epoch <- epoch;
        true
      end
      else false)

let parse_addr addr =
  match String.rindex_opt addr ':' with
  | None -> Error (Printf.sprintf "bad node address %S (want host:port)" addr)
  | Some i -> (
      let host = String.sub addr 0 i in
      match int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1)) with
      | Some port when port > 0 && port < 65536 -> Ok (host, port)
      | _ -> Error (Printf.sprintf "bad port in node address %S" addr))

(* Same hash as the in-process sharded store, so "shard" means the same
   thing on every node and in every client. *)
let shard_of_key t key =
  let n = locked t (fun () -> Array.length t.owners) in
  if n = 1 then 0 else Kex_resilient.Sharded_store.hash_key key mod n
