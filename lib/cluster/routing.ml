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
   does one lookup per generated request; on the data path a server reads
   each shard's own ownership flag, a [bool Atomic.t] in [Shard], not this
   table).  The key -> shard map itself, [key_shard], needs no table: it
   is a pure function of the key and the shard count. *)

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

(* The one key -> shard map, so "shard" means the same thing on every node
   and in every client, and across builds: a shard migrated or adopted
   keeps its keys only while this stays fixed.  FNV-1a (32-bit parameters;
   the accumulator lives in a native int): cheap, deterministic across runs
   (unlike Hashtbl.hash seeds we don't control), and good enough spread
   over short keys.  One shard needs no hash at all. *)
let key_shard ~shards key =
  if shards = 1 then 0
  else begin
    let h = ref 0x811c9dc5 in
    String.iter
      (fun c ->
        h := !h lxor Char.code c;
        h := !h * 0x01000193 land 0xffffffff)
      key;
    (!h land max_int) mod shards
  end

let shard_of_key t key = key_shard ~shards:(shards t) key
