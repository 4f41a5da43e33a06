(** The cluster routing table: shard -> owning node address ("host:port"),
    versioned by one monotone epoch.

    Every node and every cluster-aware client holds one.  Mutations that
    come from elsewhere ({!observe}, a [MOVED] reply; {!install}, a [TOPO]
    reply) are adopted only when stamped with a strictly newer epoch, so
    stale information can never roll a table backwards and a client chases
    at most one redirect per epoch.  {!move} is the local decision — it
    bumps the epoch and is what a migration's routing flip calls. *)

type t

val create : epoch:int -> owners:string array -> t
(** [owners.(s)] is shard [s]'s address.  The array is copied. *)

val initial : addrs:string list -> shards:int -> t
(** The deterministic bootstrap every node computes from the shared node
    list: shard [s] owned by [List.nth addrs (s mod n)], epoch 1. *)

val shards : t -> int
val epoch : t -> int
val owner : t -> int -> string

val snapshot : t -> int * (int * string) list
(** Consistent [(epoch, [(shard, addr); ...])] — the [TOPO] reply body. *)

val move : t -> shard:int -> addr:string -> int
(** Reassign [shard] to [addr], bumping the epoch; returns the new epoch. *)

val observe : t -> shard:int -> epoch:int -> addr:string -> bool
(** Adopt one remote mapping iff [epoch] is strictly newer; returns whether
    the table changed.  Out-of-range shards are ignored. *)

val install : t -> epoch:int -> owners:(int * string) list -> bool
(** Adopt a whole remote table iff [epoch] is strictly newer. *)

val parse_addr : string -> (string * int, string) result
(** Split a node address ["host:port"] at its last colon; the port must be
    in 1..65535.  [Error] carries a message naming the address. *)

val key_shard : shards:int -> string -> int
(** The shard of a key among [shards] (FNV-1a of the key, modulo
    [shards]; 0 without hashing when [shards = 1]).  The one key -> shard
    map: a server's table of shards, {!shard_of_key} and the loadgen all
    use it, so shard ids agree across nodes, clients and builds. *)

val shard_of_key : t -> string -> int
(** {!key_shard} over the table's shard count. *)
