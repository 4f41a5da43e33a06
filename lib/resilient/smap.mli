(** The key-value store's persistent sorted index: Stdlib.Map's AVL tree
    over string keys, owned so that {!find_many} can walk the nodes
    directly.  Only the operations {!Kv_store} needs are here; all of them
    behave as their [Map.Make (String)] namesakes.  Every write goes through
    {!update_many}, a batch of sorted keys in one descent; a single add or
    remove is a batch of one. *)

type 'a t

val empty : 'a t

val height : 'a t -> int
(** Levels on the longest root-to-leaf path; 0 for {!empty}.  {!find_many}
    chooses its walk by it. *)

val find_opt : string -> 'a t -> 'a option

val update_many : 'a t -> string array -> (int -> 'a option -> 'a option) -> 'a t
(** [update_many m keys f] sets each key [keys.(i)] to [f i (find_opt
    keys.(i) m)], where [Some v] binds it and [None] removes it.  [keys]
    must be sorted ascending by [String.compare], with no repeats; [f] runs
    once per key, in index order.  This is one descent of [m] for the whole
    array, so each node on the touched paths is rebuilt once, however many
    of the keys lie below it.  Nodes are never mutated, so [m] is unchanged.
    A subtree where [f] changed nothing is returned physically equal: [f]
    returning the current value (the same value, by [==]) for a present key,
    or [None] for an absent one, leaves it alone. *)

val well_formed : 'a t -> bool
(** The AVL invariant, for tests: each node's stored height is exact, its
    two subtrees' heights differ by at most 2, and keys ascend. *)

val bindings : 'a t -> (string * 'a) list
(** All bindings, ascending by key. *)

val to_seq_from : string -> 'a t -> (string * 'a) Seq.t
(** Bindings with key [>=] the given one, ascending. *)

val find_many : 'a t -> string array -> 'a option array
(** [find_many m keys] is [Array.map (fun k -> find_opt k m) keys], with
    the lookups walked down the tree in lockstep so their cache misses
    overlap.  Small trees and single keys take the plain walk. *)
