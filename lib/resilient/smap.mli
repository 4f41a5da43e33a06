(** The key-value store's persistent sorted index: Stdlib.Map's AVL tree
    over string keys, owned so that {!find_many} can walk the nodes
    directly.  Only the operations {!Kv_store} needs are here; all of them
    behave as their [Map.Make (String)] namesakes, except that {!add} and
    {!remove} also report whether the key count changed. *)

type 'a t

val empty : 'a t

val height : 'a t -> int
(** Levels on the longest root-to-leaf path; 0 for {!empty}.  {!find_many}
    chooses its walk by it. *)

val find_opt : string -> 'a t -> 'a option

val add : string -> 'a -> 'a t -> 'a t * bool
(** [add key v m] binds [key] to [v]; the flag is [true] iff [key] was
    absent from [m], i.e. the map gained a binding. *)

val remove : string -> 'a t -> 'a t * bool
(** [remove key m] drops [key]'s binding; the flag is [true] iff there was
    one.  An absent key returns [m] itself. *)

val bindings : 'a t -> (string * 'a) list
(** All bindings, ascending by key. *)

val to_seq_from : string -> 'a t -> (string * 'a) Seq.t
(** Bindings with key [>=] the given one, ascending. *)

val find_many : 'a t -> string array -> 'a option array
(** [find_many m keys] is [Array.map (fun k -> find_opt k m) keys], with
    the lookups walked down the tree in lockstep so their cache misses
    overlap.  Small trees and single keys take the plain walk. *)
