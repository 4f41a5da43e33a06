(** YCSB-style key-index generators for the load generator.

    All samplers are deterministic under a caller-supplied [Random.State]
    and return a key {e index} in [\[0, size t)]; {!key_of_index} maps
    indices to the canonical zero-padded key strings (lexicographic order ==
    numeric order, so SCAN ranges line up with the generated key space). *)

type dist =
  | Uniform  (** every key equally likely *)
  | Zipfian
      (** YCSB's bounded Zipf(theta): rank-r key hit with probability
          ~ 1/r^theta — a few hot keys absorb most traffic *)
  | Latest
      (** Zipfian over recency: the newest key is the hottest (YCSB
          workload D); {!advance} moves the hot end *)

val dist_name : dist -> string
val dist_of_string : string -> dist option

type t

val create : ?theta:float -> dist -> keys:int -> t
(** O(keys) once (zeta precomputation); sampling is O(1). *)

val sample : t -> Random.State.t -> int
val size : t -> int

val newest : t -> int
(** Index of the most recently inserted key ([size t - 1]). *)

val advance : t -> unit
(** Record one insert: the window grows by one and (for [Latest]) the new
    key becomes the hottest.  O(1) — the zeta constant updates
    incrementally. *)

val head_probability : t -> float
(** Analytic hit probability of the hottest key — the reference value for
    distribution-sanity tests. *)

val key_of_index : int -> string
(** ["k" ^ zero-padded index] — e.g. [key_of_index 7 = "k00000007"]. *)

val key_width : int
