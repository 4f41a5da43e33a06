(** Aggregation of remote-reference measurements produced by {!Runner}. *)

type summary = {
  acquisitions : int;  (** total completed acquisitions across processes *)
  max_remote : int;  (** worst entry+exit remote references of any acquisition *)
  mean_remote : float;  (** mean entry+exit remote references per acquisition *)
  p50_remote : int;  (** median remote references per acquisition *)
  p99_remote : int;  (** 99th-percentile remote references per acquisition *)
  total_remote : int;  (** all remote references, any phase *)
  total_steps : int;
}

val percentile : int array -> float -> int
(** [percentile data p] with p in [0..1]; nearest-rank on sorted data;
    0 on empty input. *)

val summarize : Runner.result -> summary
val pp_summary : Format.formatter -> summary -> unit

(** Fixed-layout log-scaled histogram whose merge is an exact elementwise
    count add: percentiles over data recorded in separate histograms (per
    shard, per worker, per connection) are well-defined — any merge order
    yields the same buckets — unlike concatenating raw sample arrays held in
    different places.  Bucket layout is power-of-two majors with 8
    sub-buckets, so reported percentiles sit within 12.5% of the true value
    (and are clipped to the exact observed max). *)
module Hist : sig
  type t

  val n_buckets : int

  val bucket_of : int -> int
  (** Bucket index of a (non-negative) value — exposed so lock-free callers
      can keep their own atomic count arrays and rebuild with {!of_counts}. *)

  val upper_bound : int -> int
  (** Largest value a bucket covers (inclusive). *)

  val create : unit -> t
  val add : t -> int -> unit

  val of_counts : ?max_v:int -> int array -> t
  (** Adopt a raw count array (shorter arrays are zero-padded).  [max_v]
      pins the exact observed maximum; otherwise the top nonempty bucket's
      upper bound stands in. *)

  val merge_into : into:t -> t -> unit
  val merge : t list -> t
  val count : t -> int
  val max_value : t -> int

  val percentile : t -> float -> int
  (** Nearest-rank percentile, [p] in [0..1]; 0 on an empty histogram. *)
end
