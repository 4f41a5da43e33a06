(** Explicit-state transition systems for model checking the paper's
    algorithms at small N and k.

    Hand-translated models use first-order state records; {!Shipped}'s hold
    continuations of the shipped figures' text (run on {!Traced}) and
    [encode] keys each state on what they depend on.  Either way the
    reachable state space is enumerated exactly, crash transitions included. *)

module type MODEL = sig
  type state

  val name : string
  val initial : state list

  val next : state -> (string Lazy.t * state) list
  (** All atomic transitions enabled in a state, in a fixed order, with
      human-readable labels.  A label is forced only when a counterexample
      trace is built, so exploring formats none. *)

  val encode : state -> string
  (** Injective encoding; used as the hash key for visited-state sets. *)

  val pp : Format.formatter -> state -> unit

  val invariants : (string * (state -> bool)) list
  (** State invariants; checked on every reachable state. *)
end
