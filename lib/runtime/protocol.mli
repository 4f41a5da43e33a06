(** Real-hardware (OCaml 5 multicore) counterpart of the simulator protocol
    interface: entry/exit procedures over [Atomic.t] shared state.

    On real hardware the machine is cache-coherent, so this library ports the
    paper's CC family (Figure 2 blocks, trees, fast paths); the local-spin
    discipline translates directly to spinning on a cached line. *)

type t = {
  name : string;
  entry : int -> unit;  (** [entry pid] — the paper's Acquire *)
  exit : int -> unit;  (** [exit pid] — the paper's Release *)
  try_entry : int -> bool;
      (** [try_entry pid] — Acquire with no patience: [true] means [pid] is
          admitted exactly as after [entry] (and must [exit]); [false]
          means it would have had to wait, and it has already left every
          stage it passed, so the protocol is as if it never arrived.  A
          Figure 2 or Figure 6 block whose fetch-and-add returns 0 runs its
          own exit statements instead of spinning; the release write among
          them frees any waiter that queued behind it. *)
}

val trivial : t
(** Skip protocol: the (N,k) base case for k >= N. *)
