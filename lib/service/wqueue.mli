(** A blocking multi-producer/multi-consumer dispatch queue (mutex +
    condition), shared between the server's connection plane (producers)
    and worker domains (consumers).

    Wakeups are deduplicated: at most one signal is in flight at a time,
    sent only when items are queued and some consumer is asleep.  The
    consumer it wakes sweeps a batch; if that leaves a backlog, the wakeup
    passes on to the next sleeper.  A push of many items therefore wakes
    one consumer, not one per item.  [close] still wakes everyone. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> bool
(** Enqueue at the back; [false] if the queue is closed (item refused). *)

val push_list : 'a t -> 'a list -> bool
(** Enqueue every item at the back, in list order, under one lock
    acquisition and with at most one wakeup.  All or nothing: [false] if
    the queue is closed (every item refused). *)

val push_front : 'a t -> 'a -> bool
(** Enqueue at the front — used to re-dispatch the claimed request of a
    crashed worker ahead of new traffic. *)

val pop : 'a t -> 'a option
(** Block until an item is available; [None] once the queue is closed and
    drained of nothing (close empties the queue, so [None] means shutdown). *)

val pop_batch : 'a t -> max:int -> 'a list
(** Block until at least one item is available, then return up to [max]
    already-queued items in dispatch order (front/re-dispatched items
    first).  [[]] means the queue was closed — the shutdown signal.  This is
    how workers amortize one admission over a batch. *)

val length : 'a t -> int
(** Items currently queued (front + back).  O(1): the front list keeps a
    counter, so callers polling the backlog don't pay for the re-dispatch
    list length under the mutex. *)

val pushes : 'a t -> int
(** Items accepted over the queue's lifetime (all three push functions). *)

val wakeups : 'a t -> int
(** Consumer signals sent over the queue's lifetime ([close]'s broadcast
    not counted).  [wakeups / pushes] is the wakeups paid per item. *)

val close : 'a t -> 'a list
(** Close the queue, wake every blocked consumer, and return the items that
    were still pending so the caller can refuse them. *)
