(* Lock discipline: every acquisition of [m] goes through [Sync.with_lock]
   (srclint S1), directly or through [locked], every [Condition.wait] sits
   in a while re-check loop (srclint S2).  [m] guards [front], [front_len],
   [q], [closed], [sleeping], [wake_pending], [pushes] and [wakeups] — see
   the guarded-by manifest in Srclint.default_manifest, which also names
   [locked] as a wrapper taking [m].

   Wakeup rule: at most one signal in flight; a backlog passes the wakeup
   on.  After every push or pop, [locked] signals one consumer only if
   items are queued, some consumer is asleep, and no earlier signal is
   still unconsumed ([wake_pending]).  The consumer that wakes clears the
   flag; if its pop leaves items behind, the same rule signals the next
   sleeper.  So one socket read's worth of items wakes one worker, which
   sweeps up to its batch cap, and only a real backlog recruits another:
   the shard's admission contention follows the backlog, not the number of
   pushes. *)

type 'a t = {
  m : Mutex.t;
  c : Condition.t;
  mutable front : 'a list;  (* re-dispatched items, popped first *)
  mutable front_len : int;  (* |front|, so [length] never walks the list *)
  q : 'a Queue.t;
  mutable closed : bool;
  mutable sleeping : int;  (* consumers blocked in [Condition.wait] *)
  mutable wake_pending : bool;  (* a signal was sent and no consumer woke yet *)
  mutable pushes : int;  (* items accepted, lifetime *)
  mutable wakeups : int;  (* signals sent, lifetime *)
}

let create () =
  { m = Mutex.create (); c = Condition.create (); front = []; front_len = 0;
    q = Queue.create (); closed = false; sleeping = 0; wake_pending = false;
    pushes = 0; wakeups = 0 }

(* Run [f] under [m], then apply the wakeup rule. *)
let locked t f =
  Kex_sync.Sync.with_lock t.m (fun () ->
      let r = f () in
      if t.sleeping > 0 && (not t.wake_pending) && not (t.front = [] && Queue.is_empty t.q)
      then begin
        t.wake_pending <- true;
        t.wakeups <- t.wakeups + 1;
        Condition.signal t.c
      end;
      r)

let push_list t xs =
  locked t (fun () ->
      let accepted = not t.closed in
      if accepted then
        List.iter
          (fun x ->
            Queue.push x t.q;
            t.pushes <- t.pushes + 1)
          xs;
      accepted)

let push t x = push_list t [ x ]

let push_front t x =
  locked t (fun () ->
      let accepted = not t.closed in
      if accepted then begin
        t.front <- x :: t.front;
        t.front_len <- t.front_len + 1;
        t.pushes <- t.pushes + 1
      end;
      accepted)

(* Blocking batch pop: wait for the first item, then sweep up to [max]-1
   more that are already queued without waiting again.  Front (re-dispatch)
   items keep their priority and their order.  A woken consumer consumes
   the in-flight signal whether or not an item is left for it. *)
let pop_batch t ~max =
  if max < 1 then invalid_arg "Wqueue.pop_batch: max must be positive";
  locked t (fun () ->
      while t.front = [] && Queue.is_empty t.q && not t.closed do
        t.sleeping <- t.sleeping + 1;
        Condition.wait t.c t.m;
        t.sleeping <- t.sleeping - 1;
        t.wake_pending <- false
      done;
      let rec sweep n acc =
        if n >= max then List.rev acc
        else
          match t.front with
          | x :: rest ->
              t.front <- rest;
              t.front_len <- t.front_len - 1;
              sweep (n + 1) (x :: acc)
          | [] ->
              if Queue.is_empty t.q then List.rev acc
              else sweep (n + 1) (Queue.pop t.q :: acc)
      in
      sweep 0 [])

let pop t = match pop_batch t ~max:1 with x :: _ -> Some x | [] -> None

(* O(1): admission control calls this per request, and walking [front]
   under the mutex made every submit pay for the redispatch backlog. *)
let length t = Kex_sync.Sync.with_lock t.m (fun () -> t.front_len + Queue.length t.q)

let pushes t = Kex_sync.Sync.with_lock t.m (fun () -> t.pushes)
let wakeups t = Kex_sync.Sync.with_lock t.m (fun () -> t.wakeups)

let close t =
  Kex_sync.Sync.with_lock t.m (fun () ->
      t.closed <- true;
      let leftovers = t.front @ List.of_seq (Queue.to_seq t.q) in
      t.front <- [];
      t.front_len <- 0;
      Queue.clear t.q;
      Condition.broadcast t.c;
      leftovers)
