(** The one blessed way to hold a [Mutex.t] in this codebase.

    Every lock acquisition in [lib/] and [bin/] goes through [with_lock].
    Bare [Mutex.lock]/[Mutex.unlock] pairs leak the lock the moment anything
    between them raises or returns early — the S1 check of [kexd srclint]
    flags every bare [Mutex.lock], and this combinator is the fix it
    prescribes.

    The one bare lock S1 accepts is the head of this combinator's own body:
    [Mutex.lock m; match f () with v -> Mutex.unlock m; v | exception e ->
    Mutex.unlock m; raise e], with the same [m] in all three places. *)

val with_lock : Mutex.t -> (unit -> 'a) -> 'a
(** [with_lock m f] runs [f ()] with [m] held and releases [m] whether [f]
    returns or raises.  [Condition.wait c m] may be used inside [f] (it
    releases and reacquires [m] itself); keep the classic while-loop
    re-check around it — srclint's S2 pass insists. *)
