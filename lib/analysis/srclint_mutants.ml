(* Seeded source-level mutants for srclint — the implementation-side sibling
   of the Op-program Mutants corpus.

   Each mutant is a small, realistic OCaml module with exactly one planted
   concurrency bug, killed ([Finding.verdict]) when its expected check
   fires and no other does: no other check pattern-matches the bug, so a
   regression in one pass cannot hide behind noise from another.
   [test/test_srclint.ml] and [kexd srclint]'s gate check both. *)

(* [path] is a pseudo-path, used for manifest lookup and sites. *)
let mutant ?(manifest = []) m_name m_desc ~path m_expected source =
  { Finding.m_name; m_desc; m_expected;
    m_run = (fun () -> Srclint.lint_source ~manifest ~path source) }

(* S1, raising path: Queue.pop raises Empty between a bare lock/unlock
   pair, leaving the mutex held. *)
let drop_unlock_on_error =
  mutant "drop-unlock-error-path" "bare lock/unlock around Queue.pop; Empty leaks the mutex"
    ~path:"mutants/bare_pop.ml" Finding.S1_lock_leak
    {|
type t = { m : Mutex.t; q : int Queue.t }

let pop t =
  Mutex.lock t.m;
  let x = Queue.pop t.q in
  Mutex.unlock t.m;
  x
|}

(* S1, early-return path: the closed branch returns with the lock held. *)
let lock_no_unlock_branch =
  mutant "early-return-holds-lock" "the t.closed branch returns None without releasing"
    ~path:"mutants/early_return.ml" Finding.S1_lock_leak
    {|
type t = { m : Mutex.t; mutable closed : bool; q : int Queue.t }

let try_pop t =
  Mutex.lock t.m;
  if t.closed then None
  else begin
    let x = Queue.pop t.q in
    Mutex.unlock t.m;
    Some x
  end
|}

(* S2: an if-guarded Condition.wait acts on a stale predicate after a
   spurious or stolen wakeup.  Inside with_lock so only S2 fires. *)
let if_guarded_wait =
  mutant "if-guarded-wait" "Condition.wait guarded by if instead of a while re-check loop"
    ~path:"mutants/if_wait.ml" Finding.S2_wait_no_recheck
    {|
type t = { m : Mutex.t; c : Condition.t; mutable ready : bool }

let await t =
  Sync.with_lock t.m (fun () ->
      if not t.ready then Condition.wait t.c t.m;
      t.ready)
|}

(* S3: a write(2) under the lock stalls every other thread for as long as
   the peer refuses to drain the socket. *)
let write_under_lock =
  mutant "write-under-fence" "Unix.write inside the critical section"
    ~path:"mutants/write_under_lock.ml" Finding.S3_blocking_under_lock
    {|
let flush fd m buf =
  Sync.with_lock m (fun () ->
      let _ = Unix.write fd buf 0 (Bytes.length buf) in
      ())
|}

(* S4: the classic lost update — two bumpers read the same value and one
   increment vanishes. *)
let get_then_set =
  mutant "get-then-set-counter" "Atomic.set of a counter computed from Atomic.get of itself"
    ~path:"mutants/rmw_counter.ml" Finding.S4_nonatomic_rmw
    {|
type t = { hits : int Atomic.t }

let bump t = Atomic.set t.hits (Atomic.get t.hits + 1)
|}

(* S5: the manifest says 'backlog' is guarded by 'm'; the reader skips the
   lock and can see a torn/stale view. *)
let unguarded_read =
  mutant "unguarded-read" "manifest-guarded field read without its lock"
    ~path:"mutants/backlog.ml"
    ~manifest:
      [ Srclint.rules "mutants/backlog.ml"
          ~guards:[ { Srclint.g_lock = "m"; g_fields = [ "backlog" ] } ] ]
    Finding.S5_unguarded_state
    {|
type t = { m : Mutex.t; mutable backlog : int }

let add t n = Sync.with_lock t.m (fun () -> t.backlog <- t.backlog + n)

let depth t = t.backlog
|}

let all =
  [ drop_unlock_on_error; lock_no_unlock_branch; if_guarded_wait; write_under_lock;
    get_then_set; unguarded_read ]
