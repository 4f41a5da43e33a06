(* Seeded source-level mutants for srclint — the implementation-side sibling
   of the Op-program Mutants corpus.

   Each mutant is a small, realistic OCaml module with exactly one planted
   concurrency bug.  The corpus pins two properties, checked by
   [test/test_srclint.ml] and the [--mutants] CLI gate:

   - {e killed}: the mutant's expected check fires ([Finding.kills]);
   - {e exact}: {b only} that check fires — no other check pattern-matches
     the bug, so a regression in one pass cannot hide behind noise from
     another. *)

type t = {
  sm_name : string;
  sm_desc : string;
  sm_path : string;  (* pseudo-path, used for manifest lookup + sites *)
  sm_source : string;
  sm_manifest : Srclint.module_rules list;
  sm_expected : Finding.check;
}

(* S1, raising path: Queue.pop raises Empty between a bare lock/unlock
   pair, leaving the mutex held. *)
let drop_unlock_on_error =
  { sm_name = "drop-unlock-error-path";
    sm_desc = "bare lock/unlock around Queue.pop; Empty leaks the mutex";
    sm_path = "mutants/bare_pop.ml";
    sm_manifest = [];
    sm_expected = Finding.S1_lock_leak;
    sm_source =
      {|
type t = { m : Mutex.t; q : int Queue.t }

let pop t =
  Mutex.lock t.m;
  let x = Queue.pop t.q in
  Mutex.unlock t.m;
  x
|} }

(* S1, early-return path: the closed branch returns with the lock held. *)
let lock_no_unlock_branch =
  { sm_name = "early-return-holds-lock";
    sm_desc = "the t.closed branch returns None without releasing";
    sm_path = "mutants/early_return.ml";
    sm_manifest = [];
    sm_expected = Finding.S1_lock_leak;
    sm_source =
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
|} }

(* S2: an if-guarded Condition.wait acts on a stale predicate after a
   spurious or stolen wakeup.  Inside with_lock so only S2 fires. *)
let if_guarded_wait =
  { sm_name = "if-guarded-wait";
    sm_desc = "Condition.wait guarded by if instead of a while re-check loop";
    sm_path = "mutants/if_wait.ml";
    sm_manifest = [];
    sm_expected = Finding.S2_wait_no_recheck;
    sm_source =
      {|
type t = { m : Mutex.t; c : Condition.t; mutable ready : bool }

let await t =
  Sync.with_lock t.m (fun () ->
      if not t.ready then Condition.wait t.c t.m;
      t.ready)
|} }

(* S3: a write(2) under the lock stalls every other thread for as long as
   the peer refuses to drain the socket. *)
let write_under_lock =
  { sm_name = "write-under-fence";
    sm_desc = "Unix.write inside the critical section";
    sm_path = "mutants/write_under_lock.ml";
    sm_manifest = [];
    sm_expected = Finding.S3_blocking_under_lock;
    sm_source =
      {|
let flush fd m buf =
  Sync.with_lock m (fun () ->
      let _ = Unix.write fd buf 0 (Bytes.length buf) in
      ())
|} }

(* S4: the classic lost update — two bumpers read the same value and one
   increment vanishes. *)
let get_then_set =
  { sm_name = "get-then-set-counter";
    sm_desc = "Atomic.set of a counter computed from Atomic.get of itself";
    sm_path = "mutants/rmw_counter.ml";
    sm_manifest = [];
    sm_expected = Finding.S4_nonatomic_rmw;
    sm_source =
      {|
type t = { hits : int Atomic.t }

let bump t = Atomic.set t.hits (Atomic.get t.hits + 1)
|} }

(* S5: the manifest says 'backlog' is guarded by 'm'; the reader skips the
   lock and can see a torn/stale view. *)
let unguarded_read =
  { sm_name = "unguarded-read";
    sm_desc = "manifest-guarded field read without its lock";
    sm_path = "mutants/backlog.ml";
    sm_manifest =
      [ Srclint.rules "mutants/backlog.ml"
          ~guards:[ { Srclint.g_lock = "m"; g_fields = [ "backlog" ] } ] ];
    sm_expected = Finding.S5_unguarded_state;
    sm_source =
      {|
type t = { m : Mutex.t; mutable backlog : int }

let add t n = Sync.with_lock t.m (fun () -> t.backlog <- t.backlog + n)

let depth t = t.backlog
|} }

let all =
  [ drop_unlock_on_error; lock_no_unlock_branch; if_guarded_wait; write_under_lock;
    get_then_set; unguarded_read ]

let find name = List.find_opt (fun m -> String.equal m.sm_name name) all

let report m = Srclint.lint_source ~manifest:m.sm_manifest ~path:m.sm_path m.sm_source

(* Exact: only the expected check fires. *)
let exact m fr =
  List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.Finding.check) fr.Srclint.fr_findings)
  = [ m.sm_expected ]
