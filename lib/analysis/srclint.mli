(** srclint — source-level concurrency-discipline lint for the OCaml that
    surrounds the simulated algorithms: the service stack under [lib/] and
    [bin/].

    Where the kexlint passes analyze {e Op programs} (the simulator's
    instruction set), srclint parses real [.ml] files with the compiler's
    grammar (via ppxlib's version-pinned Parsetree) and walks each function
    tracking which locks are held.  Five checks:

    - {b S1 lock-leak} — a [Mutex.lock] outside [Sync.with_lock]'s own body
      shape, [Mutex.lock m; match f () with v -> Mutex.unlock m; v
      | exception e -> Mutex.unlock m; raise e] with one [m] throughout.
      Every other mutex acquisition must go through [with_lock].
    - {b S2 wait-without-recheck} — [Condition.wait] not inside a while
      loop.
    - {b S3 blocking-under-lock} — a blocking syscall reachable while a
      mutex is held: inside a [with_lock]/[Mutex.protect] call, a manifest
      wrapper, or the [with_lock] shape's body.
    - {b S4 non-atomic RMW} — [Atomic.set a (… Atomic.get a …)], directly
      or through a let-binding: the lost-update shape.
    - {b S5 unguarded shared state} — access to a field the guarded-by
      manifest assigns to a lock, without that lock held; a mutex in a
      manifest-declared atomic-only module; or, in a manifest-declared
      I/O-free module, a [Reactor], [Netio] or [Protocol] name or a [Unix]
      socket call.

    Findings flow through the shared {!Finding} type.  srclint has no
    waivers: every finding has [waived = false].  A file that fails to parse
    yields an {!Finding.A_incomplete} so [--require-clean] stays honest. *)

(** {1 Guarded-by manifest} *)

type guard = { g_lock : string; g_fields : string list }
(** [g_lock] is the lock field's name (last component: [t.m] keys as ["m"]);
    [g_fields] the mutable record fields it protects. *)

type wrapper = { wr_fn : string; wr_lock : string }
(** A module-local locking combinator: calls to [wr_fn] run their function
    argument with [wr_lock] held (e.g. routing's [locked]). *)

type module_rules = {
  mr_file : string;  (** path suffix this entry applies to *)
  mr_guards : guard list;
  mr_wrappers : wrapper list;
  mr_atomic_only : bool;
      (** the module promises to synchronize with atomics only; any
          [Mutex]/[Condition] use is an S5 finding *)
  mr_io_free : bool;
      (** the module promises to do no I/O: any path into [Reactor],
          [Netio] or [Protocol] (identifier, constructor, type, [open] or
          alias) and any [Unix] socket call is an S5 finding *)
}

val rules :
  ?guards:guard list ->
  ?wrappers:wrapper list ->
  ?atomic_only:bool ->
  ?io_free:bool ->
  string ->
  module_rules

val default_manifest : module_rules list
(** The guarded-by manifest for this repository — the machine-readable
    counterpart of DESIGN.md's "Threading model & lock discipline". *)

val rules_for : module_rules list -> string -> module_rules option

(** {1 Reports} *)

type file_report = {
  fr_path : string;
  fr_findings : Finding.t list;  (** sorted by line *)
  fr_locks : int;  (** lock acquisitions seen (bare, combinator, wrapper) *)
  fr_waits : int;  (** [Condition.wait] sites *)
  fr_atomics : int;  (** [Atomic.*] applications *)
}

val file_clean : file_report -> bool

val clean : file_report list -> bool
(** No finding in any file. *)

(** {1 Entry points} *)

val lint_source : ?manifest:module_rules list -> path:string -> string -> file_report
(** Lint OCaml source text.  [path] selects the manifest entry and prefixes
    finding sites. *)

val lint_file : ?manifest:module_rules list -> string -> file_report

val scan : ?manifest:module_rules list -> ?root:string -> ?roots:string list -> unit -> file_report list
(** Lint every discovered file; [fr_path] is root-relative. *)
