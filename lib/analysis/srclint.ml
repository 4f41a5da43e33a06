(* srclint: source-level concurrency-discipline lint for the real service
   stack (lib/ and bin/), the implementation-side sibling of the Op-program
   kexlint passes.

   kexlint guards the *simulated* algorithms; srclint guards the OCaml that
   surrounds them in production — the admission wrapper's host service, the
   cluster routing table, the metrics plane.  It parses every .ml file with
   the compiler's own grammar (via ppxlib's version-pinned Parsetree, so the
   analyzer builds identically across compiler releases) and walks each
   function body with a small path-sensitive interpreter of lock state:

   - S1 lock-leak: a [Mutex.lock m] with some raising or early-return path
     on which no matching [Mutex.unlock m] runs.  The walker recognizes the
     three exception-safe shapes ([Sync.with_lock]-style combinators,
     [Fun.protect ~finally:unlock], and the explicit match-with-exception
     try-finally) and otherwise requires the bare region between lock and
     unlock to be provably non-raising on every path.
   - S2 wait-without-recheck: a [Condition.wait] not enclosed in a while
     loop.  Wakeups are advisory; an if-guarded wait acts on a stale
     predicate.
   - S3 blocking-under-lock: a blocking syscall (Unix read/write/select/
     connect/accept/sleep, Thread.delay, Thread.join, Domain.join, Netio
     read/write_all) syntactically reachable while any mutex is held.
   - S4 non-atomic RMW: [Atomic.set a v] where [v] derives from
     [Atomic.get a] — directly nested, or through a let-binding in scope —
     the get-then-set lost-update shape.
   - S5 unguarded shared state: an access to mutable state that the
     per-module guarded-by manifest assigns to a lock, made without that
     lock held; plus manifest-declared atomic-only modules that use a
     mutex after all.

   Waivers: a finding whose site carries an [@srclint.allow S3]-style
   attribute (expression, binding, or [@@@...] file level) or matches a
   manifest waiver entry is reported with [waived = true] — in the JSON and
   the table, never silently dropped.

   The analysis is per-function (intra-procedural) and syntactic: it knows
   nothing about aliasing, and identifies locks and atomics by their printed
   source text.  That is exactly enough for the discipline this codebase
   commits to — every acquisition through one combinator, every condition
   wait in a while loop, every guarded field named in the manifest — and the
   seeded-mutant corpus (Srclint_mutants) pins that each check still kills
   its bug class. *)

open Ppxlib

(* ------------------------------ manifest ------------------------------- *)

type guard = { g_lock : string; g_fields : string list }
type wrapper = { wr_fn : string; wr_lock : string }
type waiver = { wv_check : Finding.check; wv_site : string }

type module_rules = {
  mr_file : string;  (* path suffix, e.g. "lib/service/wqueue.ml" *)
  mr_guards : guard list;
  mr_wrappers : wrapper list;  (* local fn name -> lock field it takes *)
  mr_atomic_only : bool;  (* module promises to use no Mutex/Condition *)
  mr_waivers : waiver list;
}

let rules ?(guards = []) ?(wrappers = []) ?(atomic_only = false) ?(waivers = []) file =
  { mr_file = file;
    mr_guards = guards;
    mr_wrappers = wrappers;
    mr_atomic_only = atomic_only;
    mr_waivers = waivers }

(* The guarded-by manifest for this repository: which mutable state each
   lock protects, which local helpers are lock wrappers, and which modules
   promise to be atomic-only.  DESIGN.md "Threading model & lock discipline"
   is the prose inventory this table encodes. *)
let default_manifest =
  [ rules "lib/service/wqueue.ml"
      ~guards:
        [ { g_lock = "m";
            g_fields =
              [ "front"; "front_len"; "q"; "closed"; "sleeping"; "wake_pending"; "pushes";
                "wakeups" ] } ]
      ~wrappers:[ { wr_fn = "locked"; wr_lock = "m" } ];
    rules "lib/service/server.ml"
      ~guards:
        [ { g_lock = "conns_m"; g_fields = [ "conns" ] };
          { g_lock = "sh_fence_m"; g_fields = [ "sh_fenced" ] };
          { g_lock = "morgue_m"; g_fields = [ "morgue_open" ] };
          { g_lock = "workers_m"; g_fields = [ "worker_domains" ] } ];
    rules "lib/cluster/routing.ml"
      ~guards:[ { g_lock = "m"; g_fields = [ "epoch"; "owners" ] } ]
      ~wrappers:[ { wr_fn = "locked"; wr_lock = "m" } ];
    rules "lib/resilient/history.ml"
      ~guards:[ { g_lock = "lock"; g_fields = [ "recorded" ] } ];
    rules "lib/service/metrics.ml" ~atomic_only:true;
    rules "lib/service/reactor.ml" ~atomic_only:true ]

let norm_path p = String.concat "/" (String.split_on_char '\\' p)

let rules_for manifest path =
  let path = norm_path path in
  List.find_opt
    (fun r ->
      String.equal path r.mr_file
      || String.ends_with ~suffix:("/" ^ r.mr_file) path
      || String.ends_with ~suffix:r.mr_file path)
    manifest

(* --------------------------- identifier helpers ------------------------- *)

let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> strip e
  | _ -> e

(* Textual identity of a lock/atomic expression — the analysis's notion of
   "the same cell".  Whitespace-squashed Pprintast output. *)
let render e =
  let s = Pprintast.string_of_expression (strip e) in
  String.concat " "
    (List.filter
       (fun w -> w <> "")
       (String.split_on_char ' ' (String.map (function '\n' | '\t' -> ' ' | c -> c) s)))

let flat_of f =
  match (strip f).pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match Longident.flatten_exn txt with
      | parts -> String.concat "." parts
      | exception _ -> "")
  | _ -> ""

let fn_matches flat name =
  String.equal flat name || String.ends_with ~suffix:("." ^ name) flat

let last_component flat =
  match String.rindex_opt flat '.' with
  | None -> flat
  | Some i -> String.sub flat (i + 1) (String.length flat - i - 1)

(* The manifest names a guard by the last field/ident of the lock
   expression: [t.m] and [sh.sh_fence_m] key as "m" and "sh_fence_m". *)
let rec guard_key e =
  match (strip e).pexp_desc with
  | Pexp_field (_, { txt; _ }) -> ( try Some (Longident.last_exn txt) with _ -> None)
  | Pexp_ident { txt; _ } -> ( try Some (Longident.last_exn txt) with _ -> None)
  | Pexp_apply (f, args) when fn_matches (flat_of f) "Array.get" -> (
      match args with (_, a) :: _ -> guard_key a | [] -> None)
  | _ -> None

let is_with_lock_name flat =
  String.equal (last_component flat) "with_lock" || String.equal flat "Mutex.protect"

let blocking_fns =
  [ "Unix.read"; "Unix.write"; "Unix.single_write"; "Unix.select"; "Unix.connect";
    "Unix.accept"; "Unix.sleep"; "Unix.sleepf"; "Unix.recv"; "Unix.send"; "Thread.delay";
    "Thread.join"; "Domain.join"; "Netio.read"; "Netio.write_all" ]

(* Applications that cannot raise — the only calls allowed inside a *bare*
   lock/unlock region (everything else must go through with_lock).  Kept
   deliberately small: growing it weakens S1. *)
let no_raise_fns =
  [ "Mutex.lock"; "Mutex.unlock"; "Condition.wait"; "Condition.signal"; "Condition.broadcast";
    "Atomic.get"; "Atomic.set"; "Atomic.incr"; "Atomic.decr"; "Atomic.exchange";
    "Atomic.compare_and_set"; "Atomic.fetch_and_add"; "Domain.cpu_relax"; "Queue.push";
    "Queue.add"; "Queue.is_empty"; "Queue.length"; "Queue.clear"; "List.rev"; "List.length";
    "Array.length"; "Option.is_none"; "Option.is_some"; "not"; "ignore"; "ref"; "incr";
    "decr"; "fst"; "snd"; "min"; "max"; "abs"; "succ"; "pred"; "+"; "-"; "*"; "+."; "-.";
    "*."; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr"; "="; "<>"; "<"; ">"; "<="; ">="; "==";
    "!="; "&&"; "||"; "@"; "^"; "!"; ":=" ]

let is_no_raise flat = List.exists (fn_matches flat) no_raise_fns
let is_blocking flat = List.exists (fn_matches flat) blocking_fns

(* May evaluating [e] raise?  Conservative: any application outside the
   no-raise list may. *)
let rec may_raise e =
  match (strip e).pexp_desc with
  | Pexp_constant _ | Pexp_ident _ | Pexp_function _ | Pexp_unreachable -> false
  | Pexp_field (b, _) -> may_raise b
  | Pexp_setfield (b, _, v) -> may_raise b || may_raise v
  | Pexp_tuple es | Pexp_array es -> List.exists may_raise es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
      match arg with Some a -> may_raise a | None -> false)
  | Pexp_record (fields, base) ->
      List.exists (fun (_, v) -> may_raise v) fields
      || (match base with Some b -> may_raise b | None -> false)
  | Pexp_ifthenelse (c, a, b) -> (
      may_raise c || may_raise a || match b with Some b -> may_raise b | None -> false)
  | Pexp_sequence (a, b) -> may_raise a || may_raise b
  | Pexp_let (_, vbs, b) -> List.exists (fun vb -> may_raise vb.pvb_expr) vbs || may_raise b
  | Pexp_while (c, b) -> may_raise c || may_raise b
  | Pexp_match (s, cases) ->
      may_raise s || List.exists (fun c -> may_raise c.pc_rhs) cases
  | Pexp_try (_, cases) ->
      (* the handler catches the body; only a raising handler escapes *)
      List.exists (fun c -> may_raise c.pc_rhs) cases
  | Pexp_lazy _ -> false
  | Pexp_assert _ -> true
  | Pexp_apply (f, args) ->
      let flat = flat_of f in
      if is_no_raise flat then List.exists (fun (_, a) -> may_raise a) args else true
  | _ -> true

(* ------------------------------- findings ------------------------------- *)

type stats = { mutable st_locks : int; mutable st_waits : int; mutable st_atomics : int }

type ctx = {
  cx_file : string;
  cx_rules : module_rules option;
  mutable cx_global_waived : Finding.check list;  (* [@@@srclint.allow ...] *)
  cx_seen : (string * string, unit) Hashtbl.t;  (* (check id, site) dedup *)
  mutable cx_findings : Finding.t list;
  cx_stats : stats;
}

type env = {
  held : (string option * string option) list;  (* (render, manifest key) *)
  in_while : bool;
  waived : Finding.check list;
  fname : string;
  abinds : (string * string) list;  (* var -> render of Atomic.get argument *)
}

let base_env fname = { held = []; in_while = false; waived = []; fname; abinds = [] }
let push_held env lk = { env with held = lk :: env.held }
let held_any env = env.held <> []
let held_key env k = List.exists (fun (_, key) -> key = Some k) env.held

let site_of ctx (loc : Location.t) = Printf.sprintf "%s:%d" ctx.cx_file loc.loc_start.pos_lnum

let waived_by_manifest ctx check ~fname ~site =
  match ctx.cx_rules with
  | None -> false
  | Some r ->
      List.exists
        (fun w ->
          w.wv_check = check
          && (w.wv_site = ""
             || (fname <> ""
                && (String.equal w.wv_site fname
                   || String.length w.wv_site <= String.length fname
                      && String.ends_with ~suffix:w.wv_site fname))
             || String.ends_with ~suffix:w.wv_site site))
        r.mr_waivers

let emit ctx env check ~loc ~detail ~witness =
  let site = site_of ctx loc in
  let key = (Finding.id check, site) in
  if not (Hashtbl.mem ctx.cx_seen key) then begin
    Hashtbl.add ctx.cx_seen key ();
    let waived =
      List.mem check env.waived
      || List.mem check ctx.cx_global_waived
      || waived_by_manifest ctx check ~fname:env.fname ~site
    in
    let detail = if env.fname = "" then detail else Printf.sprintf "in %s: %s" env.fname detail in
    ctx.cx_findings <-
      { Finding.check; site; pid = None; detail; waived; witness } :: ctx.cx_findings
  end

(* ------------------------- attribute waivers ---------------------------- *)

let check_of_token tok =
  let tok = String.lowercase_ascii tok in
  match tok with
  | "s1" -> Some Finding.S1_lock_leak
  | "s2" -> Some Finding.S2_wait_no_recheck
  | "s3" -> Some Finding.S3_blocking_under_lock
  | "s4" -> Some Finding.S4_nonatomic_rmw
  | "s5" -> Some Finding.S5_unguarded_state
  | _ -> (
      match Finding.check_of_id tok with
      | Some c -> Some c
      | None ->
          (* full ids are matched case-insensitively too *)
          List.find_opt
            (fun c -> String.lowercase_ascii (Finding.id c) = tok)
            Finding.all_checks)

let rec checks_of_payload_expr e acc =
  match (strip e).pexp_desc with
  | Pexp_construct ({ txt; _ }, None) | Pexp_ident { txt; _ } -> (
      match check_of_token (try Longident.last_exn txt with _ -> "") with
      | Some c -> c :: acc
      | None -> acc)
  | Pexp_constant (Pconst_string (s, _, _)) -> (
      match check_of_token s with Some c -> c :: acc | None -> acc)
  | Pexp_tuple es -> List.fold_left (fun acc e -> checks_of_payload_expr e acc) acc es
  | Pexp_apply (f, args) ->
      (* [S3 S4] parses as an application of constructors *)
      List.fold_left
        (fun acc (_, a) -> checks_of_payload_expr a acc)
        (checks_of_payload_expr f acc)
        args
  | _ -> acc

let attr_waivers attrs =
  List.concat_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "srclint.allow" then []
      else
        match a.attr_payload with
        | PStr items ->
            List.concat_map
              (fun it ->
                match it.pstr_desc with
                | Pstr_eval (e, _) -> checks_of_payload_expr e []
                | _ -> [])
              items
        | _ -> [])
    attrs

(* ------------------------------ the walker ------------------------------ *)

let unlabeled args = List.filter_map (fun (l, a) -> if l = Nolabel then Some a else None) args

(* The body expressions of a literal [fun ... -> e] argument. *)
let fun_bodies e =
  match (strip e).pexp_desc with
  | Pexp_function (_, _, Pfunction_body b) -> Some [ b ]
  | Pexp_function (_, _, Pfunction_cases (cases, _, _)) ->
      Some (List.map (fun c -> c.pc_rhs) cases)
  | _ -> None

let is_unlock_of lrender e =
  match (strip e).pexp_desc with
  | Pexp_apply (f, args) when fn_matches (flat_of f) "Mutex.unlock" -> (
      match unlabeled args with [ a ] -> String.equal (render a) lrender | _ -> false)
  | _ -> false

let rec contains_unlock lrender e =
  is_unlock_of lrender e
  ||
  match (strip e).pexp_desc with
  | Pexp_sequence (a, b) -> contains_unlock lrender a || contains_unlock lrender b
  | Pexp_let (_, vbs, b) ->
      List.exists (fun vb -> contains_unlock lrender vb.pvb_expr) vbs
      || contains_unlock lrender b
  | Pexp_ifthenelse (c, a, b) ->
      contains_unlock lrender c || contains_unlock lrender a
      || (match b with Some b -> contains_unlock lrender b | None -> false)
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
      contains_unlock lrender s || List.exists (fun c -> contains_unlock lrender c.pc_rhs) cases
  | Pexp_apply (f, args) ->
      contains_unlock lrender f || List.exists (fun (_, a) -> contains_unlock lrender a) args
  | Pexp_function (_, _, Pfunction_body b) -> contains_unlock lrender b
  | Pexp_function (_, _, Pfunction_cases (cases, _, _)) ->
      List.exists (fun c -> contains_unlock lrender c.pc_rhs) cases
  | Pexp_while (c, b) -> contains_unlock lrender c || contains_unlock lrender b
  | Pexp_tuple es -> List.exists (contains_unlock lrender) es
  | _ -> false

(* Does every straight-line path through [e] release [lrender]? *)
let rec spine_unlocks lrender e =
  is_unlock_of lrender e
  ||
  match (strip e).pexp_desc with
  | Pexp_sequence (a, b) -> is_unlock_of lrender a || spine_unlocks lrender b
  | Pexp_let (_, _, b) -> spine_unlocks lrender b
  | Pexp_ifthenelse (_, a, Some b) -> spine_unlocks lrender a && spine_unlocks lrender b
  | Pexp_match (_, cases) -> cases <> [] && List.for_all (fun c -> spine_unlocks lrender c.pc_rhs) cases
  | _ -> false

let is_exception_case c =
  match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false

(* [Fun.protect ~finally:(fun () -> Mutex.unlock m) body]: return the
   unlocked mutex's render plus the guarded body. *)
let protect_unlock args =
  let fin = List.assoc_opt (Labelled "finally") args in
  let body = match unlabeled args with [ b ] -> Some b | _ -> None in
  match (fin, body) with
  | Some fin, Some body -> (
      match fun_bodies fin with
      | Some [ fe ] -> (
          match (strip fe).pexp_desc with
          | Pexp_apply (f, fargs) when fn_matches (flat_of f) "Mutex.unlock" -> (
              match unlabeled fargs with [ m ] -> Some (render m, guard_key m, body) | _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

let occurs var e =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_ident { txt = Lident v; _ } when String.equal v var -> found := true
        | _ -> ());
        super#expression e
    end
  in
  it#expression e;
  !found

let contains_atomic_get ra e =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_apply (f, args) when fn_matches (flat_of f) "Atomic.get" -> (
            match unlabeled args with
            | [ a ] when String.equal (render a) ra -> found := true
            | _ -> ())
        | _ -> ());
        super#expression e
    end
  in
  it#expression e;
  !found

let snippet e =
  let s = render e in
  if String.length s > 72 then String.sub s 0 69 ^ "..." else s

let rec walk ctx env e =
  let env =
    match attr_waivers e.pexp_attributes with
    | [] -> env
    | ws -> { env with waived = ws @ env.waived }
  in
  match e.pexp_desc with
  | Pexp_apply (f, args) -> handle_apply ctx env e f args
  | Pexp_sequence (a, b) -> (
      match lock_arg a with
      | Some m ->
          ctx.cx_stats.st_locks <- ctx.cx_stats.st_locks + 1;
          after_lock ctx env (render m, guard_key m, a.pexp_loc) b
      | None ->
          walk ctx env a;
          walk ctx env b)
  | Pexp_let (_, vbs, body) ->
      List.iter (fun vb -> walk ctx env vb.pvb_expr) vbs;
      walk ctx (extend_abinds env vbs) body
  | Pexp_while (c, b) ->
      walk ctx env c;
      walk ctx { env with in_while = true } b
  | Pexp_for (_, a, b, _, body) ->
      walk ctx env a;
      walk ctx env b;
      walk ctx env body
  | Pexp_ifthenelse (c, a, b) ->
      walk ctx env c;
      walk ctx env a;
      Option.iter (walk ctx env) b
  | Pexp_match (s, cases) | Pexp_try (s, cases) ->
      walk ctx env s;
      List.iter
        (fun c ->
          Option.iter (walk ctx env) c.pc_guard;
          walk ctx env c.pc_rhs)
        cases
  | Pexp_function (_, _, Pfunction_body b) -> walk ctx env b
  | Pexp_function (_, _, Pfunction_cases (cases, _, _)) ->
      List.iter (fun c -> walk ctx env c.pc_rhs) cases
  | Pexp_field (b, lid) ->
      s5_access ctx env e.pexp_loc lid "read";
      walk ctx env b
  | Pexp_setfield (b, lid, v) ->
      s5_access ctx env e.pexp_loc lid "write";
      walk ctx env b;
      walk ctx env v
  | Pexp_tuple es | Pexp_array es -> List.iter (walk ctx env) es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> Option.iter (walk ctx env) arg
  | Pexp_record (fields, base) ->
      List.iter (fun (_, v) -> walk ctx env v) fields;
      Option.iter (walk ctx env) base
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) | Pexp_lazy e
  | Pexp_newtype (_, e) | Pexp_assert e ->
      walk ctx env e
  | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e) -> walk ctx env e
  | Pexp_letop { let_; ands; body; _ } ->
      walk ctx env let_.pbop_exp;
      List.iter (fun a -> walk ctx env a.pbop_exp) ands;
      walk ctx env body
  | _ -> ()

(* [Mutex.lock m] — returns the lock expression. *)
and lock_arg a =
  match (strip a).pexp_desc with
  | Pexp_apply (f, args) when fn_matches (flat_of f) "Mutex.lock" -> (
      match unlabeled args with [ m ] -> Some m | _ -> None)
  | _ -> None

and extend_abinds env vbs =
  List.fold_left
    (fun env vb ->
      match (vb.pvb_pat.ppat_desc, (strip vb.pvb_expr).pexp_desc) with
      | Ppat_var { txt; _ }, Pexp_apply (f, args) when fn_matches (flat_of f) "Atomic.get" -> (
          match unlabeled args with
          | [ a ] -> { env with abinds = (txt, render a) :: env.abinds }
          | _ -> env)
      | _ -> env)
    env vbs

and s5_access ctx env loc (lid : Longident.t loc) kind =
  match ctx.cx_rules with
  | None -> ()
  | Some r -> (
      match try Some (Longident.last_exn lid.txt) with _ -> None with
      | None -> ()
      | Some field -> (
          match List.find_opt (fun g -> List.mem field g.g_fields) r.mr_guards with
          | Some g when not (held_key env g.g_lock) ->
              emit ctx env Finding.S5_unguarded_state ~loc
                ~detail:
                  (Printf.sprintf
                     "%s of field '%s' without holding '%s' (guarded-by manifest for %s)" kind
                     field g.g_lock r.mr_file)
                ~witness:
                  [ Printf.sprintf "manifest: '%s' guards [%s]" g.g_lock
                      (String.concat "; " g.g_fields) ]
          | _ -> ()))

and handle_apply ctx env e f args =
  let flat = flat_of f in
  if String.length flat >= 7 && String.sub flat 0 7 = "Atomic." then
    ctx.cx_stats.st_atomics <- ctx.cx_stats.st_atomics + 1;
  (* atomic-only modules must not touch Mutex/Condition at all *)
  (match ctx.cx_rules with
  | Some r
    when r.mr_atomic_only
         && (fn_matches flat "Mutex.lock" || fn_matches flat "Mutex.unlock"
            || fn_matches flat "Mutex.create"
            || (String.length flat >= 10 && String.sub flat 0 10 = "Condition.")
            || is_with_lock_name flat) ->
      emit ctx env Finding.S5_unguarded_state ~loc:e.pexp_loc
        ~detail:
          (Printf.sprintf "'%s' used in a module the manifest declares atomic-only" flat)
        ~witness:[]
  | _ -> ());
  (* S2: condition waits must sit inside a while re-check loop *)
  if fn_matches flat "Condition.wait" then begin
    ctx.cx_stats.st_waits <- ctx.cx_stats.st_waits + 1;
    if not env.in_while then
      emit ctx env Finding.S2_wait_no_recheck ~loc:e.pexp_loc
        ~detail:
          "Condition.wait outside a while loop — wakeups are advisory, the predicate must \
           be re-checked on a loop"
        ~witness:[ snippet e ]
  end;
  (* S3: blocking syscalls while any lock is held *)
  if held_any env && is_blocking flat then
    emit ctx env Finding.S3_blocking_under_lock ~loc:e.pexp_loc
      ~detail:
        (Printf.sprintf "blocking call '%s' while holding %s" flat
           (String.concat ", "
              (List.map
                 (fun (r, k) ->
                   match (r, k) with
                   | Some r, _ -> "'" ^ r ^ "'"
                   | None, Some k -> "'" ^ k ^ "' (via wrapper)"
                   | None, None -> "a lock")
                 env.held)))
      ~witness:[ snippet e ];
  (* S4: get-then-set on the same atomic *)
  (if fn_matches flat "Atomic.set" then
     match unlabeled args with
     | [ a; v ] ->
         let ra = render a in
         if contains_atomic_get ra v then
           emit ctx env Finding.S4_nonatomic_rmw ~loc:e.pexp_loc
             ~detail:
               (Printf.sprintf
                  "Atomic.set %s computes its value from Atomic.get %s — lost-update RMW; \
                   use a CAS loop or fetch_and_add"
                  ra ra)
             ~witness:[ snippet e ]
         else
           List.iter
             (fun (var, rb) ->
               if String.equal rb ra && occurs var v then
                 emit ctx env Finding.S4_nonatomic_rmw ~loc:e.pexp_loc
                   ~detail:
                     (Printf.sprintf
                        "Atomic.set %s uses '%s' bound earlier from Atomic.get %s — \
                         get-then-set RMW; another writer may have intervened"
                        ra var ra)
                   ~witness:[ snippet e ])
             env.abinds
     | _ -> ());
  (* lock-structure recognition *)
  let wrapper_of flat =
    match ctx.cx_rules with
    | None -> None
    | Some r -> List.find_opt (fun w -> String.equal (last_component flat) w.wr_fn) r.mr_wrappers
  in
  if is_with_lock_name flat then begin
    ctx.cx_stats.st_locks <- ctx.cx_stats.st_locks + 1;
    match unlabeled args with
    | [ m; fn ] -> (
        walk ctx env m;
        match fun_bodies fn with
        | Some bodies ->
            List.iter (walk ctx (push_held env (Some (render m), guard_key m))) bodies
        | None -> walk ctx env fn)
    | args -> List.iter (walk ctx env) args
  end
  else
    match wrapper_of flat with
    | Some w ->
        ctx.cx_stats.st_locks <- ctx.cx_stats.st_locks + 1;
        List.iter
          (fun (_, a) ->
            match fun_bodies a with
            | Some bodies -> List.iter (walk ctx (push_held env (None, Some w.wr_lock))) bodies
            | None -> walk ctx env a)
          args
    | None -> (
        match protect_unlock args with
        | Some (lrender, lkey, body) when fn_matches flat "Fun.protect" ->
            ctx.cx_stats.st_locks <- ctx.cx_stats.st_locks + 1;
            let env' = push_held env (Some lrender, lkey) in
            List.iter (walk ctx env') (Option.value ~default:[ body ] (fun_bodies body))
        | _ ->
            if fn_matches flat "Mutex.lock" then begin
              (* a lock srclint's sequence handling did not consume: nothing
                 downstream can be proven to release it *)
              ctx.cx_stats.st_locks <- ctx.cx_stats.st_locks + 1;
              emit ctx env Finding.S1_lock_leak ~loc:e.pexp_loc
                ~detail:
                  (Printf.sprintf
                     "Mutex.lock %s in a position where no release path is visible (wrap the \
                      critical section in Sync.with_lock)"
                     (match unlabeled args with [ m ] -> render m | _ -> "<lock>"))
                ~witness:[ snippet e ]
            end;
            walk ctx env f;
            List.iter (fun (_, a) -> walk ctx env a) args)

(* Straight-line scan of the region between [Mutex.lock] and its matching
   unlock.  [lk = (render, key, lock loc)].  Every statement in the region
   must be provably non-raising (S1); the walk continues with the lock held
   so S2/S3/S4/S5 see it. *)
and after_lock ctx env ((lrender, lkey, lloc) as lk) rest =
  let held_env = push_held env (Some lrender, lkey) in
  let region_stmt a =
    if may_raise a then
      emit ctx env Finding.S1_lock_leak ~loc:a.pexp_loc
        ~detail:
          (Printf.sprintf
             "'%s' may raise while '%s' is held with no handler to release it — wrap the \
              region in Sync.with_lock"
             (snippet a) lrender)
        ~witness:
          [ Printf.sprintf "Mutex.lock %s at line %d" lrender lloc.loc_start.pos_lnum;
            Printf.sprintf "raising path through: %s" (snippet a) ];
    walk ctx held_env a
  in
  let rest' = strip rest in
  match rest'.pexp_desc with
  | Pexp_sequence (a, b) when is_unlock_of lrender a -> walk ctx env b
  | Pexp_sequence (a, b) when contains_unlock lrender a ->
      (* a statement (if/match/Fun.protect) that releases on its internal
         paths; scan it branch-wise, then continue released *)
      after_lock ctx env lk a;
      walk ctx env b
  | Pexp_sequence (a, b) ->
      region_stmt a;
      after_lock ctx env lk b
  | Pexp_let (_, vbs, b) ->
      List.iter (fun vb -> region_stmt vb.pvb_expr) vbs;
      after_lock ctx (extend_abinds env vbs) lk b
  | _ when is_unlock_of lrender rest' -> ()
  | Pexp_match (scrut, cases)
    when List.exists is_exception_case cases
         && cases <> []
         && List.for_all (fun c -> spine_unlocks lrender c.pc_rhs) cases ->
      (* the explicit try-finally: both the value and the exception
         continuation release, so the scrutinee runs protected *)
      walk ctx held_env scrut;
      List.iter (fun c -> after_lock ctx env lk c.pc_rhs) cases
  | Pexp_match (scrut, cases)
    when cases <> [] && List.for_all (fun c -> spine_unlocks lrender c.pc_rhs) cases ->
      (* every branch releases, but a raise inside the scrutinee escapes *)
      region_stmt scrut;
      List.iter (fun c -> after_lock ctx env lk c.pc_rhs) cases
  | Pexp_ifthenelse (c, th, el) -> (
      region_stmt c;
      after_lock ctx env lk th;
      match el with
      | Some e -> after_lock ctx env lk e
      | None ->
          emit ctx env Finding.S1_lock_leak ~loc:rest'.pexp_loc
            ~detail:
              (Printf.sprintf
                 "if-branch without else leaves '%s' held when the condition is false" lrender)
            ~witness:[ Printf.sprintf "Mutex.lock %s at line %d" lrender lloc.loc_start.pos_lnum ])
  | Pexp_apply (f, args) when fn_matches (flat_of f) "Fun.protect" -> (
      match protect_unlock args with
      | Some (pr, pk, body) when String.equal pr lrender ->
          let env' = push_held env (Some pr, pk) in
          List.iter (walk ctx env') (Option.value ~default:[ body ] (fun_bodies body));
          ignore pk
      | _ ->
          region_stmt rest';
          emit_exit ctx env lk rest')
  | _ ->
      walk ctx held_env rest';
      emit_exit ctx env lk rest'

and emit_exit ctx env (lrender, _, lloc) rest =
  emit ctx env Finding.S1_lock_leak ~loc:rest.pexp_loc
    ~detail:
      (Printf.sprintf
         "path reaches the end of the function with '%s' still held (no matching \
          Mutex.unlock)"
         lrender)
    ~witness:
      [ Printf.sprintf "Mutex.lock %s at line %d" lrender lloc.loc_start.pos_lnum;
        Printf.sprintf "path ends at: %s" (snippet rest) ]

(* --------------------------- structure walking -------------------------- *)

let binding_name vb =
  let rec pat_name p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> txt
    | Ppat_constraint (p, _) -> pat_name p
    | _ -> ""
  in
  pat_name vb.pvb_pat

let walk_structure ctx str =
  let rec item it =
    match it.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let env = base_env (binding_name vb) in
            let env = { env with waived = attr_waivers vb.pvb_attributes } in
            walk ctx env vb.pvb_expr)
          vbs
    | Pstr_eval (e, _) -> walk ctx (base_env "") e
    | Pstr_module mb -> module_expr mb.pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> module_expr mb.pmb_expr) mbs
    | Pstr_attribute a -> ctx.cx_global_waived <- attr_waivers [ a ] @ ctx.cx_global_waived
    | _ -> ()
  and module_expr me =
    match me.pmod_desc with
    | Pmod_structure s -> List.iter item s
    | Pmod_functor (_, me) | Pmod_constraint (me, _) -> module_expr me
    | _ -> ()
  in
  List.iter item str

(* ------------------------------ entry points ---------------------------- *)

type file_report = {
  fr_path : string;
  fr_findings : Finding.t list;
  fr_locks : int;
  fr_waits : int;
  fr_atomics : int;
}

let violations fr = List.filter (fun (f : Finding.t) -> not f.Finding.waived) fr.fr_findings
let file_clean fr = violations fr = []
let clean frs = List.for_all file_clean frs

let finding_line (f : Finding.t) =
  match String.rindex_opt f.Finding.site ':' with
  | Some i -> (
      match int_of_string_opt (String.sub f.Finding.site (i + 1) (String.length f.Finding.site - i - 1)) with
      | Some n -> n
      | None -> 0)
  | None -> 0

let lint_source ?(manifest = default_manifest) ~path code =
  let ctx =
    { cx_file = norm_path path;
      cx_rules = rules_for manifest path;
      cx_global_waived = [];
      cx_seen = Hashtbl.create 16;
      cx_findings = [];
      cx_stats = { st_locks = 0; st_waits = 0; st_atomics = 0 } }
  in
  (match
     let lexbuf = Lexing.from_string code in
     Lexing.set_filename lexbuf path;
     Parse.implementation lexbuf
   with
  | str -> walk_structure ctx str
  | exception e ->
      ctx.cx_findings <-
        [ { Finding.check = Finding.A_incomplete;
            site = ctx.cx_file;
            pid = None;
            detail = "source could not be parsed: " ^ Printexc.to_string e;
            waived = false;
            witness = [] } ]);
  { fr_path = ctx.cx_file;
    fr_findings =
      List.sort
        (fun a b -> compare (finding_line a) (finding_line b))
        (List.rev ctx.cx_findings);
    fr_locks = ctx.cx_stats.st_locks;
    fr_waits = ctx.cx_stats.st_waits;
    fr_atomics = ctx.cx_stats.st_atomics }

let lint_file ?manifest path =
  let ic = open_in_bin path in
  let code =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  lint_source ?manifest ~path code

(* Every .ml under [roots] (default lib/ and bin/ beneath [root]), sorted,
   skipping build and hidden directories. *)
let discover ?(root = ".") ?(roots = [ "lib"; "bin" ]) () =
  let acc = ref [] in
  let skip_dir name =
    String.length name = 0 || name.[0] = '.' || name.[0] = '_'
  in
  let rec go dir rel =
    match Sys.readdir dir with
    | entries ->
        Array.sort compare entries;
        Array.iter
          (fun name ->
            let p = Filename.concat dir name in
            let r = if rel = "" then name else rel ^ "/" ^ name in
            if Sys.is_directory p then begin
              if not (skip_dir name) then go p r
            end
            else if Filename.check_suffix name ".ml" then acc := (p, r) :: !acc)
          entries
    | exception Sys_error _ -> ()
  in
  List.iter
    (fun top ->
      let p = Filename.concat root top in
      if Sys.file_exists p && Sys.is_directory p then go p top)
    roots;
  List.sort compare !acc

let scan ?(manifest = default_manifest) ?(root = ".") ?roots () =
  List.map
    (fun (path, rel) ->
      let fr = lint_file ~manifest path in
      { fr with fr_path = rel })
    (discover ~root ?roots ())
