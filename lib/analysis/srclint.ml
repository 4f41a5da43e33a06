(* srclint: source-level concurrency-discipline lint for the real service
   stack (lib/ and bin/), the implementation-side sibling of the Op-program
   kexlint passes.

   kexlint guards the *simulated* algorithms; srclint guards the OCaml that
   surrounds them in production — the admission wrapper's host service, the
   cluster routing table, the metrics plane.  It parses every .ml file with
   the compiler's own grammar (via ppxlib's version-pinned Parsetree, so the
   analyzer builds identically across compiler releases) and walks each
   function body, tracking which locks are held:

   - S1 lock-leak: a [Mutex.lock m] anywhere but at the head of
     [Sync.with_lock]'s own body, [Mutex.lock m; match f () with v ->
     Mutex.unlock m; v | exception e -> Mutex.unlock m; raise e], with the
     same [m] in all three places.  The rule is that every mutex is taken
     through that combinator; any other bare lock is a finding, whatever
     follows it.
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
     mutex after all, and manifest-declared I/O-free modules that name a
     Reactor, Netio or Protocol value or make a socket call.

   A lock counts as held inside the function argument of a
   [with_lock]/[Mutex.protect] call or of a manifest wrapper (routing's
   [locked]), and inside the body of the [with_lock] shape itself.  There
   are no waivers: every finding is reported with [waived = false].

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

type module_rules = {
  mr_file : string;  (* path suffix, e.g. "lib/service/wqueue.ml" *)
  mr_guards : guard list;
  mr_wrappers : wrapper list;  (* local fn name -> lock field it takes *)
  mr_atomic_only : bool;  (* module promises to use no Mutex/Condition *)
  mr_io_free : bool;  (* module promises to name no I/O module, make no socket call *)
}

let rules ?(guards = []) ?(wrappers = []) ?(atomic_only = false) ?(io_free = false) file =
  { mr_file = file;
    mr_guards = guards;
    mr_wrappers = wrappers;
    mr_atomic_only = atomic_only;
    mr_io_free = io_free }

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
    rules "lib/service/shard.ml" ~io_free:true
      ~guards:
        [ { g_lock = "fence_m"; g_fields = [ "fenced"; "handing_off" ] };
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

let is_blocking flat = List.exists (fn_matches flat) blocking_fns

(* What an I/O-free module must not name: any path into the service's
   connection plane or codec, and Unix's socket calls. *)
let io_modules = [ "Reactor"; "Netio"; "Protocol" ]

let socket_fns =
  [ "socket"; "socketpair"; "bind"; "listen"; "accept"; "connect"; "shutdown"; "close"; "read";
    "write"; "single_write"; "recv"; "recvfrom"; "send"; "sendto"; "select"; "setsockopt";
    "getsockopt" ]

let is_io_name flat =
  match String.split_on_char '.' flat with
  | [ "Unix"; f ] -> List.mem f socket_fns
  | "Kex_service" :: m :: _ | m :: _ -> List.mem m io_modules
  | [] -> false

(* ------------------------------- findings ------------------------------- *)

type stats = { mutable st_locks : int; mutable st_waits : int; mutable st_atomics : int }

type ctx = {
  cx_file : string;
  cx_rules : module_rules option;
  cx_seen : (string * string, unit) Hashtbl.t;  (* (check id, site) dedup *)
  mutable cx_findings : Finding.t list;
  cx_stats : stats;
}

type env = {
  held : (string option * string option) list;  (* (render, manifest key) *)
  in_while : bool;
  fname : string;
  abinds : (string * string) list;  (* var -> render of Atomic.get argument *)
}

let base_env fname = { held = []; in_while = false; fname; abinds = [] }
let push_held env lk = { env with held = lk :: env.held }
let held_any env = env.held <> []
let held_key env k = List.exists (fun (_, key) -> key = Some k) env.held

let site_of ctx (loc : Location.t) = Printf.sprintf "%s:%d" ctx.cx_file loc.loc_start.pos_lnum

let emit ctx env check ~loc ~detail ~witness =
  let site = site_of ctx loc in
  let key = (Finding.id check, site) in
  if not (Hashtbl.mem ctx.cx_seen key) then begin
    Hashtbl.add ctx.cx_seen key ();
    let detail = if env.fname = "" then detail else Printf.sprintf "in %s: %s" env.fname detail in
    ctx.cx_findings <-
      { Finding.check; site; pid = None; detail; waived = false; witness } :: ctx.cx_findings
  end

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

let is_exception_case c =
  match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false

(* [Mutex.lock m] — returns the lock expression. *)
let lock_arg a =
  match (strip a).pexp_desc with
  | Pexp_apply (f, args) when fn_matches (flat_of f) "Mutex.lock" -> (
      match unlabeled args with [ m ] -> Some m | _ -> None)
  | _ -> None

(* [Sync.with_lock]'s own body, the one place a bare lock is allowed:
   [lock] is [Mutex.lock m] and [rest] is [match body with v ->
   Mutex.unlock m; v | exception e -> Mutex.unlock m; raise e], the same
   [m] throughout.  Returns [m] and [body]. *)
let with_lock_shape lock rest =
  let is_var v e =
    match (strip e).pexp_desc with Pexp_ident { txt = Lident x; _ } -> String.equal x v | _ -> false
  in
  match (lock_arg lock, (strip rest).pexp_desc) with
  | Some m, Pexp_match (body, ([ c1; c2 ] as cases)) ->
      let lrender = render m in
      let unlock_then e k =
        match (strip e).pexp_desc with
        | Pexp_sequence (u, r) -> is_unlock_of lrender u && k r
        | _ -> false
      in
      let releases c =
        c.pc_guard = None
        &&
        match c.pc_lhs.ppat_desc with
        | Ppat_var { txt = v; _ } -> unlock_then c.pc_rhs (is_var v)
        | Ppat_exception { ppat_desc = Ppat_var { txt = x; _ }; _ } ->
            unlock_then c.pc_rhs (fun r ->
                match (strip r).pexp_desc with
                | Pexp_apply (f, [ (Nolabel, a) ]) -> fn_matches (flat_of f) "raise" && is_var x a
                | _ -> false)
        | _ -> false
      in
      if List.for_all releases cases && is_exception_case c1 <> is_exception_case c2 then
        Some (m, body)
      else None
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
  match e.pexp_desc with
  | Pexp_apply (f, args) -> handle_apply ctx env e f args
  | Pexp_sequence (a, b) -> (
      match with_lock_shape a b with
      | Some (m, body) ->
          ctx.cx_stats.st_locks <- ctx.cx_stats.st_locks + 1;
          walk ctx (push_held env (Some (render m), guard_key m)) body
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
    | None ->
        if fn_matches flat "Mutex.lock" then begin
          (* a bare lock the with_lock shape did not consume *)
          ctx.cx_stats.st_locks <- ctx.cx_stats.st_locks + 1;
          emit ctx env Finding.S1_lock_leak ~loc:e.pexp_loc
            ~detail:
              (Printf.sprintf
                 "Mutex.lock %s outside Sync.with_lock: a raise or an early return before the \
                  unlock leaves it held (wrap the critical section in Sync.with_lock)"
                 (match unlabeled args with [ m ] -> render m | _ -> "<lock>"))
            ~witness:[ snippet e ]
        end;
        walk ctx env f;
        List.iter (fun (_, a) -> walk ctx env a) args

(* An I/O-free module's names: every identifier, constructor, type and
   module path in the file (an [open] or a module alias included) is
   checked, not only the applied ones. *)
let check_io_free ctx str =
  let it =
    object
      inherit Ast_traverse.iter as super

      method! longident_loc lid =
        (match Longident.flatten_exn lid.txt with
        | parts ->
            let flat = String.concat "." parts in
            if is_io_name flat then
              emit ctx (base_env "") Finding.S5_unguarded_state ~loc:lid.loc
                ~detail:
                  (Printf.sprintf
                     "'%s' named in a module the manifest declares I/O-free (no Reactor, Netio \
                      or Protocol value, no socket call)"
                     flat)
                ~witness:[]
        | exception _ -> ());
        super#longident_loc lid
    end
  in
  it#structure str

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
          (fun vb -> walk ctx (base_env (binding_name vb)) vb.pvb_expr)
          vbs
    | Pstr_eval (e, _) -> walk ctx (base_env "") e
    | Pstr_module mb -> module_expr mb.pmb_expr
    | Pstr_recmodule mbs -> List.iter (fun mb -> module_expr mb.pmb_expr) mbs
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

let file_clean fr = fr.fr_findings = []
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
      cx_seen = Hashtbl.create 16;
      cx_findings = [];
      cx_stats = { st_locks = 0; st_waits = 0; st_atomics = 0 } }
  in
  (match
     let lexbuf = Lexing.from_string code in
     Lexing.set_filename lexbuf path;
     Parse.implementation lexbuf
   with
  | str ->
      walk_structure ctx str;
      if Option.fold ~none:false ~some:(fun r -> r.mr_io_free) ctx.cx_rules then
        check_io_free ctx str
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
