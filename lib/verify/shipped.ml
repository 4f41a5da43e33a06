type phase = Idle | Acquiring of int | Holding of int | Releasing of int | Retired

type proc = {
  phase : phase;
  crashed : bool;
  run : int Traced.run;  (* the call in progress, while acquiring or releasing *)
  units : (int * int) list;  (* net fetch-and-add per cell, nonzero, by cell *)
}

type state = { mem : int array; privates : int array; procs : proc array }
type model = (module System.MODEL with type state = state)

let acquiring s pid =
  let p = s.procs.(pid) in
  (not p.crashed) && match p.phase with Acquiring _ -> true | _ -> false

let held_name s pid = match s.procs.(pid).phase with Holding v -> Some v | _ -> None
let holding s pid = held_name s pid <> None
let holders s = List.filter_map (held_name s) (List.init (Array.length s.procs) Fun.id)
let k_exclusion k s = List.length (holders s) <= k

let names_unique k s =
  let names = holders s in
  List.for_all (fun v -> v >= 0 && v < k) names
  && List.length (List.sort_uniq compare names) = List.length names

let units_returned s =
  let bound p = if p.phase = Idle || p.phase = Retired then 0 else 1 in
  Array.for_all (fun p -> p.crashed || List.for_all (fun (_, v) -> abs v <= bound p) p.units) s.procs

let rec add_units units cell d =
  match units with
  | (c, v) :: rest when c < cell -> (c, v) :: add_units rest cell d
  | (c, v) :: rest when c = cell -> if v + d = 0 then rest else (c, v + d) :: rest
  | _ -> if d = 0 then units else (cell, d) :: units

(* An acquiring call returns what the process then holds (a name, or 0),
   or a negative number for a refusal. *)
let model ~name ~ctx ~procs ~max_crashes ~invariants ~acquire:acquires ~release:release_call : model =
  let mem = Traced.memory ctx and privates = Traced.save ctx in
  let idle = Traced.start ctx (fun () -> Traced.return 0) in
  let label what =
    Array.init procs (fun pid -> Lazy.from_val (Printf.sprintf "p%d: %s" pid what))
  in
  let retire = label "retire" and crash = label "crash" and release = label "release" in
  let acquire = Array.map (fun (what, _) -> label what) acquires in
  (module struct
    type nonrec state = state

    let name = name
    let p0 = { phase = Idle; crashed = false; run = idle; units = [] }
    let initial = [ { mem; privates; procs = Array.make procs p0 } ]

    let with_proc s pid p =
      let procs = Array.copy s.procs in
      procs.(pid) <- p;
      { s with procs }

    (* [pid]'s call now stands at [run]; a finished one moves it on. *)
    let settle s pid p mem run =
      let p =
        match (Traced.finished run, p.phase) with
        | None, _ -> { p with run }
        | Some v, Acquiring _ when v >= 0 -> { p with phase = Holding v; run = idle }
        | Some _, _ -> { p with phase = Idle; run = idle }
      in
      { (with_proc s pid p) with mem; privates = Traced.save ctx }

    (* [pid] performs [run]'s access; the private variables are restored. *)
    let step s pid p run =
      Traced.perform ctx s.mem run
      |> Option.map (fun (a, mem, result, run) ->
             let units =
               match a with
               | Traced.Faa (c, _) | Bounded_faa (c, _, _, _) -> add_units p.units c (mem.(c) - s.mem.(c))
               | _ -> p.units
             in
             let label = lazy (Printf.sprintf "p%d: %s -> %d" pid (Traced.describe ctx a) result) in
             (label, settle s pid { p with units } mem run))

    let start s p phase call =
      Traced.restore ctx s.privates;
      ({ p with phase }, Traced.start ctx call)

    let next s =
      let moves = ref [] in
      let add m = moves := m :: !moves in
      let crashes = Array.fold_left (fun n p -> if p.crashed then n + 1 else n) 0 s.procs in
      for pid = procs - 1 downto 0 do
        let p = s.procs.(pid) in
        if not p.crashed then begin
          (match p.phase with
          | Idle ->
              add (retire.(pid), with_proc s pid { p with phase = Retired });
              for i = Array.length acquires - 1 downto 0 do
                let p, run = start s p (Acquiring i) (fun () -> snd acquires.(i) ~pid) in
                add (acquire.(i).(pid), settle s pid p s.mem run)
              done
          | Acquiring _ | Releasing _ ->
              Traced.restore ctx s.privates;
              Option.iter add (step s pid p p.run)
          | Holding held -> (
              let p, run = start s p (Releasing held) (fun () -> release_call ~pid ~held) in
              match Traced.finished run with
              | Some _ -> add (release.(pid), settle s pid p s.mem run)
              | None -> Option.iter add (step s pid p run))
          | Retired -> ());
          if p.phase <> Idle && p.phase <> Retired && crashes < max_crashes then
            add (crash.(pid), with_proc s pid { p with crashed = true })
        end
      done;
      !moves

    (* Marshalled without sharing, equal values give equal strings. *)
    let encode s =
      let proc p = (p.phase, p.crashed, Traced.history p.run, p.units) in
      Marshal.to_string (s.mem, s.privates, Array.map proc s.procs) [ Marshal.No_sharing ]

    let pp ppf s =
      let phase = function
        | Idle -> "idle"
        | Retired -> "retired"
        | Holding v -> "holds " ^ string_of_int v
        | Acquiring i -> fst acquires.(i)
        | Releasing _ -> "release"
      in
      Array.iteri (fun c v -> Format.fprintf ppf "%s=%d " (Traced.cell_name ctx c) v) s.mem;
      Array.iteri
        (fun pid p ->
          Format.fprintf ppf "| p%d: %s%s " pid (phase p.phase) (if p.crashed then " crashed" else ""))
        s.procs

    let invariants = invariants @ [ ("units returned", units_returned) ]
  end)

module Make
    (F : Kexclusion.Figures.S
           with type 'a m = 'a Traced.m
            and type ctx = Traced.ctx
            and type cell = Traced.cell) =
struct
  let ( let* ) = Traced.bind
  let returning v m = Traced.bind m (fun _ -> Traced.return v)

  let scoped (block : F.block) : F.block =
   fun ctx ~n ~k ~inner ->
    let p = block ctx ~n ~k ~inner and done_ () = 0 in
    { p with
      F.entry = (fun ~pid -> Traced.scope done_ (fun () -> p.F.entry ~pid));
      exit = (fun ~pid -> Traced.scope done_ (fun () -> p.F.exit ~pid));
      try_entry = (fun ~pid -> Traced.scope Bool.to_int (fun () -> p.F.try_entry ~pid)) }

  let exclusion ~name ~n ~k ~max_crashes build =
    let ctx = Traced.create ~procs:n in
    let p = build ctx in
    let try_entry ~pid =
      let* admitted = p.F.try_entry ~pid in
      Traced.return (if admitted then 0 else -1)
    in
    model
      ~name:(Printf.sprintf "%s[n=%d,k=%d,crashes<=%d]" name n k max_crashes)
      ~ctx ~procs:n ~max_crashes
      ~invariants:[ ("k-exclusion", k_exclusion k) ]
      ~acquire:[| ("enter", fun ~pid -> returning 0 (p.F.entry ~pid)); ("try", try_entry) |]
      ~release:(fun ~pid ~held:_ -> returning 0 (p.F.exit ~pid))

  let block name block ~n ~max_crashes =
    exclusion ~name ~n ~k:(n - 1) ~max_crashes (fun ctx ->
        scoped block ctx ~n ~k:(n - 1) ~inner:(F.trivial ()))

  let fig2 = block "fig2" F.fig2
  let fig6 = block "fig6" F.fig6

  let fast_path_tree ~n ~k ~max_crashes =
    exclusion ~name:"fastpath-tree" ~n ~k ~max_crashes (fun ctx ->
        F.fast_path_tree ctx ~block:(scoped F.fig2) ~n ~k)

  let mcs ~n ~max_crashes = exclusion ~name:"mcs" ~n ~k:1 ~max_crashes (fun ctx -> F.mcs ctx ~n)

  let renaming ~procs ~k ~max_crashes =
    let ctx = Traced.create ~procs in
    let r = F.renaming ctx ~k in
    model
      ~name:(Printf.sprintf "fig7[procs=%d,k=%d,crashes<=%d]" procs k max_crashes)
      ~ctx ~procs ~max_crashes
      ~invariants:[ ("names unique and in range", names_unique k) ]
      ~acquire:[| ("rename", fun ~pid:_ -> F.rename r) |]
      ~release:(fun ~pid:_ ~held -> returning 0 (F.unname r ~name:held))
end

module Figures = Make (Kexclusion.Figures.Make (Traced))
