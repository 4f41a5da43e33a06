type entry =
  | Stepped of { pid : int; step : string; value : int; remote : int }
  | Event of { pid : int; event : string }
  | Crashed of { pid : int }

type t = {
  capacity : int;
  record_schedule : bool;
  mutable ring : entry array;
  mutable next : int;  (* total entries ever recorded *)
  mutable sched : int list;  (* reversed; empty when capture is off *)
}

let create ?(capacity = 100_000) ?(record_schedule = true) () =
  { capacity = max 1 capacity; record_schedule; ring = [||]; next = 0; sched = [] }

let records_schedule t = t.record_schedule

let push t e =
  if Array.length t.ring = 0 then t.ring <- Array.make t.capacity e;
  t.ring.(t.next mod t.capacity) <- e;
  t.next <- t.next + 1

let string_of_step ?footprint (s : Op.step) =
  match s with
  | Op.Read a -> Printf.sprintf "read[%d]" a
  | Op.Write (a, v) -> Printf.sprintf "write[%d]:=%d" a v
  | Op.Faa (a, d) -> Printf.sprintf "faa[%d]%+d" a d
  | Op.Bounded_faa (a, d, lo, hi) -> Printf.sprintf "bfaa[%d]%+d(%d..%d)" a d lo hi
  | Op.Cas (a, e, d) -> Printf.sprintf "cas[%d]%d->%d" a e d
  | Op.Tas a -> Printf.sprintf "tas[%d]" a
  | Op.Swap (a, v) -> Printf.sprintf "swap[%d]:=%d" a v
  | Op.Delay _ -> "delay"
  | Op.Atomic_block (name, _) -> (
      match footprint with
      | None -> Printf.sprintf "<%s>" name
      | Some fp -> Format.asprintf "<%s %a>" name Op.Footprint.pp fp)

let string_of_event (e : Op.event) =
  match e with
  | Op.Entry_begin -> "entry-begin"
  | Op.Cs_enter name -> Printf.sprintf "cs-enter(name=%d)" name
  | Op.Cs_exit -> "cs-exit"
  | Op.Exit_end -> "exit-end"
  | Op.Note s -> "note:" ^ s

let record_step ?footprint t ~pid ~step ~value ~remote =
  push t (Stepped { pid; step = string_of_step ?footprint step; value; remote });
  if t.record_schedule then t.sched <- pid :: t.sched

let record_event t ~pid ~event = push t (Event { pid; event = string_of_event event })
let record_crash t ~pid = push t (Crashed { pid })

let hooks t =
  { Runner.h_step =
      (fun ~pid ~step ~value ~remote ~phase:_ ~footprint ->
        record_step ?footprint t ~pid ~step ~value ~remote);
    h_event = (fun ~pid event -> record_event t ~pid ~event);
    h_crash = (fun ~pid -> record_crash t ~pid) }

let entries t =
  let kept = min t.next t.capacity in
  List.init kept (fun i -> t.ring.((t.next - kept + i) mod t.capacity))

let length t = t.next
let schedule t = List.rev t.sched

let pp_entry ppf = function
  | Stepped { pid; step; value; remote } ->
      Format.fprintf ppf "p%d %s -> %d%s" pid step value
        (match remote with
        | 0 -> ""
        | 1 -> " (remote)"
        | n -> Printf.sprintf " (%d remote)" n)
  | Event { pid; event } -> Format.fprintf ppf "p%d [%s]" pid event
  | Crashed { pid } -> Format.fprintf ppf "p%d CRASHED" pid

let pp ?last ppf t =
  let es = entries t in
  let es =
    match last with
    | None -> es
    | Some n ->
        let len = List.length es in
        if len <= n then es else List.filteri (fun i _ -> i >= len - n) es
  in
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) es
