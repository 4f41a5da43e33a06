type check =
  | L1_remote_spin
  | L2_invalidation_in_loop
  | L3_name_leak
  | L4_bfaa_range
  | A_incomplete
  | S1_lock_leak
  | S2_wait_no_recheck
  | S3_blocking_under_lock
  | S4_nonatomic_rmw
  | S5_unguarded_state
  | S_protected_write
  | S_spin_watchdog
  | S_stall
  | S_monitor

type t = {
  check : check;
  site : string;
  pid : int option;
  detail : string;
  waived : bool;
  witness : string list;
}

let id = function
  | L1_remote_spin -> "L1-remote-spin"
  | L2_invalidation_in_loop -> "L2-invalidation-in-loop"
  | L3_name_leak -> "L3-name-leak"
  | L4_bfaa_range -> "L4-bfaa-range"
  | A_incomplete -> "A-incomplete"
  | S1_lock_leak -> "S1-lock-leak"
  | S2_wait_no_recheck -> "S2-wait-without-recheck"
  | S3_blocking_under_lock -> "S3-blocking-under-lock"
  | S4_nonatomic_rmw -> "S4-nonatomic-rmw"
  | S5_unguarded_state -> "S5-unguarded-state"
  | S_protected_write -> "S-protected-write"
  | S_spin_watchdog -> "S-spin-watchdog"
  | S_stall -> "S-stall"
  | S_monitor -> "S-monitor"

let is_static = function
  | L1_remote_spin | L2_invalidation_in_loop | L3_name_leak | L4_bfaa_range | A_incomplete
  | S1_lock_leak | S2_wait_no_recheck | S3_blocking_under_lock | S4_nonatomic_rmw
  | S5_unguarded_state ->
      true
  | _ -> false

type 'r mutant = { m_name : string; m_desc : string; m_expected : check; m_run : unit -> 'r }
type verdict = Killed | Inexact | Survived

let verdict expected fs =
  let fired = List.filter (fun f -> not f.waived) fs in
  let other f = f.check <> expected && is_static f.check = is_static expected in
  if not (List.exists (fun f -> f.check = expected) fired) then Survived
  else if List.exists other fired then Inexact
  else Killed

let pp ppf f =
  Format.fprintf ppf "%s%s at %s%s: %s" (id f.check)
    (if f.waived then " (waived)" else "")
    f.site
    (match f.pid with Some p -> Printf.sprintf " [pid %d]" p | None -> "")
    f.detail
