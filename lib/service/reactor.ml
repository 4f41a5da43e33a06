(* The reactor I/O plane: one poll(2) event-loop domain multiplexing many
   non-blocking connections.

   Motivation mirrors the paper's local-work discipline: on OCaml 5 every
   systhread on a domain serializes on that domain's runtime lock, so at
   high connection counts a thread-per-conn server burns its cycles on
   context switches and redundant wakeups — the syscall analogue of remote
   memory references.  The reactor does the opposite: readiness is batched
   by one poll call, worker completions are batched by one lock-free
   mailbox drain, and each connection's responses leave in one coalesced
   write per ready cycle.

   Concurrency contract (this module is manifest-declared atomic-only —
   no Mutex/Condition anywhere):

   - All per-connection mutable state ([rc_out]/[rc_start]/[rc_len], the
     replies owed, pause/drain flags, the [r_conns] list, poll scratch
     arrays) and the user value are owned by the reactor domain and
     touched only from the loop, which alone closes a connection.
   - Producers (workers, the acceptor, helper threads, a node crash)
     communicate solely through [post]: a CAS-cons push onto the lock-free
     mailbox stack plus a deduplicated self-pipe wakeup.  [Atomic.exchange]
     on the wake flag guarantees at most one pipe byte per quiet period —
     one wakeup per drained batch, not one per response.
   - A reply written off the loop carries the number of owed replies it
     answers, and the loop lowers [rc_owed] in the step that appends its
     bytes.  So a connection that hung up closes only once every reply it
     is owed sits in its output buffer and has been flushed.
   - The loop clears the wake flag *before* draining the mailbox: a
     producer that pushes after the clear writes a fresh byte (next cycle
     picks it up), and one that pushed before is caught by this drain —
     no lost-wakeup window.
   - [rc_alive] is the producers' view: once false, [post_write] drops the
     payload instead of growing a dead connection's buffer.  [r_live] is
     the loop's count of attached connections, read by any thread.

   Backpressure: the output buffer is bounded by policy, not by capacity.
   When unsent bytes exceed [out_hwm] the connection leaves the read set
   (its requests stop being parsed, so the client stops generating new
   responses) and, if the kernel accepts nothing for [slow_drain_s]
   seconds, the connection is dropped.  Well-behaved clients never notice;
   a client that stops reading cannot wedge the reactor or the heap. *)

(* The lock-free MPSC mailbox: a Treiber push stack, drained by the single
   consumer with one [exchange] and a reversal back to FIFO order.  Exposed
   because the qcheck suite and the microbench exercise it standalone. *)
module Mailbox = struct
  type 'a t = 'a list Atomic.t

  let create () = Atomic.make []

  let rec push mb x =
    let old = Atomic.get mb in
    if not (Atomic.compare_and_set mb old (x :: old)) then push mb x

  let drain mb = List.rev (Atomic.exchange mb [])
end

type 'a conn = {
  rc_fd : Unix.file_descr;
  rc_user : 'a;
  rc_owner : 'a t;
  rc_alive : bool Atomic.t; (* producers: is post_write still useful? *)
  mutable rc_out : Bytes.t; (* unsent response bytes: [start, start+len) *)
  mutable rc_start : int;
  mutable rc_len : int;
  mutable rc_owed : int; (* replies owed by producers, not yet appended *)
  mutable rc_paused : bool; (* over high-watermark: out of the read set *)
  mutable rc_pause_start : float;
  mutable rc_draining : bool; (* no more reads; close once drained *)
  mutable rc_deadline : float; (* absolute force-close instant when draining *)
  mutable rc_dead : bool; (* closed and detached; drop late messages *)
}

and 'a msg =
  | Add of Unix.file_descr * 'a
  | Write of 'a conn * string * int (* bytes, and the owed replies they carry *)
  | Sever (* close every connection now, and every one added later *)
  | Stop of float (* grace seconds for the final drain *)

and 'a t = {
  r_id : int;
  r_mailbox : 'a msg Mailbox.t;
  r_wake_pending : bool Atomic.t;
  r_wake_r : Unix.file_descr;
  r_wake_w : Unix.file_descr;
  r_out_hwm : int;
  r_slow_drain_s : float;
  r_log : string -> unit;
  r_on_data : 'a conn -> Bytes.t -> int -> bool;
      (* [len] fresh bytes; [false] = hang up after flush *)
  r_wakeups : int Atomic.t; (* pipe bytes actually written *)
  r_posts : int Atomic.t; (* mailbox messages pushed *)
  r_live : int Atomic.t; (* connections attached and not closed *)
  mutable r_conns : 'a conn list; (* loop thread only *)
  mutable r_stopping : bool; (* loop thread only *)
  mutable r_severed : bool; (* loop thread only *)
  mutable r_domain : unit Domain.t option;
  (* poll scratch, reused across cycles: parallel fd/eventmask/conn rows *)
  mutable r_pfds : Unix.file_descr array;
  mutable r_pflags : int array;
  mutable r_pconns : 'a conn option array;
}

let user c = c.rc_user
let wakeups t = Atomic.get t.r_wakeups
let posts t = Atomic.get t.r_posts
let live t = Atomic.get t.r_live
let owe c n = c.rc_owed <- c.rc_owed + n

(* How long a connection that hung up may take to drain before it is
   force-closed. *)
let drain_grace_s = 5.0

let create ?(out_hwm = 256 * 1024) ?(slow_drain_s = 5.0) ?(log = fun _ -> ()) ~id on_data =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  { r_id = id;
    r_mailbox = Mailbox.create ();
    r_wake_pending = Atomic.make false;
    r_wake_r = wake_r;
    r_wake_w = wake_w;
    r_out_hwm = out_hwm;
    r_slow_drain_s = slow_drain_s;
    r_log = log;
    r_on_data = on_data;
    r_wakeups = Atomic.make 0;
    r_posts = Atomic.make 0;
    r_live = Atomic.make 0;
    r_conns = [];
    r_stopping = false;
    r_severed = false;
    r_domain = None;
    r_pfds = Array.make 8 wake_r;
    r_pflags = Array.make 8 0;
    r_pconns = Array.make 8 None }

(* ------------------------------ producers ------------------------------- *)

let wake_byte = Bytes.make 1 '!'

let post t m =
  Mailbox.push t.r_mailbox m;
  Atomic.incr t.r_posts;
  if not (Atomic.exchange t.r_wake_pending true) then begin
    Atomic.incr t.r_wakeups;
    (* A full pipe or a closed read end both mean the loop is (or will be)
       awake / gone — either way the message is safe in the mailbox. *)
    try ignore (Unix.write t.r_wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()
  end

let add t fd u = post t (Add (fd, u))
let sever t = post t Sever

let post_write ?(replies = 0) c s =
  if Atomic.get c.rc_alive then post c.rc_owner (Write (c, s, replies))

(* ---------------------------- output buffer ----------------------------- *)

let reserve c extra =
  if c.rc_start + c.rc_len + extra > Bytes.length c.rc_out then begin
    if c.rc_start > 0 then begin
      Bytes.blit c.rc_out c.rc_start c.rc_out 0 c.rc_len;
      c.rc_start <- 0
    end;
    if c.rc_len + extra > Bytes.length c.rc_out then begin
      let cap = ref (max 4096 (Bytes.length c.rc_out)) in
      while !cap < c.rc_len + extra do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit c.rc_out 0 nb 0 c.rc_len;
      c.rc_out <- nb
    end
  end

let append_string c s =
  let n = String.length s in
  if n > 0 then begin
    reserve c n;
    Bytes.blit_string s 0 c.rc_out (c.rc_start + c.rc_len) n;
    c.rc_len <- c.rc_len + n
  end

let append_buffer c b =
  let n = Buffer.length b in
  if n > 0 then begin
    reserve c n;
    Buffer.blit b 0 c.rc_out (c.rc_start + c.rc_len) n;
    c.rc_len <- c.rc_len + n
  end

(* ----------------------------- loop internals --------------------------- *)

let close_conn t c =
  if not c.rc_dead then begin
    c.rc_dead <- true;
    Atomic.set c.rc_alive false;
    t.r_conns <- List.filter (fun x -> x != c) t.r_conns;
    Atomic.decr t.r_live;
    try Unix.close c.rc_fd with Unix.Unix_error _ -> ()
  end

let begin_drain c deadline =
  if not c.rc_draining then begin
    c.rc_draining <- true;
    c.rc_deadline <- deadline
  end

(* One coalesced write attempt: whatever the kernel takes this cycle goes
   out in a single syscall; the short-write remainder carries over. *)
let flush t c =
  if c.rc_len > 0 && not c.rc_dead then
    match Netio.write_nb c.rc_fd c.rc_out c.rc_start c.rc_len with
    | 0 -> ()
    | n ->
        c.rc_start <- c.rc_start + n;
        c.rc_len <- c.rc_len - n;
        if c.rc_len = 0 then c.rc_start <- 0
    | exception Unix.Unix_error (_, _, _) -> close_conn t c

let attach t fd u now =
  if t.r_stopping || t.r_severed then (try Unix.close fd with Unix.Unix_error _ -> ())
  else begin
    (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
    let c =
      { rc_fd = fd;
        rc_user = u;
        rc_owner = t;
        rc_alive = Atomic.make true;
        rc_out = Bytes.create 4096;
        rc_start = 0;
        rc_len = 0;
        rc_owed = 0;
        rc_paused = false;
        rc_pause_start = now;
        rc_draining = false;
        rc_deadline = 0.;
        rc_dead = false }
    in
    t.r_conns <- c :: t.r_conns;
    Atomic.incr t.r_live
  end

let process_mailbox t now =
  List.iter
    (fun m ->
      match m with
      | Add (fd, u) -> attach t fd u now
      | Write (c, s, replies) ->
          if not c.rc_dead then begin
            append_string c s;
            c.rc_owed <- c.rc_owed - replies
          end
      | Sever ->
          t.r_severed <- true;
          List.iter (close_conn t) t.r_conns
      | Stop grace ->
          if not t.r_stopping then begin
            t.r_stopping <- true;
            List.iter (fun c -> begin_drain c (now +. grace)) t.r_conns
          end)
    (Mailbox.drain t.r_mailbox)

let ensure_capacity t n =
  if Array.length t.r_pfds < n then begin
    let cap = ref (Array.length t.r_pfds) in
    while !cap < n do
      cap := !cap * 2
    done;
    t.r_pfds <- Array.make !cap t.r_wake_r;
    t.r_pflags <- Array.make !cap 0;
    t.r_pconns <- Array.make !cap None
  end

let drain_pipe t buf =
  let rec go () =
    match Netio.read_nb t.r_wake_r buf 0 64 with
    | `Data _ -> go ()
    | `Eof | `Would_block -> ()
  in
  go ()

let cycle t buf =
  (* 1. build the poll set: wake pipe first, then every live connection *)
  ensure_capacity t (List.length t.r_conns + 1);
  t.r_pfds.(0) <- t.r_wake_r;
  t.r_pflags.(0) <- Netio.Poll.pollin;
  t.r_pconns.(0) <- None;
  let n = ref 1 in
  let need_tick = ref t.r_stopping in
  List.iter
    (fun c ->
      let want_in = (not c.rc_paused) && not c.rc_draining in
      let want_out = c.rc_len > 0 in
      if c.rc_paused || c.rc_draining then need_tick := true;
      t.r_pfds.(!n) <- c.rc_fd;
      t.r_pflags.(!n) <-
        (if want_in then Netio.Poll.pollin else 0)
        lor if want_out then Netio.Poll.pollout else 0;
      t.r_pconns.(!n) <- Some c;
      incr n)
    t.r_conns;
  let timeout_ms = if !need_tick then 25 else -1 in
  (* 2. wait for readiness (or a producer's wakeup byte) *)
  ignore (Netio.Poll.wait t.r_pfds t.r_pflags ~n:!n ~timeout_ms);
  let now = Unix.gettimeofday () in
  (* 3. consume the wakeup and drain the mailbox — flag cleared first so a
     producer racing with the drain re-arms the pipe for the next cycle *)
  if t.r_pflags.(0) land Netio.Poll.pollin <> 0 then drain_pipe t buf;
  Atomic.set t.r_wake_pending false;
  process_mailbox t now;
  (* 4. per ready connection: one read, handler dispatch, one flush *)
  for i = 1 to !n - 1 do
    match t.r_pconns.(i) with
    | None -> ()
    | Some c ->
        if not c.rc_dead then begin
          let revents = t.r_pflags.(i) in
          let readable =
            revents land (Netio.Poll.pollin lor Netio.Poll.pollerr) <> 0
            && (not c.rc_paused) && not c.rc_draining
          in
          if readable then begin
            (* Drain the socket while it keeps delivering full buffers
               (bounded for fairness): the poll(2) above scans every
               connection, so paying one per read would tax a hot
               connection with O(conns) kernel work per batch.  A short
               read means the socket is (almost certainly) empty — stop
               there rather than spend a guaranteed-EAGAIN syscall.  The
               loop also stops once the connection owes more than the
               output watermark: reading further input would balloon a
               buffer the housekeeping pass is about to pause. *)
            let rounds = ref 0 in
            let more = ref true in
            while !more && !rounds < 4 do
              incr rounds;
              (match Netio.read_nb c.rc_fd buf 0 (Bytes.length buf) with
              | `Data len ->
                  if len < Bytes.length buf then more := false;
                  if not (t.r_on_data c buf len) then begin
                    begin_drain c (now +. drain_grace_s);
                    more := false
                  end
              | `Eof ->
                  begin_drain c (now +. drain_grace_s);
                  more := false
              | `Would_block ->
                  if revents land Netio.Poll.pollerr <> 0 then
                    begin_drain c (now +. drain_grace_s);
                  more := false
              | exception Unix.Unix_error (_, _, _) ->
                  close_conn t c;
                  more := false);
              if c.rc_dead || c.rc_len > t.r_out_hwm then more := false
            done
          end;
          if not c.rc_dead then flush t c
        end
  done;
  (* 5. housekeeping: watermark transitions, slow-client drops, drained or
     expired closes.  A draining connection is drained once its buffer is
     empty and it is owed no reply.  Snapshot the list — close_conn edits
     it in place. *)
  let now = Unix.gettimeofday () in
  List.iter
    (fun c ->
      if not c.rc_dead then
        if c.rc_draining then begin
          if c.rc_len > 0 then flush t c;
          if
            (c.rc_len = 0 && c.rc_owed = 0) || now >= c.rc_deadline
          then close_conn t c
        end
        else if c.rc_paused then begin
          if c.rc_len <= t.r_out_hwm / 2 then c.rc_paused <- false
          else if now -. c.rc_pause_start > t.r_slow_drain_s then begin
            t.r_log
              (Printf.sprintf "reactor %d: dropping slow client (%d bytes unread for %.1fs)"
                 t.r_id c.rc_len (now -. c.rc_pause_start));
            close_conn t c
          end
        end
        else if c.rc_len > t.r_out_hwm then begin
          c.rc_paused <- true;
          c.rc_pause_start <- now
        end)
    t.r_conns

let run t =
  let buf = Bytes.create 65536 in
  (try
     while not (t.r_stopping && t.r_conns = []) do
       cycle t buf
     done
   with e ->
     t.r_log
       (Printf.sprintf "reactor %d: loop died: %s" t.r_id (Printexc.to_string e)));
  (* final sweep: force-close anything left, refuse parked Adds *)
  List.iter (fun c -> close_conn t c) t.r_conns;
  List.iter
    (fun m ->
      match m with
      | Add (fd, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | Write _ | Sever | Stop _ -> ())
    (Mailbox.drain t.r_mailbox);
  try Unix.close t.r_wake_r with Unix.Unix_error _ -> ()

let start t = t.r_domain <- Some (Domain.spawn (fun () -> run t))

let stop ?(grace_s = 5.0) t =
  post t (Stop grace_s);
  (match t.r_domain with
  | Some d ->
      Domain.join d;
      t.r_domain <- None
  | None -> ());
  try Unix.close t.r_wake_w with Unix.Unix_error _ -> ()
