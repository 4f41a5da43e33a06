(* The server under test: [kexd serve] as a child process with the shipped
   defaults written out, plus what kexbench reads from outside it — CPU
   time and peak memory from /proc, and the STATS counters over an admin
   connection. *)

module Protocol = Kex_service.Protocol

external now_ns : unit -> int = "kexbench_now_ns" [@@noalloc]
external clk_tck : unit -> int = "kexbench_clk_tck"

type t = {
  pid : int;
  port : int;
  log_fd : Unix.file_descr;  (** the child's stdout; held open so its log lines never hit EPIPE *)
}

(* A child outlives a crashed kexbench by at most this long. *)
let max_life_s = 170

let args ~chaos_at_s =
  [ "serve"; "--port"; "0"; "--shards"; "1"; "--workers"; "4"; "-k"; "2"; "--reactors"; "2";
    "--algo"; "fastpath"; "--duration"; string_of_int max_life_s ]
  @ match chaos_at_s with None -> [] | Some s -> [ "--chaos"; Printf.sprintf "kill-worker@%.3fs" s ]

(* Read the child's stdout until its first line, which [kexd serve] prints
   only once its socket is bound and listening. *)
let await_port fd ~pid =
  let deadline = Unix.gettimeofday () +. 20. in
  let acc = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec go () =
    let text = Buffer.contents acc in
    if String.contains text '\n' then
      Scanf.sscanf text "kexd serve: listening on 127.0.0.1:%d" Fun.id
    else begin
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then failwith (Printf.sprintf "kexd (pid %d) did not start listening" pid);
      (match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> failwith (Printf.sprintf "kexd (pid %d) exited before listening" pid)
          | n -> Buffer.add_subbytes acc chunk 0 n));
      go ()
    end
  in
  go ()

let spawn ~kexd ~chaos_at_s =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process kexd (Array.of_list (kexd :: args ~chaos_at_s)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  match await_port r ~pid with
  | port -> { pid; port; log_fd = r }
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close r;
      raise e

(* SIGTERM, then wait (bounded) for the graceful stop; [true] iff the
   server exited 0. *)
let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 15. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid);
          false
        end
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let ok = wait () in
  Unix.close t.log_fd;
  ok

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* User + system CPU of the whole process, in microseconds.  Fields 14 and
   15 of /proc/<pid>/stat, counted after the parenthesised command name. *)
let cpu_us t =
  let s = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  let ticks = int_of_string fields.(11) + int_of_string fields.(12) in
  ticks * 1_000_000 / clk_tck ()

(* Peak resident set (VmHWM), in MiB. *)
let peak_rss_mb t =
  read_file (Printf.sprintf "/proc/%d/status" t.pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some (float kb /. 1024.))
         | _ -> None)
  |> Option.get

(* ----------------------------- admin connection ------------------------- *)

type admin = { fd : Unix.file_descr; dec : Protocol.Resp_decoder.t; buf : Bytes.t }

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let admin t = { fd = connect ~port:t.port; dec = Protocol.Resp_decoder.create Protocol.Binary; buf = Bytes.create 65536 }
let close_admin a = Unix.close a.fd

(* Pipeline [reqs] (ids = positions) and return their responses in order. *)
let call a reqs =
  let reqs = Array.of_list reqs in
  let out = Buffer.create 4096 in
  Array.iteri (fun id r -> Protocol.encode_request_wire out Protocol.Binary ~id:(Some id) r) reqs;
  Kex_service.Netio.write_all a.fd (Buffer.contents out);
  let resps = Array.make (Array.length reqs) None in
  let rec collect missing =
    if missing > 0 then
      match Protocol.Resp_decoder.next a.dec with
      | Protocol.Dec_frame (Some id, resp) when id < Array.length reqs && resps.(id) = None ->
          resps.(id) <- Some resp;
          collect (missing - 1)
      | Protocol.Dec_frame _ | Protocol.Dec_skip _ | Protocol.Dec_broken _ ->
          failwith "admin connection: malformed reply"
      | Protocol.Dec_more -> (
          match Unix.read a.fd a.buf 0 (Bytes.length a.buf) with
          | 0 -> failwith "admin connection closed"
          | n ->
              Protocol.Resp_decoder.feed_bytes a.dec a.buf ~off:0 ~len:n;
              collect missing)
  in
  collect (Array.length reqs);
  Array.to_list (Array.map Option.get resps)

let stats a =
  match call a [ Protocol.Stats ] with
  | [ Protocol.Stats_reply pairs ] -> pairs
  | _ -> failwith "STATS: unexpected reply"

let stat pairs name = Option.value (List.assoc_opt name pairs) ~default:0
