(* Bechamel microbenchmarks of the real-atomics runtime: single-domain
   acquire/release latency of every lock algorithm, renaming, the universal
   construction and the full resilient object.

   One Test.make per measured operation; all grouped into a single run.  On
   a one-core container these are uncontended latencies — the scalability
   story lives in the simulator experiments (the paper's own metric). *)

module Out = Measure
open Bechamel
open Toolkit

let lock_test name algo =
  let lock = Kex_runtime.Kex_lock.create ~algo ~n:64 ~k:4 () in
  Test.make ~name
    (Staged.stage (fun () ->
         Kex_runtime.Kex_lock.acquire lock ~pid:7;
         Kex_runtime.Kex_lock.release lock ~pid:7))

(* The no-wait entry: an uncontended try that gets in, and a try that
   aborts because [k] holders are already inside (they never leave, so
   every iteration aborts and must leave the lock as it found it). *)
let try_tests () =
  let lock = Kex_runtime.Kex_lock.create ~algo:Kex_runtime.Kex_lock.Fast_path ~n:64 ~k:4 () in
  let full = Kex_runtime.Kex_lock.create ~algo:Kex_runtime.Kex_lock.Fast_path ~n:64 ~k:4 () in
  for pid = 0 to 3 do
    Kex_runtime.Kex_lock.acquire full ~pid
  done;
  [ Test.make ~name:"lock fastpath try+release"
      (Staged.stage (fun () ->
           if Kex_runtime.Kex_lock.try_acquire lock ~pid:7 then
             Kex_runtime.Kex_lock.release lock ~pid:7
           else failwith "try bench: uncontended try refused"));
    Test.make ~name:"lock fastpath aborted try"
      (Staged.stage (fun () ->
           if Kex_runtime.Kex_lock.try_acquire full ~pid:7 then
             failwith "try bench: a full lock admitted a fifth holder")) ]

let assignment_test () =
  let asg = Kex_runtime.Kex_lock.Assignment.create ~n:64 ~k:4 () in
  Test.make ~name:"assignment acquire/release"
    (Staged.stage (fun () ->
         let name = Kex_runtime.Kex_lock.Assignment.acquire asg ~pid:7 in
         Kex_runtime.Kex_lock.Assignment.release asg ~pid:7 ~name))

let renaming_test () =
  let r = Kex_runtime.Direct.renaming 64 ~k:4 in
  Test.make ~name:"renaming acquire/release"
    (Staged.stage (fun () ->
         let name = Kex_runtime.Direct.rename r in
         Kex_runtime.Direct.unname r ~name))

let universal_test () =
  let u =
    Kex_resilient.Universal.create ~k:4 ~init:0
      ~apply:(Kex_resilient.Universal.per_op (fun s (`Add d) -> (s + d, s + d)))
  in
  Test.make ~name:"universal op"
    (Staged.stage (fun () -> ignore (Kex_resilient.Universal.perform u ~tid:1 (`Add 1))))

let resilient_test () =
  let obj =
    Kex_resilient.Resilient.create ~n:64 ~k:4 ~init:0
      ~apply:(Kex_resilient.Universal.per_op (fun s (`Add d) -> (s + d, s + d)))
      ()
  in
  Test.make ~name:"resilient object op"
    (Staged.stage (fun () -> ignore (Kex_resilient.Resilient.perform obj ~pid:7 (`Add 1))))

let mcs_test () =
  let lock = Kex_runtime.Direct.mcs 64 ~n:64 in
  Test.make ~name:"mcs lock (k=1 target)"
    (Staged.stage (fun () ->
         lock.entry ~pid:7;
         lock.exit ~pid:7))

(* The "/read" codec rows feed one pipelined window of this many frames as
   one chunk, as a server read of a busy connection does, and report ns per
   frame: a deframer that copies the unconsumed remainder per frame shows
   up as growth with the window. *)
let codec_window = 256

(* Wire codec: encode/decode cost per frame on both framings, over reused
   buffers — the per-op cost the binary wire exists to shrink.  Decoders
   persist across iterations, so the scratch-buffer reuse (no per-frame
   allocation) is what's being measured. *)
let codec_tests () =
  let module P = Kex_service.Protocol in
  let key = "k00001234" in
  let value = String.make 64 'v' in
  let buf = Buffer.create 512 in
  let enc name wire req =
    Test.make ~name
      (Staged.stage (fun () ->
           Buffer.clear buf;
           P.encode_request_wire buf wire ~id:(Some 7) req))
  in
  let dec_req name wire req =
    let frame =
      let b = Buffer.create 64 in
      P.encode_request_wire b wire ~id:(Some 7) req;
      Buffer.contents b
    in
    let dec = P.Req_decoder.create () in
    Test.make ~name
      (Staged.stage (fun () ->
           P.Req_decoder.feed dec frame;
           match P.Req_decoder.next dec with
           | P.Dec_frame _ -> ()
           | _ -> failwith "codec bench: frame did not decode"))
  in
  let dec_resp name wire resp =
    let frame =
      let b = Buffer.create 128 in
      P.encode_response_wire b wire ~id:(Some 7) resp;
      Buffer.contents b
    in
    let dec = P.Resp_decoder.create wire in
    Test.make ~name
      (Staged.stage (fun () ->
           P.Resp_decoder.feed dec frame;
           match P.Resp_decoder.next dec with
           | P.Dec_frame _ -> ()
           | _ -> failwith "codec bench: response did not decode"))
  in
  let dec_window name wire =
    let chunk =
      let b = Buffer.create (codec_window * 96) in
      for id = 0 to codec_window - 1 do
        P.encode_request_wire b wire ~id:(Some id) (P.Set (key, value))
      done;
      Buffer.contents b
    in
    let dec = P.Req_decoder.create () in
    Test.make ~name
      (Staged.stage (fun () ->
           P.Req_decoder.feed dec chunk;
           for _ = 1 to codec_window do
             match P.Req_decoder.next dec with
             | P.Dec_frame _ -> ()
             | _ -> failwith "codec bench: window did not decode"
           done))
  in
  Test.make_grouped ~name:"codec"
    [ enc "text encode GET" P.Text (P.Get key);
      enc "bin encode GET" P.Binary (P.Get key);
      enc "text encode SET" P.Text (P.Set (key, value));
      enc "bin encode SET" P.Binary (P.Set (key, value));
      dec_req "text decode GET" P.Text (P.Get key);
      dec_req "bin decode GET" P.Binary (P.Get key);
      dec_req "text decode SET" P.Text (P.Set (key, value));
      dec_req "bin decode SET" P.Binary (P.Set (key, value));
      dec_resp "text decode VAL" P.Text (P.Value (Some value));
      dec_resp "bin decode VAL" P.Binary (P.Value (Some value));
      dec_window (Printf.sprintf "text decode %d SETs/read" codec_window) P.Text;
      dec_window (Printf.sprintf "bin decode %d SETs/read" codec_window) P.Binary ]

(* Reactor plumbing: the mailbox push+drain pair every worker→connection
   delivery pays, and the self-pipe roundtrip that the wakeup dedup exists
   to amortize — together they bound the per-response reactor overhead. *)
let reactor_tests () =
  let module M = Kex_service.Reactor.Mailbox in
  let mb = M.create () in
  let mailbox =
    Test.make ~name:"reactor mailbox push+drain"
      (Staged.stage (fun () ->
           M.push mb 1;
           match M.drain mb with
           | [ _ ] -> ()
           | _ -> failwith "mailbox bench: lost a message"))
  in
  let r, w = Unix.pipe () in
  let byte = Bytes.make 1 '!' in
  let wakeup =
    Test.make ~name:"reactor wakeup pipe roundtrip"
      (Staged.stage (fun () ->
           ignore (Unix.write w byte 0 1);
           ignore (Unix.read r byte 0 1)))
  in
  Test.make_grouped ~name:"reactor" [ mailbox; wakeup ]

let tests () =
  Test.make_grouped ~name:"runtime"
    ([ mcs_test ();
       lock_test "lock naive" Kex_runtime.Kex_lock.Naive;
       lock_test "lock inductive" Kex_runtime.Kex_lock.Inductive;
       lock_test "lock tree" Kex_runtime.Kex_lock.Tree;
       lock_test "lock fastpath" Kex_runtime.Kex_lock.Fast_path;
       lock_test "lock dsm-fastpath (fig6)" Kex_runtime.Kex_lock.Dsm_fast_path;
       lock_test "lock graceful" Kex_runtime.Kex_lock.Graceful ]
    @ try_tests ()
    @ [ assignment_test ();
      renaming_test ();
        universal_test ();
        resilient_test () ])

let run () =
  Out.section "RT: Bechamel microbenchmarks (single-domain latency, ns/op)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with Some (v :: _) -> v | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) -> Out.row "  %-32s %10.1f ns/op@." name ns)
    (List.sort compare rows);
  Out.section "RT: wire codec microbench (encode/decode per frame, frames/s)";
  let codec_raw = Benchmark.all cfg Instance.[ monotonic_clock ] (codec_tests ()) in
  let codec_results = Analyze.all ols Instance.monotonic_clock codec_raw in
  let codec_rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with Some (v :: _) -> v | Some [] | None -> nan
        in
        (name, ns) :: acc)
      codec_results []
  in
  List.iter
    (fun (name, ns) ->
      (* A "/read" row's op is a whole window: report it per frame. *)
      let ns = if String.ends_with ~suffix:"/read" name then ns /. float codec_window else ns in
      Out.row "  %-32s %10.1f ns/op %10.2f Mops/s@." name ns (1000. /. ns))
    (List.sort compare codec_rows);
  Out.section "RT: reactor plumbing microbench (mailbox + wakeup pipe, ns/op)";
  let reactor_raw = Benchmark.all cfg Instance.[ monotonic_clock ] (reactor_tests ()) in
  let reactor_results = Analyze.all ols Instance.monotonic_clock reactor_raw in
  let reactor_rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with Some (v :: _) -> v | Some [] | None -> nan
        in
        (name, ns) :: acc)
      reactor_results []
  in
  List.iter
    (fun (name, ns) -> Out.row "  %-32s %10.1f ns/op@." name ns)
    (List.sort compare reactor_rows)
