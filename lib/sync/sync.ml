(* This body is the one shape srclint's S1 check accepts after a bare
   Mutex.lock: a match whose value and exception branches both unlock the
   same mutex, the exception branch re-raising. *)
let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      raise e
