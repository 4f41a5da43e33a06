type kind = Local | Remote
type model = Cache_coherent | Distributed

(* CC validity: one presence bit per (process, cell), [bits] processes to
   an int and [words] ints to a cell, so a read tests and sets one bit and
   a write clears its cell's words before setting the writer's bit. *)
let bits = 62

type t = {
  which : model;
  words : int;  (* ints per cell; at least 1, so pid 0 always has a word *)
  mutable valid : int array;  (* cell [a]'s words start at [a * words] *)
}

let create which ~n_procs =
  let words = max 1 ((n_procs + bits - 1) / bits) in
  { which; words; valid = Array.make (64 * words) 0 }

let model t = t.which

(* The index of [pid]'s word of cell [a]; grows the store to cover [a]. *)
let word t ~pid a =
  let len = Array.length t.valid in
  if (a + 1) * t.words > len then begin
    let valid = Array.make (max (2 * len) ((a + 1) * t.words)) 0 in
    Array.blit t.valid 0 valid 0 len;
    t.valid <- valid
  end;
  (a * t.words) + (pid / bits)

let cc_read t ~pid a =
  let i = word t ~pid a and bit = 1 lsl (pid mod bits) in
  if t.valid.(i) land bit <> 0 then Local
  else begin
    t.valid.(i) <- t.valid.(i) lor bit;
    Remote
  end

(* A write or read-modify-write claims the line: it invalidates every other
   copy, leaves the writer with a valid copy, and always costs one remote
   reference (the paper counts every write statement as remote). *)
let cc_write t ~pid a =
  let i = word t ~pid a in
  Array.fill t.valid (a * t.words) t.words 0;
  t.valid.(i) <- 1 lsl (pid mod bits);
  Remote

let dsm_access mem ~pid a =
  match Memory.owner mem a with Some p when p = pid -> Local | Some _ | None -> Remote

let charge t mem ~pid (step : Op.step) =
  match t.which with
  | Cache_coherent -> (
      match step with
      | Op.Read a -> cc_read t ~pid a
      | Op.Write (a, _) | Op.Faa (a, _) | Op.Bounded_faa (a, _, _, _)
      | Op.Cas (a, _, _) | Op.Tas a | Op.Swap (a, _) ->
          cc_write t ~pid a
      | Op.Delay _ -> Local
      | Op.Atomic_block _ -> Remote)
  | Distributed -> (
      match step with
      | Op.Read a | Op.Write (a, _) | Op.Faa (a, _) | Op.Bounded_faa (a, _, _, _)
      | Op.Cas (a, _, _) | Op.Tas a | Op.Swap (a, _) ->
          dsm_access mem ~pid a
      | Op.Delay _ -> Local
      | Op.Atomic_block _ -> Remote)

type block_charge = { block_remote : int; block_local : int }

let charge_block t mem ~pid fp =
  let remote = ref 0 and local = ref 0 in
  let tally = function Remote -> incr remote | Local -> incr local in
  (match t.which with
  | Cache_coherent ->
      (* A cell both read and written inside the block is one RMW on its
         line: the read is absorbed into the (always remote) write charge,
         exactly as a standalone Faa/Cas/Tas is charged. *)
      Op.Footprint.iter_pure_reads fp (fun a -> tally (cc_read t ~pid a));
      Op.Footprint.iter_writes fp (fun a -> tally (cc_write t ~pid a))
  | Distributed ->
      Op.Footprint.iter_writes fp (fun a -> tally (dsm_access mem ~pid a));
      Op.Footprint.iter_pure_reads fp (fun a -> tally (dsm_access mem ~pid a)));
  { block_remote = !remote; block_local = !local }

let pp_model ppf = function
  | Cache_coherent -> Format.pp_print_string ppf "cache-coherent"
  | Distributed -> Format.pp_print_string ppf "distributed shared-memory"
