(** The paper's Figures 2, 4, 6 and 7, the compositions of Section 3,
    and the MCS queue lock [12] that Section 5 sets as the k = 1 target,
    written once over a small memory signature.

    Every shared access is one {!MEMORY} operation, in the order of the
    paper's numbered statements.  Three instances run the same text:
    {!Simulated} turns each access into one [Op] step over a simulated
    [Memory] (the simulator, [kexd lint] and the Table 1 benchmarks
    measure it), [Kex_runtime.Direct] performs it on an [int Atomic.t]
    (the locks [kexd serve] admits through), and [Kex_verify.Traced]
    stops at each access, so the model checker ([kexd verify], [kexd
    hunt]) interleaves the figures one access at a time.  So the remote
    references counted for a figure are the accesses the service performs,
    and the text the checker explores is the text the service runs.

    Every instance carries the no-wait entry ([try_entry]), written here
    once; the model checker explores it, while the simulator's runner and
    lint do not call it yet. *)

(** Shared memory as the figures use it: cells holding integers, the
    paper's primitives, a busy-wait, and each process's private
    variables. *)
module type MEMORY = sig
  type 'a m
  (** A computation whose shared accesses are the memory's steps. *)

  val return : 'a -> 'a m
  val bind : 'a m -> ('a -> 'b m) -> 'b m

  type ctx
  (** Where a protocol instance allocates its cells and private state. *)

  type block
  (** A run of cells allocated together. *)

  type cell

  val alloc : ctx -> ?owner:int -> label:string -> init:int -> int -> block
  (** [alloc ctx ?owner ~label ~init len]: [len] cells holding [init].
      [owner] places them in a process's DSM partition and [label] names
      the region; the simulator reads both, the atomics ignore them. *)

  val cell : block -> int -> cell
  (** Cell [i] of a block. *)

  val read : cell -> int m
  val write : cell -> int -> unit m

  val faa : cell -> int -> int m
  (** Fetch-and-add; returns the old value. *)

  val bounded_faa : cell -> int -> lo:int -> hi:int -> int m
  (** Adds unless the result would leave [lo..hi] (footnote 2's
      non-underflowing fetch-and-increment); returns the old value. *)

  val cas : cell -> expected:int -> desired:int -> bool m

  val tas : cell -> bool m
  (** Stores 1; [true] iff the cell held 0. *)

  val swap : cell -> int -> int m
  (** Fetch-and-store; returns the old value. *)

  val await : cell -> (int -> bool) -> unit m
  (** Busy-waits, one read per iteration, until the cell satisfies the
      predicate. *)

  type 'a per_pid
  (** A private variable of every process ([slow], [last], the P/R
      banks). *)

  val per_pid : ctx -> (int -> 'a) -> 'a per_pid
  (** [per_pid ctx init]: [init pid] is [pid]'s initial value. *)

  val get : 'a per_pid -> int -> 'a
  val set : 'a per_pid -> int -> 'a -> unit
end

module type S = sig
  type 'a m
  type ctx

  type protocol = {
    name : string;
    entry : pid:int -> unit m;  (** the paper's [Acquire] *)
    exit : pid:int -> unit m;  (** the paper's [Release] *)
    try_entry : pid:int -> bool m;
        (** [Acquire] with no patience: [true] admits [pid] as [entry]
            would (it must [exit]); [false] means it would have had to
            wait, and it has already left every stage it passed.  A
            Figure 2 or 6 block whose fetch-and-add returns 0 runs its
            own exit statements instead of spinning; the release write
            among them frees any waiter that queued behind it. *)
  }

  type named = {
    assignment_name : string;
    acquire : pid:int -> int m;
        (** entry section returning a name in [0..k-1], held through the
            critical section *)
    try_acquire : pid:int -> int option m;
        (** [try_entry], then a name; [None] without waiting *)
    release : pid:int -> name:int -> unit m;
  }

  type block = ctx -> n:int -> k:int -> inner:protocol -> protocol
  (** Builds an (n,k)-exclusion from an inner (n,k+1)-exclusion. *)

  type cell

  val no_wait :
    inner:protocol -> x:cell -> exit:(pid:int -> unit m) -> pid:int -> bool m
  (** The no-wait entry of a block whose statement 2 tests [faa x (-1)]
      (Figures 2, 5 and 6): [inner]'s no-wait entry, then the
      fetch-and-add; where it returns 0, the block's [exit] runs
      instead of the wait. *)

  val trivial : unit -> protocol
  (** Skip: the (N,k) base case for k >= N; always admits. *)

  val fig2 : block
  (** Figure 2, the cache-coherent block: slot counter X and one spin
      location Q.  Entry and exit make at most 7 remote references on a
      cache-coherent machine, Theorem 1's per-level constant. *)

  val fig6 : block
  (** Figure 6, the bounded-space DSM block: k+2 spin locations per
      process, recycled through the R counters.  At most 14 remote
      references per level on a DSM machine (Theorem 5). *)

  val inductive : ctx -> block:block -> n:int -> k:int -> protocol
  (** Theorems 1 and 5: blocks stacked from k up to n, 7(n-k) remote
      references over Figure 2, 14(n-k) over Figure 6. *)

  val tree_levels : n:int -> k:int -> int
  (** Levels of the arbitration tree; 0 when k >= n. *)

  val tree : ctx -> block:block -> n:int -> k:int -> protocol
  (** Theorems 2 and 6 (Figure 3(a)): (2k,k) blocks on the leaf-to-root
      path, 7k or 14k remote references per level; a refused [try_entry]
      leaves the levels it passed. *)

  val fast_path_tree : ctx -> block:block -> n:int -> k:int -> protocol
  (** Theorems 3 and 7 (Figure 4): a bounded gate hands out k fast slots,
      the rest go through a {!tree} first; 7k+2 (14k+2 on DSM) remote
      references while contention is at most k.  [try_entry] refuses at
      an empty gate, and gives its slot back after a refusal in the final
      stage. *)

  val graceful : ctx -> block:block -> n:int -> k:int -> protocol
  (** Theorems 4 and 8 (Figure 3(b)): Figure 4 with nested fast paths as
      its slow path; contention c costs ceil(c/k) gate levels of 7k+2
      (14k+2) remote references. *)

  type renaming

  val renaming : ctx -> k:int -> renaming
  (** Figure 7's long-lived renaming, bits X[0..k-2]: names in [0..k-1]
      for at most k concurrent holders. *)

  val rename : renaming -> int m
  (** Test-and-set X[0], X[1], ... until one is won; name k-1 needs no
      bit.  Only while holding the enclosing k-exclusion. *)

  val unname : renaming -> name:int -> unit m

  val assignment : ctx -> kex:protocol -> k:int -> named
  (** Section 4: [kex], then a name from a fresh {!renaming}; the names
      add at most k remote references (Theorems 9 and 10). *)

  val mcs : ctx -> n:int -> protocol
  (** The MCS queue lock [12], mutual exclusion for n processes: at most
      7 remote references per acquisition on either machine, every wait
      on a cell of the waiter's own partition.  It tolerates no failure:
      a process that crashes in the queue blocks every process behind
      it.  [try_entry] refuses without a step. *)
end

module Make (M : MEMORY) :
  S with type 'a m = 'a M.m and type ctx = M.ctx and type cell = M.cell = struct
  type 'a m = 'a M.m
  type ctx = M.ctx
  type cell = M.cell

  type protocol = {
    name : string;
    entry : pid:int -> unit m;
    exit : pid:int -> unit m;
    try_entry : pid:int -> bool m;
  }

  type named = {
    assignment_name : string;
    acquire : pid:int -> int m;
    try_acquire : pid:int -> int option m;
    release : pid:int -> name:int -> unit m;
  }

  type block = ctx -> n:int -> k:int -> inner:protocol -> protocol

  let return = M.return
  let ( let* ) = M.bind
  let one ctx ~label ~init = M.cell (M.alloc ctx ~label ~init 1) 0

  let trivial () =
    { name = "trivial";
      entry = (fun ~pid:_ -> return ());
      exit = (fun ~pid:_ -> return ());
      try_entry = (fun ~pid:_ -> return true) }

  let no_wait ~inner ~x ~exit ~pid =
    let* admitted = inner.try_entry ~pid in
    if not admitted then return false
    else
      let* avail = M.faa x (-1) in
      if avail <> 0 then return true
      else
        let* () = exit ~pid in
        return false

  (* Statement numbers in comments refer to Figure 2 of the paper. *)
  let fig2 ctx ~n:_ ~k ~inner =
    let x = one ctx ~label:"fig2.X" ~init:k in
    let q = one ctx ~label:"fig2.Q" ~init:0 in
    let entry ~pid =
      let* () = inner.entry ~pid in
      (* 1 *)
      let* slots = M.faa x (-1) in
      (* 2 *)
      if slots = 0 then
        let* () = M.write q pid in
        (* 3: initialize spin location *)
        let* xv = M.read x in
        (* 4: still no slots available? *)
        if xv < 0 then M.await q (fun v -> v <> pid) (* 5: busy-wait until released *)
        else return ()
      else return ()
    in
    let exit ~pid =
      let* _ = M.faa x 1 in
      (* 6: release a slot *)
      let* () = M.write q pid in
      (* 7: release waiting process (if any) *)
      inner.exit ~pid
      (* 8 *)
    in
    { name = Printf.sprintf "fig2[k=%d]" k; entry; exit; try_entry = no_wait ~inner ~x ~exit }

  (* Statement numbers in comments refer to Figure 6 of the paper.  [Q] holds
     an encoded pair (pid, loc) with loc in 0..k+1. *)
  let fig6 ctx ~n:_ ~k ~inner =
    let slots = k + 2 in
    let enc ~pid ~loc = (pid * slots) + loc in
    let dec v = (v / slots, v mod slots) in
    let x = one ctx ~label:"fig6.X" ~init:k in
    let q = one ctx ~label:"fig6.Q" ~init:(enc ~pid:0 ~loc:0) in
    (* P[p][0..k+1] and R[p][0..k+1] are local to process p.  When this
       block sits inside a tree or nested fast path, the entering processes
       carry global ids. *)
    let bank name =
      M.per_pid ctx (fun pid ->
          M.alloc ctx ~owner:pid ~label:(Printf.sprintf "fig6.%s[p%d]" name pid) ~init:0 slots)
    in
    let p_bank = bank "P" in
    let r_bank = bank "R" in
    let p_cell ~pid ~loc = M.cell (M.get p_bank pid) loc in
    let r_cell ~pid ~loc = M.cell (M.get r_bank pid) loc in
    (* Q initially names process 0's location 0: make sure it exists even if
       process 0 never enters this instance. *)
    let _ = p_cell ~pid:0 ~loc:0 and _ = r_cell ~pid:0 ~loc:0 in
    (* The paper's private variable [last], persistent across acquisitions. *)
    let last = M.per_pid ctx (fun _ -> 0) in
    let entry ~pid =
      let* () = inner.entry ~pid in
      (* 1 *)
      let* avail = M.faa x (-1) in
      (* 2 *)
      if avail = 0 then begin
        (* 3–5: search, locally, for a spin location not in use, starting just
           after the last one used.  The paper shows the scan inspects at most
           k+2 locations before finding R[p][v] = 0. *)
        let start = (M.get last pid + 1) mod slots in
        let rec scan loc =
          let* r = M.read (r_cell ~pid ~loc) in
          if r <> 0 then scan ((loc + 1) mod slots) else continue_at loc
        and continue_at loc =
          let* () = M.write (p_cell ~pid ~loc) 0 in
          (* 6: initialize spin location *)
          let* u = M.read q in
          (* 7: get current spin location *)
          let upid, uloc = dec u in
          let* _ = M.faa (r_cell ~pid:upid ~loc:uloc) 1 in
          (* 8: announce a pending write to it *)
          let* q2 = M.read q in
          (* 9: spin location unchanged? *)
          let* () =
            if q2 = u then
              let* () = M.write (p_cell ~pid:upid ~loc:uloc) 1 in
              (* 10: release currently spinning process *)
              let* swapped = M.cas q ~expected:u ~desired:(enc ~pid ~loc) in
              (* 11: spinning process still the same? *)
              if swapped then begin
                M.set last pid loc;
                (* 12 *)
                let* xv = M.read x in
                (* 13: still no slots available? *)
                if xv < 0 then M.await (p_cell ~pid ~loc) (fun v -> v = 1) (* 14 *)
                else return ()
              end
              else return ()
            else return ()
          in
          let* _ = M.faa (r_cell ~pid:upid ~loc:uloc) (-1) in
          (* 15: finished with this spin location *)
          return ()
        in
        scan start
      end
      else return ()
    in
    let exit ~pid =
      let* _ = M.faa x 1 in
      (* 16: release a slot *)
      let* u = M.read q in
      (* 17 *)
      let upid, uloc = dec u in
      let* _ = M.faa (r_cell ~pid:upid ~loc:uloc) 1 in
      (* 18 *)
      let* q2 = M.read q in
      (* 19 *)
      let* () =
        if q2 = u then M.write (p_cell ~pid:upid ~loc:uloc) 1 (* 20 *) else return ()
      in
      let* _ = M.faa (r_cell ~pid:upid ~loc:uloc) (-1) in
      (* 21 *)
      inner.exit ~pid
      (* 22 *)
    in
    { name = Printf.sprintf "fig6[k=%d]" k; entry; exit; try_entry = no_wait ~inner ~x ~exit }

  let inductive ctx ~block ~n ~k =
    let rec build k = if k >= n then trivial () else block ctx ~n ~k ~inner:(build (k + 1)) in
    { (build k) with name = Printf.sprintf "inductive[n=%d,k=%d]" n k }

  let tree_levels ~n ~k =
    if k >= n then 0
    else begin
      (* Leaf level has ceil(n / 2k) blocks; each further level halves the
         block count until one block remains. *)
      let rec count m acc = if m <= 1 then acc else count (Spec.ceil_div m 2) (acc + 1) in
      count (Spec.ceil_div n (2 * k)) 1
    end

  let tree ctx ~block ~n ~k =
    if k >= n then trivial ()
    else begin
      let nlevels = tree_levels ~n ~k in
      (* instances.(l).(j): block j at level l, a (2k,k)-exclusion. *)
      let instances =
        Array.init nlevels (fun l ->
            let blocks_at_level = Spec.ceil_div (Spec.ceil_div n (2 * k)) (1 lsl l) in
            Array.init blocks_at_level (fun _ -> inductive ctx ~block ~n:(2 * k) ~k))
      in
      let node ~pid l = instances.(l).(pid / (2 * k) / (1 lsl l)) in
      let entry ~pid =
        let rec climb l =
          if l = nlevels then return ()
          else
            let* () = (node ~pid l).entry ~pid in
            climb (l + 1)
        in
        climb 0
      in
      let exit ~pid =
        let rec descend l =
          if l < 0 then return ()
          else
            let* () = (node ~pid l).exit ~pid in
            descend (l - 1)
        in
        descend (nlevels - 1)
      in
      (* A refusal at level [l] leaves levels [l-1 .. 0] in reverse order. *)
      let try_entry ~pid =
        let rec climb l =
          if l = nlevels then return true
          else
            let node = node ~pid l in
            let* admitted = node.try_entry ~pid in
            if not admitted then return false
            else
              let* above = climb (l + 1) in
              if above then return true
              else
                let* () = node.exit ~pid in
                return false
        in
        climb 0
      in
      { name = Printf.sprintf "tree[n=%d,k=%d]" n k; entry; exit; try_entry }
    end

  (* Statement numbers in comments refer to Figure 4 of the paper. *)
  let fast_path ctx ~block ~slow ~n ~k =
    let x = one ctx ~label:"fig4.X" ~init:k in
    let final = inductive ctx ~block ~n:(2 * k) ~k in
    (* The paper's private variable [slow], recording the path taken; it is
       written in the entry section and read back in the exit section.  Keyed
       by global pid (this instance may sit inside a nested fast path). *)
    let took_slow = M.per_pid ctx (fun _ -> false) in
    let entry ~pid =
      M.set took_slow pid false;
      (* 1 *)
      let* avail = M.bounded_faa x (-1) ~lo:0 ~hi:k in
      (* 2: claim a fast-path slot *)
      let* () =
        if avail = 0 then begin
          M.set took_slow pid true;
          (* 3 *)
          slow.entry ~pid (* 4: slow path *)
        end
        else return ()
      in
      final.entry ~pid
      (* 5: fast path, a (2k,k)-exclusion *)
    in
    let exit ~pid =
      let* () = final.exit ~pid in
      (* 6 *)
      if M.get took_slow pid then slow.exit ~pid (* 7–8 *)
      else
        let* _ = M.bounded_faa x 1 ~lo:0 ~hi:k in
        (* 9: return the fast-path slot *)
        return ()
    in
    (* No patience: the gate refuses at 0 instead of routing to the slow
       path, and a refusal in the final stage gives the gate slot back. *)
    let try_entry ~pid =
      M.set took_slow pid false;
      let* avail = M.bounded_faa x (-1) ~lo:0 ~hi:k in
      if avail = 0 then return false
      else
        let* admitted = final.try_entry ~pid in
        if admitted then return true
        else
          let* _ = M.bounded_faa x 1 ~lo:0 ~hi:k in
          return false
    in
    { name = Printf.sprintf "fastpath[n=%d,k=%d]" n k; entry; exit; try_entry }

  let fast_path_tree ctx ~block ~n ~k =
    if k >= n then trivial ()
    else begin
      let slow = tree ctx ~block ~n ~k in
      let p = fast_path ctx ~block ~slow ~n ~k in
      { p with name = Printf.sprintf "fastpath-tree[n=%d,k=%d]" n k }
    end

  let graceful ctx ~block ~n ~k =
    let rec build n =
      if n <= 2 * k then inductive ctx ~block ~n ~k
      else fast_path ctx ~block ~slow:(build (n - k)) ~n ~k
    in
    let p = build n in
    { p with name = Printf.sprintf "graceful[n=%d,k=%d]" n k }

  type renaming = { bits : M.block; k : int }

  (* Bits X[0..k-2]; name k-1 needs no bit (at most one process reaches it). *)
  let renaming ctx ~k = { bits = M.alloc ctx ~label:"fig7.X" ~init:0 (max 1 (k - 1)); k }

  let rename t =
    let rec go name =
      if name >= t.k - 1 then return (t.k - 1)
      else
        let* won = M.tas (M.cell t.bits name) in
        if won then return name else go (name + 1)
    in
    go 0

  let unname t ~name = if name < t.k - 1 then M.write (M.cell t.bits name) 0 else return ()

  let assignment ctx ~kex ~k =
    let renaming = renaming ctx ~k in
    let acquire ~pid =
      let* () = kex.entry ~pid in
      rename renaming
    in
    let try_acquire ~pid =
      let* admitted = kex.try_entry ~pid in
      if not admitted then return None
      else
        let* name = rename renaming in
        return (Some name)
    in
    let release ~pid ~name =
      let* () = unname renaming ~name in
      kex.exit ~pid
    in
    { assignment_name = Printf.sprintf "assignment[%s,k=%d]" kex.name k;
      acquire;
      try_acquire;
      release }

  (* The queue's links hold pid+1, 0 for nil.  [locked] and [next] of
     process p live in p's partition, so every wait is local on DSM too. *)
  let mcs ctx ~n =
    let tail = one ctx ~label:"mcs.tail" ~init:0 in
    let own name =
      Array.init n (fun pid ->
          M.cell (M.alloc ctx ~owner:pid ~label:(Printf.sprintf "mcs.%s[p%d]" name pid) ~init:0 1) 0)
    in
    let locked = own "locked" in
    let next = own "next" in
    let entry ~pid =
      let* () = M.write next.(pid) 0 in
      let* pred = M.swap tail (pid + 1) in
      if pred = 0 then return ()
      else
        let* () = M.write locked.(pid) 1 in
        let* () = M.write next.(pred - 1) (pid + 1) in
        M.await locked.(pid) (fun v -> v = 0)
    in
    let exit ~pid =
      let* succ = M.read next.(pid) in
      if succ <> 0 then M.write locked.(succ - 1) 0
      else
        let* released = M.cas tail ~expected:(pid + 1) ~desired:0 in
        if released then return ()
        else
          (* A successor has swapped itself in but not linked yet: wait for
             the link, then hand over. *)
          let* () = M.await next.(pid) (fun v -> v <> 0) in
          let* succ = M.read next.(pid) in
          M.write locked.(succ - 1) 0
    in
    { name = Printf.sprintf "mcs[n=%d]" n; entry; exit; try_entry = (fun ~pid:_ -> return false) }
end
