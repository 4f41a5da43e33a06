module Mem = struct
  type 'a m = 'a

  let return x = x
  let bind m f = f m

  type ctx = int
  type block = int Atomic.t array
  type cell = int Atomic.t

  let alloc _ ?owner:_ ~label:_ ~init len = Array.init len (fun _ -> Atomic.make init)
  let cell = Array.get
  let read = Atomic.get
  let write = Atomic.set
  let faa = Atomic.fetch_and_add
  let bounded_faa = Atomic_ext.bounded_fetch_and_add
  let cas c ~expected ~desired = Atomic.compare_and_set c expected desired
  let tas = Atomic_ext.test_and_set
  let swap = Atomic.exchange

  let await c pred =
    while not (pred (Atomic.get c)) do
      Domain.cpu_relax ()
    done

  type 'a per_pid = 'a array

  let per_pid n init = Array.init n init
  let get = Array.get
  let set = Array.set
end

include Kexclusion.Figures.Make (Mem)
