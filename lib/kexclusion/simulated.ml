open Import

module Mem = struct
  type 'a m = 'a Op.t

  let return = Op.return
  let bind = Op.bind

  type ctx = Memory.t
  type block = Op.addr
  type cell = Op.addr

  let alloc mem ?owner ~label ~init len = Memory.alloc mem ?owner ~label ~init len
  let cell base i = base + i
  let read = Op.read
  let write = Op.write
  let faa = Op.faa
  let bounded_faa = Op.bounded_faa
  let cas = Op.cas
  let tas = Op.tas
  let swap = Op.swap
  let await = Op.await

  type 'a per_pid = 'a Pid_state.t

  let per_pid _ init = Pid_state.create init
  let get = Pid_state.get
  let set = Pid_state.set
end

include Figures.Make (Mem)
