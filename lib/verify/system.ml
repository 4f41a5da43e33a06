module type MODEL = sig
  type state

  val name : string
  val initial : state list
  val next : state -> (string Lazy.t * state) list
  val encode : state -> string
  val pp : Format.formatter -> state -> unit
  val invariants : (string * (state -> bool)) list
end
