(* A no-op stand-in for the crs_obs library, with only the Trace and
   Metrics names lib/algorithms/opt_two.ml uses. Compiled beside a copy
   of that file (see ./dune), it turns the kernel's spans, attributes
   and histogram into nothing, so the copy times the kernel without
   its hooks. *)

module Trace = struct
  type value = Int of int

  let enabled () = false
  let with_span _ f = f ()
  let with_span_l _ _ f = f ()
  let add_attrs (_ : (string * value) list) = ()
end

module Metrics = struct
  type histogram = unit

  let enabled () = false
  let histogram (_ : string) = ()
  let observe (() : histogram) (_ : int) = ()
end
