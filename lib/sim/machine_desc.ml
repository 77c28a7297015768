(* Re-export of the machine-description record at the simulator's level, so
   clients can write [Epic_sim.Machine_desc.itanium2] without reaching into
   Epic_mach.  The types are equal: a description built here parameterizes
   the scheduler (an argument from [Epic_core.Driver.compile_ir]) and the
   simulator ([Machine.run ?desc]) alike. *)

include Epic_mach.Machine_desc
