module A = Simcore.Vm.Asm
module Prof = Simcore.Profiler

(* The register counting the frames this pass through the loop
   entered; [None] when the process is not profiled. *)
type t = int option

let start a =
  if Prof.active () then begin
    let r = A.reg a in
    A.movi a r 0;
    Some r
  end
  else None

let retry a = function
  | None -> ()
  | Some r ->
      A.host_leaf a (fun fr ->
          Prof.enter Prof.Cas_retry;
          fr.Simcore.Vm.regs.(r) <- fr.Simcore.Vm.regs.(r) + 1)

let exit a = function
  | None -> ()
  | Some r ->
      let skip = A.label a in
      A.beqi a r 0 skip;
      A.host_leaf a (fun fr ->
          for _ = 1 to fr.Simcore.Vm.regs.(r) do
            Prof.exit ()
          done);
      A.place a skip
