module M = Simcore.Memory
module Proc = Simcore.Proc
module Prof = Simcore.Profiler

(* just::thread model: the (pointer, count) pair lives in two machine
   words updated by double-word CAS, so every cell update -- including
   the borrow fast path -- is a CAS loop paying the DW-CAS surcharge.
   Modelled on one simulated word with the surcharge applied explicitly
   (DESIGN.md par. 1). *)
module Cell = struct
  let scheme_name = "just::thread"

  let dw_extra = Simcore.Config.default_cost.c_dwcas_extra

  let read_raw = M.read

  let dwcas mem loc ~expected ~desired =
    Proc.pay dw_extra;
    M.cas mem loc ~expected ~desired

  let cas_raw = dwcas

  let faa_borrow mem loc =
    let rec loop () =
      let w = M.read mem loc in
      if dwcas mem loc ~expected:w ~desired:(w + 1) then w
      else Prof.with_phase Prof.Cas_retry loop
    in
    loop ()

  let swap_install mem loc ~ptr =
    let rec loop () =
      let w = M.read mem loc in
      if dwcas mem loc ~expected:w ~desired:(Split_core.init_word ptr) then w
      else Prof.with_phase Prof.Cas_retry loop
    in
    loop ()

  let try_install mem loc ~old_raw ~ptr =
    dwcas mem loc ~expected:old_raw ~desired:(Split_core.init_word ptr)

  module A = Simcore.Vm.Asm

  let emit_read_raw a ~loc =
    let r = A.reg a in
    A.read a r loc;
    r

  let emit_dwcas a ~loc ~expected ~desired =
    let r = A.reg a in
    A.payi a dw_extra;
    A.cas a r loc ~expected ~desired;
    r

  let emit_cas_raw = emit_dwcas

  let emit_faa_borrow a ~loc =
    let r_w = A.reg a and r_w1 = A.reg a in
    let retry = A.label a and out = A.label a in
    let frames = Vm_retry.start a in
    A.place a retry;
    A.read a r_w loc;
    A.addi a r_w1 r_w 1;
    let r_ok = emit_dwcas a ~loc ~expected:r_w ~desired:r_w1 in
    A.bnei a r_ok 0 out;
    Vm_retry.retry a frames;
    A.jmp a retry;
    A.place a out;
    Vm_retry.exit a frames;
    r_w

  let emit_swap_install a ~loc ~ptr =
    let r_iw = A.reg a and r_w = A.reg a in
    A.shli a r_iw ptr Split_core.ext_bits;
    let retry = A.label a and out = A.label a in
    let frames = Vm_retry.start a in
    A.place a retry;
    A.read a r_w loc;
    let r_ok = emit_dwcas a ~loc ~expected:r_w ~desired:r_iw in
    A.bnei a r_ok 0 out;
    Vm_retry.retry a frames;
    A.jmp a retry;
    A.place a out;
    Vm_retry.exit a frames;
    r_w
end

include Split_core.Make (Cell)
