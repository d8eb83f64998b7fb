module M = Simcore.Memory
module Proc = Simcore.Proc

(* Destination word encoding: value [v] stored directly as [v lsl 1];
   an in-flight copy stores its descriptor address [d] as [d lsl 1 | 1].
   Descriptor layout (2 words): [d] = source address, [d+1] = result,
   where result 0 = unresolved and otherwise [v lsl 1 | 1]. *)

type ctx = { mem : M.t; ebr : Smr.Ebr.t; procs : int }

type dst = int

let create_ctx mem ~procs =
  let params = { Smr.Smr_intf.default_params with batch = 32 } in
  { mem; ebr = Smr.Ebr.create mem ~procs ~params; procs }

let addr d = d

let encode_value v =
  assert (v >= 0);
  v lsl 1

let make ctx ~init =
  let d = M.alloc ctx.mem ~tag:"swcopy.dst" ~size:1 in
  (* An SWMR register: the single writer's plain stores publish to
     concurrent readers, so the race checker must treat the destination
     as an atomic location (store-release / load-acquire). *)
  M.mark_race_sync ctx.mem d;
  M.write ctx.mem d (encode_value init);
  d

let make_packed ctx ~n ~init =
  assert (n >= 1 && n <= 8);
  let base = M.alloc ctx.mem ~tag:"swcopy.dst" ~size:n in
  Array.init n (fun i ->
      M.mark_race_sync ctx.mem (base + i);
      M.write ctx.mem (base + i) (encode_value init);
      base + i)

let my_handle ctx =
  let pid = Proc.self () in
  if pid < 0 then None else Some (Smr.Ebr.handle ctx.ebr pid)

let enter ctx =
  match my_handle ctx with Some h -> Smr.Ebr.begin_op h | None -> ()

let exit ctx =
  match my_handle ctx with Some h -> Smr.Ebr.end_op h | None -> ()

let vm_emit_enter ctx a ~pid =
  Smr.Ebr.vm_emit_begin_op (Smr.Ebr.handle ctx.ebr pid) a

let vm_emit_exit ctx a ~pid ~window =
  Smr.Ebr.vm_emit_end_op (Smr.Ebr.handle ctx.ebr pid) a ~res_reg:window

let plain_value w =
  if w land 1 <> 0 then invalid_arg "Swcopy.plain_value: copy in flight";
  w lsr 1

(* Resolve a descriptor: agree on the copied value by racing a CAS into
   the result word; the winner's read of the source is the copy's
   linearization point. *)
let resolve ctx d =
  let r = M.read ctx.mem (d + 1) in
  if r <> 0 then r lsr 1
  else begin
    let src = M.read ctx.mem d in
    let v = M.read ctx.mem src in
    ignore (M.cas ctx.mem (d + 1) ~expected:0 ~desired:(encode_value v lor 1));
    M.read ctx.mem (d + 1) lsr 1
  end

let read_raw ctx dst =
  let w = M.read ctx.mem dst in
  if w land 1 = 0 then w lsr 1 else resolve ctx (w lsr 1)

let read ctx dst =
  enter ctx;
  let v = read_raw ctx dst in
  exit ctx;
  v

let write ctx dst v = M.write ctx.mem dst (encode_value v)

let swcopy ctx dst ~src =
  match my_handle ctx with
  | None ->
      (* Sequential setup: the copy is trivially atomic. *)
      let v = M.read ctx.mem src in
      M.write ctx.mem dst (encode_value v);
      v
  | Some h ->
      let d = M.alloc ctx.mem ~tag:"swcopy.desc" ~size:2 in
      M.write ctx.mem d src;
      (* result word is already 0 = unresolved *)
      M.write ctx.mem dst ((d lsl 1) lor 1);
      let v = resolve ctx d in
      M.write ctx.mem dst (encode_value v);
      Smr.Ebr.retire h d;
      v
