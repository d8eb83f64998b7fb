module M = Simcore.Memory
module Rng = Simcore.Rng
module Smr_intf = Smr.Smr_intf

type op = Get of int | Put of int | Remove of int

let schemes = [ "EBR"; "HP"; "IBR"; "HE"; "No MM"; "DRC"; "DRC (+snap)" ]

(* Same configurations as the Figure 7 sweep, so service-level numbers
   are comparable with the throughput figures. *)
let epoch_params = { Smr_intf.slots = 5; batch = 32; era_freq = 24 }

let hp_params = { Smr_intf.slots = 5; batch = 32; era_freq = 1 }

module H_ebr = Cds.Hash_smr.Make (Smr.Ebr)
module H_hp = Cds.Hash_smr.Make (Smr.Hp)
module H_ibr = Cds.Hash_smr.Make (Smr.Ibr)
module H_he = Cds.Hash_smr.Make (Smr.He)
module H_nomm = Cds.Hash_smr.Make (Smr.Nomm)

type t = {
  exec : int -> op -> bool;
  flush : unit -> unit;
  keys : unit -> int list;
}

let prefill_keys ~seed ~keyspace ~prefill =
  if prefill > keyspace then
    invalid_arg "Kv.create: prefill larger than keyspace";
  let keys = Array.init keyspace (fun i -> i) in
  Rng.shuffle (Rng.create ~seed:(seed + 11)) keys;
  Array.sub keys 0 prefill

let wrap (type s) (module S : Cds.Set_intf.OPS with type t = s) (s : s)
    ~procs ~seed ~keyspace ~prefill =
  let setup = S.handle s (-1) in
  Array.iter
    (fun k -> ignore (S.insert setup k))
    (prefill_keys ~seed ~keyspace ~prefill);
  let handles = Array.init procs (S.handle s) in
  let exec pid op =
    let h = if pid < 0 then setup else handles.(pid) in
    match op with
    | Get k -> S.contains h k
    | Put k -> S.insert h k
    | Remove k -> S.delete h k
  in
  {
    exec;
    flush = (fun () -> S.flush s);
    keys = (fun () -> S.to_list s);
  }

module type HASH_SMR = sig
  include Cds.Set_intf.OPS

  val create :
    M.t -> procs:int -> params:Smr_intf.params -> buckets:int -> t
end

let create ~scheme mem ~procs ~buckets ~keyspace ~prefill ~seed =
  let w (type s) (module S : HASH_SMR with type t = s) ~params =
    wrap
      (module S : Cds.Set_intf.OPS with type t = s)
      (S.create mem ~procs ~params ~buckets)
      ~procs ~seed ~keyspace ~prefill
  in
  let w_rc (type s) (module S : Cds.Hash_rc.S with type t = s) =
    wrap
      (module S : Cds.Set_intf.OPS with type t = s)
      (S.create mem ~procs ~buckets)
      ~procs ~seed ~keyspace ~prefill
  in
  match scheme with
  | "EBR" -> w (module H_ebr) ~params:epoch_params
  | "HP" -> w (module H_hp) ~params:hp_params
  | "IBR" -> w (module H_ibr) ~params:epoch_params
  | "HE" -> w (module H_he) ~params:epoch_params
  | "No MM" -> w (module H_nomm) ~params:epoch_params
  | "DRC" -> w_rc (module Cds.Hash_rc.Plain)
  | "DRC (+snap)" -> w_rc (module Cds.Hash_rc.With_snapshots)
  | other -> invalid_arg ("Kv.create: unknown scheme " ^ other)

let exec t ~pid op = t.exec pid op

let flush t = t.flush ()

let keys t = t.keys ()
