module Rng = Simcore.Rng
module Sets = Cds.Set_catalogue

type op = Get of int | Put of int | Remove of int

let schemes = [ "EBR"; "HP"; "IBR"; "HE"; "No MM"; "DRC"; "DRC (+snap)" ]

type t = Sets.instance

let prefill_keys ~seed ~keyspace ~prefill =
  if prefill > keyspace then
    invalid_arg "Kv.create: prefill larger than keyspace";
  let keys = Array.init keyspace (fun i -> i) in
  Rng.shuffle (Rng.create ~seed:(seed + 11)) keys;
  Array.sub keys 0 prefill

let create ~scheme mem ~procs ~buckets ~keyspace ~prefill ~seed =
  if not (List.mem scheme schemes) then
    invalid_arg ("Kv.create: unknown scheme " ^ scheme);
  let keys = prefill_keys ~seed ~keyspace ~prefill in
  let t = Sets.create Sets.Hash_set scheme mem ~procs ~buckets in
  Array.iter (fun k -> ignore (t.insert (-1) k)) keys;
  t

let exec (t : t) ~pid = function
  | Get k -> t.contains pid k
  | Put k -> t.insert pid k
  | Remove k -> t.delete pid k

let flush (t : t) = t.flush ()

let keys (t : t) = t.to_list ()
