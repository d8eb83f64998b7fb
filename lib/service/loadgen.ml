module Rng = Simcore.Rng
module Dist = Simcore.Dist

type key_dist = Uniform | Zipfian of float

type mix = { gets : int; puts : int; removes : int }

let default_mix = { gets = 90; puts = 5; removes = 5 }

let mix_valid m =
  m.gets >= 0 && m.puts >= 0 && m.removes >= 0
  && m.gets + m.puts + m.removes = 100

type arrival =
  | Fixed
  | Poisson
  | Bursty of { on : int; off : int }
  | Closed of { think : int }

let pp_arrival ppf = function
  | Fixed -> Format.fprintf ppf "fixed"
  | Poisson -> Format.fprintf ppf "poisson"
  | Bursty { on; off } -> Format.fprintf ppf "burst:%d:%d" on off
  | Closed { think } -> Format.fprintf ppf "closed:%d" think

type req = { arr : int; client : int; op : Kv.op }

(* Arrival instants of the open-loop processes, ascending, all < duration.
   [rate] is requests per kilotick. Bursty arrivals are a Poisson process
   generated in cumulative on-time at the compressed rate and projected
   onto the on/off timeline, so the average offered load stays [rate]
   while the instantaneous load inside a burst is (on+off)/on times it. *)
let arrival_times ~arrival ~rate ~duration rng =
  let gap = 1000.0 /. float_of_int rate in
  let acc = ref [] and n = ref 0 in
  let push t = acc := t :: !acc; incr n in
  (match arrival with
  | Closed _ -> invalid_arg "Loadgen.arrival_times: closed-loop has no arrivals"
  | Fixed ->
      let t = ref 0.0 in
      while int_of_float !t < duration do
        push (int_of_float !t);
        t := !t +. gap
      done
  | Poisson ->
      let t = ref 0 in
      while !t < duration do
        push !t;
        t := !t + Dist.Poisson.interval ~mean:gap rng
      done
  | Bursty { on; off } ->
      let b = Dist.Onoff.create ~on ~off in
      let compressed =
        gap *. float_of_int on /. float_of_int (Dist.Onoff.period b)
      in
      let t_on = ref 0 in
      let t = ref 0 in
      while !t < duration do
        push !t;
        t_on := !t_on + Dist.Poisson.interval ~mean:compressed rng;
        t := Dist.Onoff.project b !t_on
      done);
  (* Built by pushing ascending instants; reverse restores the order. *)
  Array.of_list (List.rev !acc)

let draw_op ~mix ~key_dist ~keyspace zipf rng =
  let k =
    match key_dist with
    | Uniform -> Dist.uniform rng ~n:keyspace
    | Zipfian _ -> Dist.Zipf.draw (Option.get zipf) rng
  in
  let r = Rng.int rng 100 in
  if r < mix.gets then Kv.Get k
  else if r < mix.gets + mix.puts then Kv.Put k
  else Kv.Remove k

let generate ~seed ~arrival ~rate ~duration ~clients ~key_dist ~keyspace ~mix
    () =
  if rate <= 0 then invalid_arg "Loadgen.generate: rate must be positive";
  if duration <= 0 then invalid_arg "Loadgen.generate: duration must be positive";
  if clients <= 0 then invalid_arg "Loadgen.generate: clients must be positive";
  if keyspace <= 0 then invalid_arg "Loadgen.generate: keyspace must be positive";
  if not (mix_valid mix) then
    invalid_arg "Loadgen.generate: mix percentages must sum to 100";
  let root = Rng.create ~seed:(seed + 101) in
  (* Independent streams: arrival instants must not depend on how many
     random draws each request body consumed. *)
  let arr_rng = Rng.split root and req_rng = Rng.split root in
  let zipf =
    match key_dist with
    | Zipfian theta -> Some (Dist.Zipf.create ~n:keyspace ~theta)
    | Uniform -> None
  in
  let times =
    match arrival with
    | Closed _ ->
        (* Closed-loop spends the same request budget the open-loop
           processes would offer ([rate * duration] in expectation);
           pacing comes from completions plus think time, so arrival
           instants are unused (0). *)
        Array.make (max 1 (rate * duration / 1000)) 0
    | _ -> arrival_times ~arrival ~rate ~duration arr_rng
  in
  Array.map
    (fun arr ->
      let client = Rng.int req_rng clients in
      let op = draw_op ~mix ~key_dist ~keyspace zipf req_rng in
      { arr; client; op })
    times

let worker_of_client ~workers client = client mod workers

(* Client affinity: requests partition by [client mod workers], each
   shard preserving arrival order — the FIFO-per-client property behind
   read-your-writes (see {!Kv}). *)
let shard reqs ~workers =
  if workers <= 0 then invalid_arg "Loadgen.shard: workers must be positive";
  let counts = Array.make workers 0 in
  Array.iter
    (fun r -> counts.(worker_of_client ~workers r.client) <- counts.(worker_of_client ~workers r.client) + 1)
    reqs;
  let shards =
    Array.init workers (fun w ->
        Array.make counts.(w) { arr = 0; client = 0; op = Kv.Get 0 })
  in
  let fill = Array.make workers 0 in
  Array.iter
    (fun r ->
      let w = worker_of_client ~workers r.client in
      shards.(w).(fill.(w)) <- r;
      fill.(w) <- fill.(w) + 1)
    reqs;
  shards
