type counter = { mutable shards : int array }

type gauge = { mutable cur : int; mutable peak : int }

type hist = { mutable hshards : Stats.Histogram.h option array }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

(* Shard index 0 is the setup handle (pid -1); the default covers the
   largest sweep (192 procs) so the hot path never grows. *)
let initial_shards = 208

(* Registries are created from whichever domain runs the benchmark cell
   (one per [Memory.create]), so the collection is the one piece of
   cross-domain shared state here; a mutex keeps it consistent. Under a
   parallel sweep the list order is completion order, not submission
   order — [merged_recent] is insensitive to it (sums and maxes only).
   Outside a collection nothing is kept, so a run that never reads its
   telemetry does not hold every heap's registry until it exits. *)
let registries_mutex = Mutex.create ()

let registries : t list ref = ref []

let collecting = ref false

let mark () =
  Mutex.lock registries_mutex;
  registries := [];
  collecting := true;
  Mutex.unlock registries_mutex

let recent () =
  Mutex.lock registries_mutex;
  collecting := false;
  let r = List.rev !registries in
  Mutex.unlock registries_mutex;
  r

let create () =
  let t =
    {
      counters = Hashtbl.create 16;
      gauges = Hashtbl.create 16;
      hists = Hashtbl.create 8;
    }
  in
  Mutex.lock registries_mutex;
  if !collecting then registries := t :: !registries;
  Mutex.unlock registries_mutex;
  t

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { shards = Array.make initial_shards 0 } in
      Hashtbl.add t.counters name c;
      c

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { cur = 0; peak = 0 } in
      Hashtbl.add t.gauges name g;
      g

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = { hshards = Array.make initial_shards None } in
      Hashtbl.add t.hists name h;
      h

(* Growth is deterministic (a function of the pids that touched the
   probe) and happens at most O(log P) times per probe. Kept out of
   [add] so the hot path is a non-recursive, inlinable array store. *)
let grow c i =
  let s = c.shards in
  let s' = Array.make (Int.max (i + 1) (2 * Array.length s)) 0 in
  Array.blit s 0 s' 0 (Array.length s);
  c.shards <- s'

let add c n =
  let i = Proc.self () + 1 in
  let s = c.shards in
  if i < Array.length s then s.(i) <- s.(i) + n
  else begin
    grow c i;
    c.shards.(i) <- c.shards.(i) + n
  end

let incr c = add c 1

let total c = Array.fold_left ( + ) 0 c.shards

let shard c ~pid =
  let i = pid + 1 in
  if i >= 0 && i < Array.length c.shards then c.shards.(i) else 0

let set_gauge g v =
  g.cur <- v;
  if v > g.peak then g.peak <- v

let add_gauge g d = set_gauge g (g.cur + d)

let gauge_value g = g.cur

let gauge_peak g = g.peak

let rec observe h v =
  let i = Proc.self () + 1 in
  if i < Array.length h.hshards then begin
    let s =
      match h.hshards.(i) with
      | Some s -> s
      | None ->
          let s = Stats.Histogram.create () in
          h.hshards.(i) <- Some s;
          s
    in
    Stats.Histogram.add s v
  end
  else begin
    let s' = Array.make (Int.max (i + 1) (2 * Array.length h.hshards)) None in
    Array.blit h.hshards 0 s' 0 (Array.length h.hshards);
    h.hshards <- s';
    observe h v
  end

let merged h =
  Array.fold_left
    (fun acc s ->
      match s with Some s -> Stats.Histogram.merge acc s | None -> acc)
    (Stats.Histogram.create ())
    h.hshards

let by_name cmp = List.sort (fun (a, _) (b, _) -> String.compare a b) cmp

let probes t =
  let acc = ref [] in
  Hashtbl.iter
    (fun name c -> acc := (name, ("counter", Array.length c.shards)) :: !acc)
    t.counters;
  Hashtbl.iter (fun name _ -> acc := (name, ("gauge", 1)) :: !acc) t.gauges;
  Hashtbl.iter
    (fun name h ->
      let live =
        Array.fold_left
          (fun n s -> match s with Some _ -> n + 1 | None -> n)
          0 h.hshards
      in
      acc := (name, ("hist", live)) :: !acc)
    t.hists;
  List.map (fun (name, (kind, shards)) -> (name, kind, shards)) (by_name !acc)

let snapshot t =
  let acc = ref [] in
  Hashtbl.iter (fun name c -> acc := (name, total c) :: !acc) t.counters;
  Hashtbl.iter
    (fun name g ->
      acc := (name ^ "/cur", g.cur) :: (name ^ "/peak", g.peak) :: !acc)
    t.gauges;
  Hashtbl.iter
    (fun name h ->
      let m = merged h in
      acc :=
        (name ^ "/n", Stats.Histogram.count m)
        :: (name ^ "/max", Stats.Histogram.max_sample m)
        :: (name ^ "/p50", Stats.Histogram.percentile m 0.5)
        :: (name ^ "/p99", Stats.Histogram.percentile m 0.99)
        :: !acc)
    t.hists;
  by_name !acc

let reset t =
  Hashtbl.iter (fun _ c -> Array.fill c.shards 0 (Array.length c.shards) 0)
    t.counters;
  Hashtbl.iter
    (fun _ g ->
      g.cur <- 0;
      g.peak <- 0)
    t.gauges;
  Hashtbl.iter
    (fun _ h -> Array.fill h.hshards 0 (Array.length h.hshards) None)
    t.hists

(* High-water marks combine with [max]; so do quantiles, where a sum
   across registries is meaningless (the honest aggregate, a quantile of
   the merged shards, is not derivable from per-registry snapshots). *)
let is_max_key k =
  let ends_with suffix =
    let ls = String.length suffix and lk = String.length k in
    lk >= ls && String.sub k (lk - ls) ls = suffix
  in
  ends_with "/peak" || ends_with "/max" || ends_with "/p50"
  || ends_with "/p99"

let merged_recent () =
  let acc : (string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun t ->
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt acc k with
          | None -> Hashtbl.add acc k v
          | Some prev ->
              Hashtbl.replace acc k (if is_max_key k then Int.max prev v else prev + v))
        (snapshot t))
    (recent ());
  by_name (Hashtbl.fold (fun k v l -> (k, v) :: l) acc [])
