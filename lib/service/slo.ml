module H = Simcore.Stats.Histogram

(* Per-request critical-path totals, summed over the completed requests
   of one cell (see {!Bench}: profiler group deltas taken around each
   serve). [queue_wait + service] accounts for every latency tick;
   [retry_stall + reclaim_stall] are the attributable parts of
   [service]. *)
type breakdown = {
  requests : int;
  queue_wait : int;
  service : int;
  retry_stall : int;
  reclaim_stall : int;
}

type report = {
  scheme : string;
  rate : int;
  offered : int;
  completed : int;
  ok : int;
  shed : int;
  makespan : int;
  latency : H.h;
  queueing : H.h;
  counters : (string * int) list;
  breakdown : breakdown option;
  flight : string option;
}

let per_kilotick count makespan =
  float_of_int count *. 1000.0 /. float_of_int (max 1 makespan)

let throughput r = per_kilotick r.completed r.makespan

let goodput r = per_kilotick r.ok r.makespan

let shed_rate r =
  if r.offered = 0 then 0.0
  else float_of_int r.shed /. float_of_int r.offered

let p999 r = H.quantile r.latency 0.999

let p9999 r = H.quantile r.latency 0.9999

let pass ~slo r = p999 r <= float_of_int slo

let verdict ~slo r =
  if pass ~slo r then
    Printf.sprintf "pass  (p99.9 = %.0f <= %d ticks, shed %.1f%%)" (p999 r)
      slo
      (100.0 *. shed_rate r)
  else
    Printf.sprintf "FAIL  (p99.9 = %.0f > %d ticks, shed %.1f%%)" (p999 r) slo
      (100.0 *. shed_rate r)

let quantile_points =
  [
    (0.5, "p50"); (0.9, "p90"); (0.99, "p99"); (0.999, "p99.9");
    (0.9999, "p99.99");
  ]

(* One flat JSON object per report: string and fixed-point number
   fields only. Keys are literals; the scheme name is escaped. *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let to_json r =
  let int name v = Printf.sprintf "\"%s\": %d" name v in
  let float ~dec name v = Printf.sprintf "\"%s\": %.*f" name dec v in
  let quantiles =
    List.map
      (fun (q, name) -> float ~dec:1 name (H.quantile r.latency q))
      quantile_points
  in
  let breakdown =
    match r.breakdown with
    | None -> []
    | Some b ->
        [
          int "bd_requests" b.requests;
          int "bd_queue_wait" b.queue_wait;
          int "bd_service" b.service;
          int "bd_retry_stall" b.retry_stall;
          int "bd_reclaim_stall" b.reclaim_stall;
        ]
  in
  let fields =
    [
      "\"scheme\": " ^ json_string r.scheme;
      int "rate" r.rate;
      int "offered" r.offered;
      int "completed" r.completed;
      int "ok" r.ok;
      int "shed" r.shed;
      int "makespan" r.makespan;
      float ~dec:3 "throughput" (throughput r);
      float ~dec:3 "goodput" (goodput r);
      float ~dec:4 "shed_rate" (shed_rate r);
    ]
    @ quantiles @ breakdown
  in
  "{" ^ String.concat ", " fields ^ "}"
