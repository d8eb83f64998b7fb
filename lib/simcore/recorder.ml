(* The event ring: an always-on, bounded, per-process ring of recent
   typed events. One kind of instance is the heap's flight recorder,
   kept cheap enough to leave enabled in every run and dumped as one
   merged timeline when something goes wrong (a {!Memory.Fault}, a
   sanitizer or race report, an SLO breach); another is the
   [--trace-out] tracer {!Sim.run} records context switches into,
   exported as Chrome trace-event JSON.

   Hot-path discipline: [record] is a handful of int stores into
   parallel arrays — no allocation, no formatting, no branching on
   event content. Labels are stored by reference (callers pass
   constant or long-lived strings: block tags, "free", "switch").
   Events are materialized into {!event} records only when read.

   Per-process rings are allocated lazily on the first event from that
   pid, so an idle recorder costs one small outer array. *)

type kind = Instant | Span_begin | Span_end | Count of int

type event = { step : int; pid : int; run : int; label : string; kind : kind }

type ring = {
  steps : int array;
  kinds : int array;
      (* [code lor (run lsl 2)]: code 0 instant, 1 span begin, 2 span
         end, 3 count *)
  values : int array;  (* count payload *)
  labels : string array;
  mutable next : int;  (* total recorded; slot = next mod capacity *)
}

type t = {
  here : Proc.here;
      (* the creating domain's env cell: [record] reads pid and global
         step from it without a domain-local lookup *)
  capacity : int;
  mutable rings : ring option array;  (* index pid + 1 *)
  mutable run : int;  (* bumped by {!Sim.run} on a tracer *)
}

(* Dumping on failure is reporting, not measurement; it writes to
   stderr and never perturbs simulated state. Off by default so unit
   tests that probe the fault machinery on purpose stay quiet; the
   repro CLI switches it on for interactive runs. *)
let auto_dump = Atomic.make false (* lint: allow-atomic *)

let set_auto_dump v = Atomic.set auto_dump v (* lint: allow-atomic *)

let auto_dump_enabled () = Atomic.get auto_dump (* lint: allow-atomic *)

let default_capacity = 32

let create ?(capacity = default_capacity) () =
  assert (capacity > 0);
  { here = Proc.here (); capacity; rings = Array.make 16 None; run = 0 }

let fresh t =
  {
    steps = Array.make t.capacity 0;
    kinds = Array.make t.capacity 0;
    values = Array.make t.capacity 0;
    labels = Array.make t.capacity "";
    next = 0;
  }

let ring_for t pid =
  (* Pids below -1 do not occur; clamp to the orchestrator's ring. *)
  let i = if pid < -1 then 0 else pid + 1 in
  if i >= Array.length t.rings then begin
    (* The table grows by doubling, so it spans the pids seen so far. *)
    let a = Array.make (Int.max (i + 1) (2 * Array.length t.rings)) None in
    Array.blit t.rings 0 a 0 (Array.length t.rings);
    t.rings <- a
  end;
  match t.rings.(i) with
  | Some r -> r
  | None ->
      let r = fresh t in
      t.rings.(i) <- Some r;
      r

let record t code value label =
  let env = t.here.Proc.env in
  let r = ring_for t (match env with Some e -> e.Proc.pid | None -> -1) in
  let s = r.next mod t.capacity in
  r.steps.(s) <- (match env with Some e -> e.Proc.gclock () | None -> 0);
  r.kinds.(s) <- code lor (t.run lsl 2);
  r.values.(s) <- value;
  r.labels.(s) <- label;
  r.next <- r.next + 1

let instant t label = record t 0 0 label

let span_begin t label = record t 1 0 label

let span_end t label = record t 2 0 label

let count t label v = record t 3 v label

let new_run t = t.run <- t.run + 1

let clear t =
  Array.fill t.rings 0 (Array.length t.rings) None;
  t.run <- 0

(* {1 Reading} *)

(* Visit one ring's retained slots, oldest first: [f slot seq] with the
   event's sequence number within the ring. *)
let iter_ring t r f =
  for j = r.next - Int.min r.next t.capacity to r.next - 1 do
    f (j mod t.capacity) j
  done

let event_at r ~pid s =
  let k = r.kinds.(s) in
  {
    step = r.steps.(s);
    pid;
    run = k lsr 2;
    label = r.labels.(s);
    kind =
      (match k land 3 with
      | 0 -> Instant
      | 1 -> Span_begin
      | 2 -> Span_end
      | _ -> Count r.values.(s));
  }

(* All retained events of all processes, merged oldest-first by run and
   global step (ties in pid order, then ring order — deterministic). *)
let events t =
  let acc = ref [] in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some r ->
          iter_ring t r (fun s j ->
              let e = event_at r ~pid:(i - 1) s in
              acc := ((e.run, e.step, i, j), e) :: !acc))
    t.rings;
  List.sort (fun (ka, _) (kb, _) -> compare ka kb) !acc |> List.map snd

let pp_event ppf e =
  let text =
    match e.kind with
    | Instant -> e.label
    | Span_begin -> e.label ^ " {"
    | Span_end -> "} " ^ e.label
    | Count v -> Printf.sprintf "%s = %d" e.label v
  in
  Format.fprintf ppf "[%d] p%d: %s@." e.step e.pid text

let dump_string ?(header = "flight recorder") t =
  let evs = events t in
  let b = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "--- %s (%d events, newest last)@." header
    (List.length evs);
  List.iter (fun e -> pp_event ppf e) evs;
  Format.fprintf ppf "--- end %s@." header;
  Format.pp_print_flush ppf ();
  Buffer.contents b

(* {1 Chrome trace-event export}

   One JSON object per retained event, in the "JSON Object Format"
   ({"traceEvents": [...]}) that chrome://tracing and Perfetto load.
   Chrome's [pid] axis carries the simulation run (every [Sim.run]
   against this recorder gets its own process group), [tid] carries
   the simulated process, and [ts] is the virtual global step. Each
   ring is written oldest first, straight off its arrays to the channel,
   so [ts] is monotone per (run, process) track and neither an event
   list nor the text is held in memory. *)

let output_escaped oc s =
  String.iter
    (fun c ->
      match c with
      | '"' -> output_string oc "\\\""
      | '\\' -> output_string oc "\\\\"
      | c when Char.code c < 32 -> Printf.fprintf oc "\\u%04x" (Char.code c)
      | c -> output_char oc c)
    s

let chrome_json oc t =
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some r ->
          iter_ring t r (fun s _ ->
              let k = r.kinds.(s) in
              if not !first then output_char oc ',';
              first := false;
              output_string oc "{\"name\":\"";
              output_escaped oc r.labels.(s);
              Printf.fprintf oc "\",\"ph\":\"%c\",\"pid\":%d,\"tid\":%d,\"ts\":%d"
                "iBEC".[k land 3] (k lsr 2) (i - 1) r.steps.(s);
              match k land 3 with
              | 0 -> output_string oc ",\"s\":\"t\"}"
              | 3 -> Printf.fprintf oc ",\"args\":{\"value\":%d}}" r.values.(s)
              | _ -> output_char oc '}'))
    t.rings;
  output_string oc "],\"displayTimeUnit\":\"ms\"}"
