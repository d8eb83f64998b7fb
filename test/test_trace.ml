(* The event ring ({!Recorder}) as a tracer and as the heap's flight
   recorder: bounded retention per process, typed kinds, ordering,
   scheduler wiring, the dump and the Chrome JSON export. *)

open Simcore

let labels r = List.map (fun (e : Recorder.event) -> e.label) (Recorder.events r)

let kinds r = List.map (fun (e : Recorder.event) -> e.kind) (Recorder.events r)

let test_emit_order () =
  let tr = Recorder.create ~capacity:16 () in
  let _ =
    Sim.run ~config:Config.small ~procs:1 (fun _ ->
        Recorder.instant tr "a";
        Proc.pay 1;
        Recorder.instant tr "b")
  in
  Alcotest.(check (list string)) "in order" [ "a"; "b" ] (labels tr);
  let steps = List.map (fun (e : Recorder.event) -> e.step) (Recorder.events tr) in
  Alcotest.(check bool) "steps nondecreasing" true
    (List.sort Int.compare steps = steps)

(* Each process keeps its own newest [capacity] events; the merged
   timeline is oldest-first with a pid tie-break. *)
let test_ring_bounded () =
  let r = Recorder.create ~capacity:4 () in
  let names = Array.init 10 (fun i -> Printf.sprintf "ev%d" i) in
  let _ =
    Sim.run ~config:Config.small ~procs:2 (fun pid ->
        Array.iteri
          (fun i l ->
            Recorder.count r l ((100 * pid) + i);
            Proc.pay 1)
          names)
  in
  let evs = Recorder.events r in
  Alcotest.(check int) "capacity events per pid" 8 (List.length evs);
  List.iter
    (fun pid ->
      Alcotest.(check (list string))
        (Printf.sprintf "pid %d keeps its latest" pid)
        [ "ev6"; "ev7"; "ev8"; "ev9" ]
        (List.filter_map
           (fun (e : Recorder.event) -> if e.pid = pid then Some e.label else None)
           evs))
    [ 0; 1 ];
  let rec ordered = function
    | (a : Recorder.event) :: (b :: _ as rest) ->
        (a.step < b.step || (a.step = b.step && a.pid <= b.pid))
        && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "merged timeline oldest-first, pid tie-break" true
    (ordered evs)

let test_scheduler_events () =
  let tr = Recorder.create ~capacity:64 () in
  let _ =
    Sim.run ~tracer:tr ~config:Config.small ~procs:3 (fun _ ->
        for _ = 1 to 5 do
          Proc.pay 2
        done)
  in
  let switches = List.filter (String.equal "switch") (labels tr) in
  Alcotest.(check bool) "switches recorded" true (List.length switches >= 3)

let test_fault_recorded () =
  let tr = Recorder.create ~capacity:8 () in
  let mem = Memory.create Config.small in
  let _ =
    Sim.run ~tracer:tr ~config:Config.small ~procs:1 (fun _ ->
        ignore (Memory.read mem 12345))
  in
  Alcotest.(check bool) "fault event present" true
    (List.exists
       (fun l -> String.length l >= 5 && String.sub l 0 5 = "fault")
       (labels tr))

let test_clear_and_dump () =
  let r = Recorder.create ~capacity:8 () in
  let _ = Sim.run ~config:Config.small ~procs:1 (fun _ -> Recorder.instant r "x") in
  Alcotest.(check int) "one event" 1 (List.length (Recorder.events r));
  let dump = Recorder.dump_string ~header:"flight" r in
  Alcotest.(check string) "dump: markers around one line"
    "--- flight (1 events, newest last)\n[1] p0: x\n--- end flight\n" dump;
  Recorder.new_run r;
  Recorder.clear r;
  Alcotest.(check int) "clear empties every ring" 0
    (List.length (Recorder.events r));
  Recorder.instant r "y";
  Alcotest.(check (list int)) "clear restarts the run count" [ 0 ]
    (List.map (fun (e : Recorder.event) -> e.run) (Recorder.events r))

let test_typed_kinds () =
  let tr = Recorder.create ~capacity:16 () in
  let _ =
    Sim.run ~config:Config.small ~procs:1 (fun _ ->
        Recorder.span_begin tr "work";
        Proc.pay 3;
        Recorder.count tr "level" 7;
        Proc.pay 1;
        Recorder.span_end tr "work";
        Recorder.instant tr "done")
  in
  Alcotest.(check bool) "kinds in order" true
    (kinds tr
    = [ Recorder.Span_begin; Recorder.Count 7; Recorder.Span_end; Recorder.Instant ]);
  match Recorder.events tr with
  | b :: _ :: e :: _ ->
      Alcotest.(check bool) "span has duration" true (e.step > b.step)
  | _ -> Alcotest.fail "expected four events"

let test_ring_wrap_typed () =
  let tr = Recorder.create ~capacity:3 () in
  let _ =
    Sim.run ~config:Config.small ~procs:1 (fun _ ->
        for i = 1 to 7 do
          Recorder.count tr "lvl" i;
          Proc.pay 1
        done;
        Recorder.span_end tr "tail")
  in
  Alcotest.(check int) "keeps capacity" 3 (List.length (Recorder.events tr));
  Alcotest.(check bool) "latest typed events survive" true
    (kinds tr = [ Recorder.Count 6; Recorder.Count 7; Recorder.Span_end ])

(* {1 Chrome trace-event JSON}

   No JSON library in the dependency set, so a tiny recursive-descent
   parser for the subset [chrome_json] emits: objects, arrays, strings
   (with escapes), integers. Strict — trailing garbage is an error. *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of int

let parse_json s =
  let pos = ref 0 in
  let peek () = if !pos < String.length s then s.[!pos] else '\000' in
  let rec ws () =
    if String.contains " \n\t\r" (peek ()) then begin
      incr pos;
      ws ()
    end
  in
  let eat c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "expected %C at %d" c !pos);
    incr pos
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\000' -> failwith "unterminated string"
      | '\\' ->
          let e = peek () in
          incr pos;
          if e = 'u' then begin
            let code = int_of_string ("0x" ^ String.sub s !pos 4) in
            Buffer.add_char b (Char.chr (code land 0xff));
            pos := !pos + 4
          end
          else Buffer.add_char b e;
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  (* Comma-separated [item]s up to [close]; the opener is consumed. *)
  let seq close item =
    ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        ws ();
        if peek () = ',' then begin
          incr pos;
          go acc
        end
        else begin
          eat close;
          List.rev acc
        end
      in
      go []
  in
  let rec value () =
    ws ();
    let start = !pos in
    incr pos;
    match s.[start] with
    | '{' ->
        Obj
          (seq '}' (fun () ->
               let k = str () in
               eat ':';
               (k, value ())))
    | '[' -> Arr (seq ']' value)
    | '"' ->
        decr pos;
        Str (str ())
    | '-' | '0' .. '9' ->
        while match peek () with '0' .. '9' -> true | _ -> false do
          incr pos
        done;
        Num (int_of_string (String.sub s start (!pos - start)))
    | c -> failwith (Printf.sprintf "unexpected %C at %d" c start)
  in
  let v = value () in
  ws ();
  if !pos <> String.length s then failwith "trailing garbage after JSON value";
  v

(* Golden shape test for the exporter: two runs against one recorder,
   spans, counts and escaped labels; parse the JSON back and check the
   trace-event contract (valid phases, per-(pid, tid) ts monotonicity,
   one Chrome pid group per run). *)
let test_chrome_json_valid () =
  let tr = Recorder.create ~capacity:256 () in
  for _run = 1 to 2 do
    ignore
      (Sim.run ~tracer:tr ~config:Config.small ~procs:3 (fun pid ->
           Recorder.span_begin tr "op \"quoted\\\"";
           for i = 1 to 10 do
             Proc.pay ((pid + i) mod 3);
             if i mod 4 = 0 then Recorder.count tr "level" i
           done;
           Recorder.span_end tr "op \"quoted\\\""))
  done;
  let file = Filename.temp_file "trace" ".json" in
  Out_channel.with_open_bin file (fun oc -> Recorder.chrome_json oc tr);
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  match parse_json text with
  | Obj top ->
      Alcotest.(check bool) "has displayTimeUnit" true
        (List.mem_assoc "displayTimeUnit" top);
      (match List.assoc_opt "traceEvents" top with
      | Some (Arr evs) ->
          Alcotest.(check bool) "events nonempty" true (evs <> []);
          let last_ts : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
          let run_groups = Hashtbl.create 4 in
          let saw_escaped = ref false and saw_switch = ref false in
          List.iter
            (function
              | Obj f ->
                  let num k =
                    match List.assoc_opt k f with
                    | Some (Num n) -> n
                    | _ -> Alcotest.failf "field %s missing or not a number" k
                  in
                  let str k =
                    match List.assoc_opt k f with
                    | Some (Str v) -> v
                    | _ -> Alcotest.failf "field %s missing or not a string" k
                  in
                  let ph = str "ph" in
                  Alcotest.(check bool) "phase valid" true
                    (List.mem ph [ "i"; "B"; "E"; "C" ]);
                  if str "name" = "op \"quoted\\\"" then saw_escaped := true;
                  if str "name" = "switch" && ph = "i" then saw_switch := true;
                  let pid = num "pid" and tid = num "tid" and ts = num "ts" in
                  Hashtbl.replace run_groups pid ();
                  (match Hashtbl.find_opt last_ts (pid, tid) with
                  | Some prev ->
                      if ts < prev then
                        Alcotest.failf
                          "ts regressed on track (pid=%d, tid=%d): %d < %d" pid
                          tid ts prev
                  | None -> ());
                  Hashtbl.replace last_ts (pid, tid) ts;
                  (if ph = "i" then
                     Alcotest.(check string) "instant scope" "t" (str "s"));
                  if ph = "C" then (
                    match List.assoc_opt "args" f with
                    | Some (Obj a) -> (
                        match List.assoc_opt "value" a with
                        | Some (Num _) -> ()
                        | _ -> Alcotest.fail "counter args.value missing")
                    | _ -> Alcotest.fail "counter event without args")
              | _ -> Alcotest.fail "trace event is not an object")
            evs;
          Alcotest.(check int) "one pid group per run" 2
            (Hashtbl.length run_groups);
          Alcotest.(check bool) "escaped label round-trips" true !saw_escaped;
          Alcotest.(check bool) "scheduler switch instants" true !saw_switch
      | _ -> Alcotest.fail "traceEvents missing or not an array")
  | _ -> Alcotest.fail "top level is not an object"

(* Golden text of the heap's flight-recorder dump after the seeded
   "unfenced publication" race of [repro run audit-races]: the setup
   and in-run allocations by tag, then one [data-race] note per
   reported word, in the merged timeline order. *)
let unfenced_publication_dump =
  "--- flight recorder: racecheck report (5 events, newest last)\n\
   [0] p-1: slot = 16\n\
   [3] p0: payload = 32\n\
   [8] p0: data-race = 16\n\
   [10] p1: data-race = 32\n\
   [11] p1: data-race = 33\n\
   --- end flight recorder: racecheck report\n"

let test_unfenced_publication_dump () =
  let config = { Config.default with Config.race = Racecheck.default_on } in
  let chaos = Sim.Chaos { pause_prob = 0.02; pause_steps = 200 } in
  let mem = Memory.create config in
  let slot = Memory.alloc mem ~tag:"slot" ~size:1 in
  ignore
    (Sim.run ~policy:chaos ~seed:42 ~config ~procs:2 (fun pid ->
         if pid = 0 then begin
           let b = Memory.alloc mem ~tag:"payload" ~size:2 in
           Memory.write mem b 41;
           Memory.write mem (b + 1) 42;
           Memory.write mem slot b
         end
         else begin
           let rec wait () =
             let p = Memory.read mem slot in
             if p = 0 then wait ()
             else begin
               ignore (Memory.read mem p);
               ignore (Memory.read mem (p + 1))
             end
           in
           wait ()
         end));
  Alcotest.(check int) "three words race" 3 (Memory.race_report_count mem);
  Alcotest.(check string) "dump text" unfenced_publication_dump
    (Recorder.dump_string ~header:"flight recorder: racecheck report"
       (Memory.recorder mem))

let suite =
  [
    Alcotest.test_case "emit order" `Quick test_emit_order;
    Alcotest.test_case "ring bounded" `Quick test_ring_bounded;
    Alcotest.test_case "scheduler events" `Quick test_scheduler_events;
    Alcotest.test_case "fault recorded" `Quick test_fault_recorded;
    Alcotest.test_case "clear and dump" `Quick test_clear_and_dump;
    Alcotest.test_case "typed event kinds" `Quick test_typed_kinds;
    Alcotest.test_case "ring wraparound (typed)" `Quick test_ring_wrap_typed;
    Alcotest.test_case "chrome trace JSON valid" `Quick test_chrome_json_valid;
    Alcotest.test_case "flight-recorder dump golden (unfenced publication)"
      `Quick test_unfenced_publication_dump;
  ]
