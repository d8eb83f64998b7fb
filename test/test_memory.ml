(* The simulated heap: allocation, atomic operations, fault detection,
   address reuse, and accounting — all sequential (no scheduler), except
   the span-read property, which needs a second process. *)

open Simcore

let fresh ?(reuse = true) () = Memory.create { Config.small with reuse }

let test_alloc_read_write () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:4 in
  Alcotest.(check bool) "positive address" true (a > 0);
  for i = 0 to 3 do
    Alcotest.(check int) "zeroed" 0 (Memory.read m (a + i))
  done;
  Memory.write m (a + 2) 77;
  Alcotest.(check int) "read back" 77 (Memory.read m (a + 2))

let test_line_alignment () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:1 in
  let b = Memory.alloc m ~tag:"t" ~size:1 in
  Alcotest.(check int) "a aligned" 0 (a mod 8);
  Alcotest.(check int) "b aligned" 0 (b mod 8);
  Alcotest.(check bool) "different lines" true (a / 8 <> b / 8)

let test_cas () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:1 in
  Memory.write m a 5;
  Alcotest.(check bool) "cas mismatch fails" false
    (Memory.cas m a ~expected:4 ~desired:9);
  Alcotest.(check int) "value unchanged" 5 (Memory.read m a);
  Alcotest.(check bool) "cas match succeeds" true
    (Memory.cas m a ~expected:5 ~desired:9);
  Alcotest.(check int) "value updated" 9 (Memory.read m a)

let test_faa_fas () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:1 in
  Alcotest.(check int) "faa returns old" 0 (Memory.faa m a 5);
  Alcotest.(check int) "faa negative" 5 (Memory.faa m a (-2));
  Alcotest.(check int) "value" 3 (Memory.read m a);
  Alcotest.(check int) "fas returns old" 3 (Memory.fas m a 100);
  Alcotest.(check int) "fas stored" 100 (Memory.read m a)

let expect_fault kind f =
  match f () with
  | _ -> Alcotest.fail "expected a fault"
  | exception Memory.Fault { kind = k; _ } ->
      Alcotest.(check string)
        "fault kind"
        (Memory.fault_kind_to_string kind)
        (Memory.fault_kind_to_string k)

let test_use_after_free () =
  let m = fresh ~reuse:false () in
  let a = Memory.alloc m ~tag:"t" ~size:2 in
  Memory.free m a; (* lint: allow-free *)
  expect_fault Memory.Use_after_free (fun () -> Memory.read m a);
  expect_fault Memory.Use_after_free (fun () -> Memory.write m (a + 1) 3);
  expect_fault Memory.Use_after_free (fun () -> Memory.faa m a 1)

let test_double_free () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:2 in
  Memory.free m a; (* lint: allow-free *)
  expect_fault Memory.Double_free (fun () ->
      Memory.free m a; (* lint: allow-free *)
      0)

let test_free_non_base () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"t" ~size:2 in
  expect_fault Memory.Not_a_block (fun () ->
      Memory.free m (a + 1); (* lint: allow-free *)
      0)

let test_null_and_oob () =
  let m = fresh () in
  expect_fault Memory.Null_deref (fun () -> Memory.read m 0);
  expect_fault Memory.Out_of_bounds (fun () -> Memory.read m 1_000_000)

let test_reuse () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"x" ~size:3 in
  Memory.write m a 9;
  Memory.free m a; (* lint: allow-free *)
  let b = Memory.alloc m ~tag:"y" ~size:3 in
  Alcotest.(check int) "same address reused" a b;
  Alcotest.(check int) "contents zeroed on reuse" 0 (Memory.read m b);
  Alcotest.(check (option string)) "new tag" (Some "y") (Memory.block_tag m b)

let test_no_reuse_mode () =
  let m = fresh ~reuse:false () in
  let a = Memory.alloc m ~tag:"x" ~size:3 in
  Memory.free m a; (* lint: allow-free *)
  let b = Memory.alloc m ~tag:"x" ~size:3 in
  Alcotest.(check bool) "fresh address" true (a <> b)

let test_reuse_size_class () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"x" ~size:3 in
  Memory.free m a; (* lint: allow-free *)
  let b = Memory.alloc m ~tag:"x" ~size:4 in
  Alcotest.(check bool) "different size not reused" true (a <> b)

let test_usage_accounting () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"x" ~size:2 in
  let b = Memory.alloc m ~tag:"x" ~size:2 in
  let _c = Memory.alloc m ~tag:"y" ~size:5 in
  Memory.free m a; (* lint: allow-free *)
  let u = Memory.usage m in
  Alcotest.(check int) "allocated" 3 u.Memory.allocated;
  Alcotest.(check int) "freed" 1 u.Memory.freed;
  Alcotest.(check int) "live" 2 u.Memory.live;
  Alcotest.(check int) "peak" 3 u.Memory.peak_live;
  Alcotest.(check int) "live words" 7 u.Memory.live_words;
  Alcotest.(check int) "live x" 1 (Memory.live_with_tag m "x");
  Alcotest.(check int) "live y" 1 (Memory.live_with_tag m "y");
  Alcotest.(check bool) "b live" true (Memory.block_is_live m b);
  Alcotest.(check bool) "a dead" false (Memory.block_is_live m a)

let test_iter_live () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"x" ~size:2 in
  let b = Memory.alloc m ~tag:"y" ~size:3 in
  Memory.free m a; (* lint: allow-free *)
  let seen = ref [] in
  Memory.iter_live m (fun ~base ~size ~tag -> seen := (base, size, tag) :: !seen);
  Alcotest.(check (list (triple int int string))) "only live blocks"
    [ (b, 3, "y") ] !seen

let test_block_base () =
  let m = fresh () in
  let a = Memory.alloc m ~tag:"x" ~size:4 in
  Alcotest.(check int) "base of interior" a (Memory.block_base m (a + 3))

(* Model-based property: a random trace of allocs and frees keeps the
   accounting consistent with a reference model. *)
let prop_alloc_model =
  QCheck.Test.make ~count:100 ~name:"alloc/free accounting matches model"
    QCheck.(list (pair bool (int_range 1 6)))
    (fun ops ->
      let m = fresh () in
      let live = Hashtbl.create 16 in
      let allocated = ref 0 and freed = ref 0 in
      List.iter
        (fun (do_alloc, size) ->
          if do_alloc || Hashtbl.length live = 0 then begin
            let a = Memory.alloc m ~tag:"t" ~size in
            Hashtbl.replace live a size;
            incr allocated
          end
          else begin
            let a = Hashtbl.fold (fun k _ _ -> Some k) live None |> Option.get in
            Memory.free m a; (* lint: allow-free *)
            Hashtbl.remove live a;
            incr freed
          end)
        ops;
      let u = Memory.usage m in
      u.Memory.allocated = !allocated
      && u.Memory.freed = !freed
      && u.Memory.live = Hashtbl.length live
      && u.Memory.live_words = Hashtbl.fold (fun _ s acc -> acc + s) live 0)


(* Random atomic-op scripts against a model array (sequential). *)
let prop_atomic_ops_model =
  QCheck.Test.make ~count:200 ~name:"atomic ops match reference semantics"
    QCheck.(list (triple (int_range 0 3) (int_range 0 3) (int_range (-50) 50)))
    (fun script ->
      let m = fresh () in
      let base = Memory.alloc m ~tag:"t" ~size:4 in
      let model = Array.make 4 0 in
      List.for_all
        (fun (op, i, v) ->
          let a = base + i in
          match op with
          | 0 ->
              Memory.write m a v;
              model.(i) <- v;
              true
          | 1 -> Memory.read m a = model.(i)
          | 2 ->
              let old = Memory.faa m a v in
              let expect = model.(i) in
              model.(i) <- model.(i) + v;
              old = expect
          | _ ->
              let expected = if v mod 2 = 0 then model.(i) else v in
              let should = expected = model.(i) in
              let ok = Memory.cas m a ~expected ~desired:v in
              if should then model.(i) <- v;
              ok = should && Memory.peek m a = model.(i))
        script)

(* [read_span] must be [n] calls to [read] in every observable: a
   sweeper (pid 0) reads spans of a three-line block, one way or the
   other, while a writer (pid 1) writes words of the same lines between
   the sweeper's suspensions and may free the block mid-run. Everything
   either run leaves behind is compared: the words read, the clocks
   after each span, steps, per-core clocks, faults, line states and
   versions, every L1 way, profiler stacks, flight recorder, sanitizer
   and race reports. A span may run up to two words past the block: an
   out-of-bounds fault mid-span. *)
let span_run ~span (lookahead, seed, (armed, spans, writes, free_at)) =
  let sanitize, race, profile = armed in
  let config =
    {
      Config.small with
      Config.cores = 2;
      lookahead;
      sanitize = (if sanitize then Sanitizer.default_on else Sanitizer.off);
      race = (if race then Racecheck.default_on else Racecheck.off);
    }
  in
  let mem = Memory.create config in
  let size = 24 in
  let blk = Memory.alloc mem ~tag:"swept" ~size in
  for a = blk to blk + 7 do
    Memory.mark_race_sync mem a
  done;
  let profiler = if profile then Some (Profiler.create ()) else None in
  let seen = ref [] in
  let res =
    Sim.run ~seed ?profiler ~config ~procs:2 (fun pid ->
        if pid = 0 then
          List.iter
            (fun (off, n) ->
              let n = Int.min n (size + 2 - off) in
              Profiler.with_phase Profiler.Smr_scan (fun () ->
                  if span then
                    Memory.read_span mem (blk + off) n (fun w ->
                        seen := w :: !seen)
                  else
                    for a = blk + off to blk + off + n - 1 do
                      seen := Memory.read mem a :: !seen
                    done);
              seen := -Proc.now () :: - Proc.global_now () :: !seen;
              Proc.pay 1)
            spans
        else
          List.iteri
            (fun i (off, gap) ->
              if i = free_at then Memory.free mem blk (* lint: allow-free *)
              else if i < free_at then Memory.write mem (blk + off) (i + 1);
              Proc.pay gap)
            writes)
  in
  let h = Memory.hot mem in
  let lines = Memcore.line_of_addr (blk + size) + 1 in
  ( !seen,
    (res.Sim.steps, res.Sim.makespan, res.Sim.clocks),
    List.map
      (fun f -> (f.Sim.pid, Memory.fault_to_string f.Sim.exn))
      res.Sim.faults,
    (Array.sub h.Memcore.lines 0 lines, Array.sub h.Memcore.vers 0 lines),
    (Array.sub h.Memcore.l1_line 0 4, Array.sub h.Memcore.l1_ver 0 4),
    (Option.map Profiler.collapsed profiler,
     Recorder.dump_string ~header:"" (Memory.recorder mem)),
    (Memory.sanitizer_reports mem, Memory.race_reports mem) )

let prop_read_span =
  let open QCheck in
  let ops =
    quad
      (triple bool bool bool)
      (list_of_size Gen.(1 -- 8) (pair (int_range 0 23) (int_range 1 10)))
      (list_of_size Gen.(0 -- 30) (pair (int_range 0 23) (int_range 0 12)))
      (int_range 0 40)
  in
  Test.make ~count:300 ~name:"read_span = n reads"
    (triple (int_range 0 64) (int_range 1 10_000) ops)
    (fun arg -> span_run ~span:true arg = span_run ~span:false arg)

(* The sweeps' guarded set against a Hashtbl model: adds (enough to
   grow the table several times), clears, and lookups of present and
   absent keys. *)
let prop_int_set_model =
  QCheck.Test.make ~count:200 ~name:"Int_set = Hashtbl model"
    QCheck.(list (pair (int_range 0 9) (int_range 1 300)))
    (fun ops ->
      let s = Int_set.create () and model = Hashtbl.create 16 in
      List.for_all
        (fun (op, k) ->
          let k = if op < 3 then 16 * k else k in
          (match op with
          | 9 ->
              Int_set.clear s;
              Hashtbl.reset model
          | 0 | 1 | 2 | 3 | 4 | 5 ->
              Int_set.add s k;
              Hashtbl.replace model k ()
          | _ -> ());
          Int_set.mem s k = Hashtbl.mem model k
          && Int_set.mem s (k + 1) = Hashtbl.mem model (k + 1))
        ops)

(* The scan pass's announced multiset against a counting model: adds
   of repeated keys (growing the table with counts in it), takes of
   present, exhausted and absent keys, and clears. *)
let prop_int_multiset_model =
  QCheck.Test.make ~count:200 ~name:"Int_set.Multi = counting model"
    QCheck.(list (pair (int_range 0 9) (int_range 1 100)))
    (fun ops ->
      let s = Int_set.Multi.create () and model = Hashtbl.create 16 in
      let count k = Option.value ~default:0 (Hashtbl.find_opt model k) in
      List.for_all
        (fun (op, k) ->
          let k = 16 * k in
          match op with
          | 9 ->
              Int_set.Multi.clear s;
              Hashtbl.reset model;
              true
          | 0 | 1 | 2 | 3 | 4 ->
              Int_set.Multi.add s k;
              Hashtbl.replace model k (count k + 1);
              true
          | _ ->
              let c = count k in
              if c > 0 then Hashtbl.replace model k (c - 1);
              Int_set.Multi.take s k = (c > 0))
        ops)

(* A heap reads the env cell of the domain that created it, so it is
   driven only there: an alloc from another domain is refused, naming
   both domains, while a heap that domain creates works. *)
let test_foreign_domain () =
  let m = fresh () in
  let worker () =
    let own = fresh () in
    let ok = Memory.alloc own ~tag:"t" ~size:1 > 0 in
    match Memory.alloc m ~tag:"t" ~size:1 with
    | _ -> (ok, "no exception")
    | exception Invalid_argument msg -> (ok, msg)
  in
  let ok, msg = Domain.join (Domain.spawn worker) (* lint: allow-atomic *) in
  let main = (Domain.self () :> int) (* lint: allow-atomic *) in
  Alcotest.(check bool) "own heap works on the worker" true ok;
  let prefix =
    Printf.sprintf "Memory.alloc: heap created on domain %d, driven from domain "
      main
  in
  Alcotest.(check bool) ("names both domains: " ^ msg) true
    (String.starts_with ~prefix msg
    && String.length msg > String.length prefix
    && msg <> prefix ^ string_of_int main);
  Alcotest.(check bool) "still usable on its own domain" true
    (Memory.alloc m ~tag:"t" ~size:1 > 0)

let suite =
  [
    Alcotest.test_case "alloc/read/write" `Quick test_alloc_read_write;
    Alcotest.test_case "line alignment" `Quick test_line_alignment;
    Alcotest.test_case "cas" `Quick test_cas;
    Alcotest.test_case "faa/fas" `Quick test_faa_fas;
    Alcotest.test_case "use-after-free" `Quick test_use_after_free;
    Alcotest.test_case "double-free" `Quick test_double_free;
    Alcotest.test_case "free non-base" `Quick test_free_non_base;
    Alcotest.test_case "null/oob" `Quick test_null_and_oob;
    Alcotest.test_case "address reuse" `Quick test_reuse;
    Alcotest.test_case "no-reuse mode" `Quick test_no_reuse_mode;
    Alcotest.test_case "size classes" `Quick test_reuse_size_class;
    Alcotest.test_case "usage accounting" `Quick test_usage_accounting;
    Alcotest.test_case "iter_live" `Quick test_iter_live;
    Alcotest.test_case "block_base" `Quick test_block_base;
    Alcotest.test_case "foreign domain refused" `Quick test_foreign_domain;
    QCheck_alcotest.to_alcotest prop_alloc_model;
    QCheck_alcotest.to_alcotest prop_atomic_ops_model;
    QCheck_alcotest.to_alcotest prop_read_span;
    QCheck_alcotest.to_alcotest prop_int_set_model;
    QCheck_alcotest.to_alcotest prop_int_multiset_model;
  ]
