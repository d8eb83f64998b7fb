(* The scheduler's run queues: Int_heap against a stable-sorted list
   model, and Core_ring against Int_heap under the scheduling round's
   op pattern. *)

open Simcore

(* {1 Int_heap: the allocation-free scheduler heap} *)

let test_int_heap_empty () =
  let q = Pqueue.Int_heap.create 4 in
  Alcotest.(check bool) "empty" true (Pqueue.Int_heap.is_empty q);
  Alcotest.(check int) "pop empty" (-1) (Pqueue.Int_heap.pop_min q);
  Alcotest.(check int) "min_key empty" max_int (Pqueue.Int_heap.min_key q)

let test_int_heap_ordering_and_growth () =
  (* Capacity 2 forces growth; FIFO ties must survive it. *)
  let q = Pqueue.Int_heap.create 2 in
  List.iteri (fun i k -> Pqueue.Int_heap.add q ~key:k (100 + i))
    [ 5; 1; 4; 1; 3; 9; 0 ];
  Alcotest.(check int) "length" 7 (Pqueue.Int_heap.length q);
  Alcotest.(check int) "min key" 0 (Pqueue.Int_heap.min_key q);
  let vals = List.init 7 (fun _ -> Pqueue.Int_heap.pop_min q) in
  (* keys sorted; the two key-1 entries pop in insertion order *)
  Alcotest.(check (list int)) "stable sorted"
    [ 106; 101; 103; 104; 102; 100; 105 ] vals

(* Model check: interleaved adds and pops behave like a list kept
   stable-sorted by key — the scheduler's determinism depends on ties
   popping in insertion order. *)
let prop_int_heap_model =
  QCheck.Test.make ~count:300 ~name:"Int_heap matches stable-sorted model"
    QCheck.(list (pair (int_range 0 20) bool))
    (fun ops ->
      let ih = Pqueue.Int_heap.create 1 in
      (* model: (key, seq) in insertion order *)
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      let sorted () =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) !model
      in
      List.iter
        (fun (k, is_add) ->
          if is_add then begin
            Pqueue.Int_heap.add ih ~key:k !seq;
            model := !model @ [ (k, !seq) ];
            incr seq
          end
          else
            match sorted () with
            | [] -> if Pqueue.Int_heap.pop_min ih <> -1 then ok := false
            | (_, mv) :: _ ->
                if Pqueue.Int_heap.pop_min ih <> mv then ok := false
                else model := List.filter (fun (_, s) -> s <> mv) !model)
        ops;
      !ok
      && Pqueue.Int_heap.length ih = List.length !model
      && Pqueue.Int_heap.min_key ih
         = (match sorted () with (k, _) :: _ -> k | [] -> max_int))

(* {1 Core_ring: the O(1) scheduler queue}

   Under its restricted contract (distinct values, keys never inserted
   below the current minimum) Core_ring must agree with Int_heap on
   every operation of the scheduler's repertoire — including
   [second_key] and [reprioritize_min], which the scheduling round uses
   without ever popping. The generated key deltas cross the 256-bucket
   ring window so the overflow heap and its drain-on-advance path are
   exercised too. *)

let test_core_ring_basic () =
  let q = Pqueue.Core_ring.create 4 in
  Alcotest.(check bool) "empty" true (Pqueue.Core_ring.is_empty q);
  Alcotest.(check int) "pop empty" (-1) (Pqueue.Core_ring.pop_min q);
  Alcotest.(check int) "min_key empty" max_int (Pqueue.Core_ring.min_key q);
  List.iteri (fun v k -> Pqueue.Core_ring.add q ~key:k v) [ 5; 1; 1; 3 ];
  Alcotest.(check int) "length" 4 (Pqueue.Core_ring.length q);
  Alcotest.(check int) "min key" 1 (Pqueue.Core_ring.min_key q);
  Alcotest.(check int) "peek ties fifo" 1 (Pqueue.Core_ring.peek q);
  Alcotest.(check int) "second key" 1 (Pqueue.Core_ring.second_key q);
  let vals = List.init 4 (fun _ -> Pqueue.Core_ring.pop_min q) in
  Alcotest.(check (list int)) "stable sorted" [ 1; 2; 3; 0 ] vals;
  Alcotest.check_raises "below-minimum add rejected"
    (Invalid_argument "Core_ring.add: key below current minimum")
    (fun () ->
      Pqueue.Core_ring.add q ~key:2 0;
      Pqueue.Core_ring.add q ~key:1 1)

let test_core_ring_overflow_jumps () =
  (* Far keys land in the overflow heap; advancing the minimum past the
     window must drain them back in order, repeatedly. *)
  let q = Pqueue.Core_ring.create 8 in
  let keys = [ 0; 3_000; 12; 700; 255; 256; 9_000; 40 ] in
  List.iteri (fun v k -> Pqueue.Core_ring.add q ~key:k v) keys;
  let out = List.init 8 (fun _ -> Pqueue.Core_ring.min_key q |> fun k ->
    ignore (Pqueue.Core_ring.pop_min q); k) in
  Alcotest.(check (list int)) "keys pop sorted across window jumps"
    [ 0; 12; 40; 255; 256; 700; 3_000; 9_000 ]
    out

let prop_core_ring_matches_int_heap =
  QCheck.Test.make ~count:400
    ~name:"Core_ring matches Int_heap under the scheduler op pattern"
    QCheck.(
      pair (int_range 2 6)
        (list
           (pair (int_range 0 2)
              (frequency
                 [ (6, int_range 0 80); (1, int_range 200 3_000) ]))))
    (fun (n, ops) ->
      let ih = Pqueue.Int_heap.create n in
      let cr = Pqueue.Core_ring.create n in
      for v = 0 to n - 1 do
        Pqueue.Int_heap.add ih ~key:0 v;
        Pqueue.Core_ring.add cr ~key:0 v
      done;
      (* values currently popped (re-addable) *)
      let out = Queue.create () in
      (* last minimum seen: an emptied queue is refilled at or above it,
         since core clocks only advance *)
      let last = ref 0 in
      let ok = ref true in
      let agree () =
        Pqueue.Int_heap.min_key ih = Pqueue.Core_ring.min_key cr
        && Pqueue.Int_heap.peek ih = Pqueue.Core_ring.peek cr
        && Pqueue.Int_heap.second_key ih = Pqueue.Core_ring.second_key cr
        && Pqueue.Int_heap.length ih = Pqueue.Core_ring.length cr
      in
      List.iter
        (fun (c, delta) ->
          if !ok then begin
            if not (agree ()) then ok := false
            else
              let lo = Pqueue.Int_heap.min_key ih in
              if lo <> max_int then last := lo;
              match c with
              | 0 when lo <> max_int ->
                  (* the scheduling round: requeue the minimum higher *)
                  Pqueue.Int_heap.reprioritize_min ih ~key:(lo + delta);
                  Pqueue.Core_ring.reprioritize_min cr ~key:(lo + delta)
              | 1 when lo <> max_int ->
                  let a = Pqueue.Int_heap.pop_min ih in
                  let b = Pqueue.Core_ring.pop_min cr in
                  if a <> b then ok := false else Queue.push a out
              | _ ->
                  (* re-add a parked value at or above the minimum *)
                  if not (Queue.is_empty out) then begin
                    let v = Queue.pop out in
                    let key = !last + delta in
                    Pqueue.Int_heap.add ih ~key v;
                    Pqueue.Core_ring.add cr ~key v
                  end
          end)
        ops;
      (* full drain must agree, element by element *)
      while !ok && not (Pqueue.Int_heap.is_empty ih) do
        if
          Pqueue.Int_heap.min_key ih <> Pqueue.Core_ring.min_key cr
          || Pqueue.Int_heap.pop_min ih <> Pqueue.Core_ring.pop_min cr
        then ok := false
      done;
      !ok && Pqueue.Core_ring.is_empty cr)

let suite =
  [
    Alcotest.test_case "int heap empty" `Quick test_int_heap_empty;
    Alcotest.test_case "int heap ordering+growth" `Quick
      test_int_heap_ordering_and_growth;
    QCheck_alcotest.to_alcotest prop_int_heap_model;
    Alcotest.test_case "core ring basic" `Quick test_core_ring_basic;
    Alcotest.test_case "core ring overflow jumps" `Quick
      test_core_ring_overflow_jumps;
    QCheck_alcotest.to_alcotest prop_core_ring_matches_int_heap;
  ]
