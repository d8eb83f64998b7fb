(* Unit and property tests for the shared workload-distribution
   samplers (Simcore.Dist): Zipfian key popularity, Poisson
   inter-arrivals, and on/off burst projection. *)

open Simcore

(* {1 Zipf} *)

let test_zipf_skew () =
  let z = Dist.Zipf.create ~n:100 ~theta:0.99 in
  let rng = Rng.create ~seed:77 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Dist.Zipf.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  (* Heavy head: rank 0 dominates rank 50 by a large factor. *)
  Alcotest.(check bool) "head-heavy" true (counts.(0) > 10 * counts.(50));
  Alcotest.(check bool) "head share" true (counts.(0) > 2_000)

let test_zipf_uniform_limit () =
  let z = Dist.Zipf.create ~n:10 ~theta:0.0 in
  let rng = Rng.create ~seed:78 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let k = Dist.Zipf.draw z rng in
    counts.(k) <- counts.(k) + 1
  done;
  (* theta = 0 is uniform: each of the 10 values expects 2000 draws. *)
  Array.iter
    (fun c ->
      Alcotest.(check bool) "roughly uniform" true (c > 1_700 && c < 2_300))
    counts

let prop_zipf_range =
  QCheck.Test.make ~count:200 ~name:"zipf draws within range"
    QCheck.(pair (int_range 1 200) (int_range 0 99))
    (fun (n, t) ->
      let z = Dist.Zipf.create ~n ~theta:(float_of_int t /. 100.0) in
      let rng = Rng.create ~seed:(n + t) in
      let ok = ref true in
      for _ = 1 to 50 do
        let k = Dist.Zipf.draw z rng in
        if k < 0 || k >= n then ok := false
      done;
      !ok)

let prop_zipf_monotone_ranks =
  (* Higher skew never makes rank 0 less popular than a uniform draw
     would; rank popularity is nonincreasing in rank. *)
  QCheck.Test.make ~count:30 ~name:"zipf rank popularity nonincreasing"
    QCheck.(int_range 10 99)
    (fun t ->
      let n = 20 in
      let z = Dist.Zipf.create ~n ~theta:(float_of_int t /. 100.0) in
      let rng = Rng.create ~seed:(1000 + t) in
      let counts = Array.make n 0 in
      for _ = 1 to 10_000 do
        let k = Dist.Zipf.draw z rng in
        counts.(k) <- counts.(k) + 1
      done;
      (* Allow sampling noise: each rank must not beat the previous one
         by more than a small margin. *)
      let ok = ref true in
      for i = 1 to n - 1 do
        if counts.(i) > counts.(i - 1) + 200 then ok := false
      done;
      !ok)

(* The binary search the guide table replaced: the first index whose
   CDF value is >= u, clamped to n - 1. *)
let bsearch cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* [index] against the binary search on [u] at, just below and just
   above every CDF entry and every guide boundary j/n, inside [0, 1). *)
let index_exact z =
  let cdf = Dist.Zipf.cdf z in
  let n = Array.length cdf in
  let agrees u = u < 0.0 || u >= 1.0 || Dist.Zipf.index z u = bsearch cdf u in
  let around u = agrees (Float.pred u) && agrees u && agrees (Float.succ u) in
  Array.for_all around cdf
  && List.for_all
       (fun j -> around (float_of_int j /. float_of_int n))
       (List.init n Fun.id)
  && agrees 0.0
  && agrees (Float.pred 1.0)

let prop_zipf_guided_exact =
  QCheck.Test.make ~count:200 ~name:"zipf guided draw = binary search"
    QCheck.(triple (int_range 1 2048) (int_range 0 99) small_int)
    (fun (n, t, seed) ->
      let z = Dist.Zipf.create ~n ~theta:(float_of_int t /. 100.0) in
      let cdf = Dist.Zipf.cdf z in
      let a = Rng.create ~seed in
      let b = Rng.copy a in
      let ok = ref (index_exact z) in
      for _ = 1 to 500 do
        if Dist.Zipf.draw z a <> bsearch cdf (Rng.float b) then ok := false
      done;
      !ok)

let test_zipf_guided_edges () =
  List.iter
    (fun (n, theta) ->
      let z = Dist.Zipf.create ~n ~theta in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d theta=%.2f" n theta)
        true (index_exact z))
    [ (1, 0.0); (1, 0.5); (1, 0.99); (2, 0.0); (3, 0.0); (7, 0.0);
      (1024, 0.0); (1024, 0.9); (1000, 0.99) ];
  let z = Dist.Zipf.create ~n:1 ~theta:0.9 in
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check int) "n = 1 draws 0" 0 (Dist.Zipf.draw z rng)
  done

(* {1 Uniform} *)

let prop_uniform_range =
  QCheck.Test.make ~count:500 ~name:"uniform within range"
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let v = Dist.uniform rng ~n in
      v >= 0 && v < n)

(* {1 Poisson} *)

let test_poisson_mean () =
  let rng = Rng.create ~seed:42 in
  let mean = 50.0 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Dist.Poisson.interval ~mean rng
  done;
  let avg = float_of_int !sum /. float_of_int n in
  (* Sample mean of 20k exponential gaps concentrates near the target. *)
  Alcotest.(check bool) "sample mean near 50" true (avg > 47.0 && avg < 53.0)

let prop_poisson_nonneg =
  QCheck.Test.make ~count:500 ~name:"poisson gaps nonnegative"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, m) ->
      let rng = Rng.create ~seed in
      let ok = ref true in
      for _ = 1 to 20 do
        if Dist.Poisson.interval ~mean:(float_of_int m) rng < 0 then
          ok := false
      done;
      !ok)

(* {1 On/off projection} *)

let prop_onoff_projects_into_on_windows =
  QCheck.Test.make ~count:300 ~name:"onoff projection lands in on-windows"
    QCheck.(triple (int_range 1 50) (int_range 0 50) (int_range 0 500))
    (fun (on, off, t_on) ->
      let b = Dist.Onoff.create ~on ~off in
      Dist.Onoff.is_on b (Dist.Onoff.project b t_on))

let prop_onoff_monotone =
  QCheck.Test.make ~count:300 ~name:"onoff projection is monotone"
    QCheck.(triple (int_range 1 50) (int_range 0 50) (int_range 0 500))
    (fun (on, off, t_on) ->
      let b = Dist.Onoff.create ~on ~off in
      Dist.Onoff.project b t_on < Dist.Onoff.project b (t_on + 1))

let test_onoff_identity_without_off () =
  (* off = 0 means the projection is the identity: all time is on. *)
  let b = Dist.Onoff.create ~on:7 ~off:0 in
  for t = 0 to 100 do
    Alcotest.(check int) "identity" t (Dist.Onoff.project b t)
  done

let test_onoff_compression () =
  (* on=10, off=30: the 10th on-tick starts the second cycle at t=40. *)
  let b = Dist.Onoff.create ~on:10 ~off:30 in
  Alcotest.(check int) "period" 40 (Dist.Onoff.period b);
  Alcotest.(check int) "first cycle" 3 (Dist.Onoff.project b 3);
  Alcotest.(check int) "second cycle" 40 (Dist.Onoff.project b 10);
  Alcotest.(check int) "second cycle offset" 45 (Dist.Onoff.project b 15)

let suite =
  [
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "zipf uniform limit" `Quick test_zipf_uniform_limit;
    QCheck_alcotest.to_alcotest prop_zipf_range;
    QCheck_alcotest.to_alcotest prop_zipf_monotone_ranks;
    QCheck_alcotest.to_alcotest prop_zipf_guided_exact;
    Alcotest.test_case "zipf guided draw edges" `Quick test_zipf_guided_edges;
    QCheck_alcotest.to_alcotest prop_uniform_range;
    Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
    QCheck_alcotest.to_alcotest prop_poisson_nonneg;
    QCheck_alcotest.to_alcotest prop_onoff_projects_into_on_windows;
    QCheck_alcotest.to_alcotest prop_onoff_monotone;
    Alcotest.test_case "onoff identity without off" `Quick
      test_onoff_identity_without_off;
    Alcotest.test_case "onoff compression" `Quick test_onoff_compression;
  ]
