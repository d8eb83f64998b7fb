(* Histograms. *)

open Simcore

module H = Stats.Histogram

let test_histogram_basics () =
  let h = H.create () in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check (float 0.01)) "empty mean" 0.0 (H.mean h);
  List.iter (H.add h) [ 1; 2; 3; 4; 100 ];
  Alcotest.(check int) "count" 5 (H.count h);
  Alcotest.(check (float 0.01)) "mean" 22.0 (H.mean h);
  Alcotest.(check int) "max" 100 (H.max_sample h)

let test_histogram_percentiles () =
  let h = H.create () in
  (* 99 small samples and one huge one. *)
  for _ = 1 to 99 do
    H.add h 10
  done;
  H.add h 100_000;
  Alcotest.(check int) "p50 small" 16 (H.percentile h 0.5);
  Alcotest.(check int) "p90 small" 16 (H.percentile h 0.9);
  (* The outlier only appears at the very top. *)
  Alcotest.(check bool) "p100 huge" true (H.percentile h 1.0 >= 65536)

let test_histogram_zero () =
  let h = H.create () in
  H.add h 0;
  H.add h 0;
  Alcotest.(check int) "p50 of zeros" 0 (H.percentile h 0.5)

let hist_of samples =
  let h = H.create () in
  List.iter (H.add h) samples;
  h

let test_merge_basics () =
  let m = H.merge (hist_of [ 1; 2; 3 ]) (hist_of [ 4; 100 ]) in
  Alcotest.(check int) "count" 5 (H.count m);
  Alcotest.(check (float 0.01)) "mean" 22.0 (H.mean m);
  Alcotest.(check int) "max" 100 (H.max_sample m);
  (* Merging is by-value: the merge is the histogram of the
     concatenated sample streams. *)
  Alcotest.(check bool) "equals concatenation" true
    (m = hist_of [ 1; 2; 3; 4; 100 ])

let test_merge_empty () =
  let e = H.merge (H.create ()) (H.create ()) in
  Alcotest.(check int) "empty count" 0 (H.count e);
  Alcotest.(check (float 0.01)) "empty mean" 0.0 (H.mean e);
  Alcotest.(check int) "empty p50" 0 (H.percentile e 0.5);
  let a = hist_of [ 7; 7; 9 ] in
  Alcotest.(check bool) "left identity" true (H.merge (H.create ()) a = a);
  Alcotest.(check bool) "right identity" true (H.merge a (H.create ()) = a)

let test_merge_single_bucket () =
  (* All samples share one bucket; the merge keeps them there. *)
  let m = H.merge (hist_of [ 5; 5 ]) (hist_of [ 5; 5; 5 ]) in
  Alcotest.(check int) "count" 5 (H.count m);
  Alcotest.(check int) "max" 5 (H.max_sample m);
  Alcotest.(check int) "p50 = bucket bound" (H.percentile (hist_of [ 5 ]) 0.5)
    (H.percentile m 0.5);
  Alcotest.(check int) "p99 same bucket" (H.percentile m 0.5)
    (H.percentile m 0.99)

let test_merge_wraparound () =
  (* Samples past the last power-of-two boundary all clamp into bucket
     [n_buckets - 1]; merging must respect the clamp, not re-spread. *)
  (* 1024 rather than +1: keeps every partial float total exactly
     representable, so structural equality is order-independent. *)
  let huge1 = 1 lsl 50 and huge2 = 1 lsl 55 and edge = (1 lsl 46) + 1024 in
  let m = H.merge (hist_of [ huge1 ]) (hist_of [ huge2; edge ]) in
  Alcotest.(check int) "count" 3 (H.count m);
  Alcotest.(check int) "max survives clamp" huge2 (H.max_sample m);
  (* All three live in the final bucket, so every quantile reports its
     lower-bound value. *)
  Alcotest.(check int) "p50 in last bucket" (1 lsl (H.n_buckets - 2))
    (H.percentile m 0.5);
  Alcotest.(check bool) "equals concatenation" true
    (m = hist_of [ huge1; huge2; edge ])

(* The loop [bucket_of] replaced: double until 2^(i-1) >= v, then
   clamp to the last bucket. The original doubled past the clamp (and
   overflowed, never returning, for v > 2^61); stopping at the last
   bucket returns the clamped value wherever it returned at all. *)
let loop_bucket_of v =
  if v <= 0 then 0
  else begin
    let rec go i acc =
      if acc >= v || i = H.n_buckets - 1 then i else go (i + 1) (acc * 2)
    in
    go 1 1
  end

let test_bucket_of () =
  for v = 0 to 1 lsl 20 do
    if H.bucket_of v <> loop_bucket_of v then
      Alcotest.failf "bucket_of %d = %d, loop says %d" v (H.bucket_of v)
        (loop_bucket_of v)
  done;
  for k = 0 to 61 do
    List.iter
      (fun v ->
        Alcotest.(check int) (Printf.sprintf "v = %d" v) (loop_bucket_of v)
          (H.bucket_of v))
      [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]
  done;
  Alcotest.(check int) "max_int" (H.n_buckets - 1) (H.bucket_of max_int);
  Alcotest.(check int) "negative" 0 (H.bucket_of (-5))

(* Bounded ints keep the float totals exact, so structural equality is
   the right spec: merge = histogram of the concatenated samples. *)
let prop_merge_concat =
  QCheck.Test.make ~count:200 ~name:"merge = histogram of concatenation"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 40) (int_range 0 1_000_000))
        (list_of_size Gen.(0 -- 40) (int_range 0 1_000_000)))
    (fun (xs, ys) -> H.merge (hist_of xs) (hist_of ys) = hist_of (xs @ ys))

let prop_merge_commutative =
  QCheck.Test.make ~count:200 ~name:"merge commutative"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 40) (int_range 0 1_000_000))
        (list_of_size Gen.(0 -- 40) (int_range 0 1_000_000)))
    (fun (xs, ys) ->
      let a = hist_of xs and b = hist_of ys in
      H.merge a b = H.merge b a)

let prop_percentile_monotone =
  QCheck.Test.make ~count:200 ~name:"percentiles monotone in q"
    QCheck.(list_of_size Gen.(1 -- 50) (int_range 0 100_000))
    (fun samples ->
      let h = H.create () in
      List.iter (H.add h) samples;
      let ps = List.map (H.percentile h) [ 0.1; 0.5; 0.9; 0.99; 1.0 ] in
      let rec mono = function
        | a :: (b :: _ as r) -> a <= b && mono r
        | _ -> true
      in
      mono ps)

let prop_percentile_bounds =
  QCheck.Test.make ~count:200 ~name:"percentile within sample bounds"
    QCheck.(list_of_size Gen.(1 -- 50) (int_range 1 1_000_000))
    (fun samples ->
      let h = H.create () in
      List.iter (H.add h) samples;
      let p100 = H.percentile h 1.0 in
      (* p100 is the max's bucket upper bound: in [max, 2*max). *)
      p100 >= H.max_sample h && p100 < 2 * H.max_sample h)

(* {1 Interpolated quantiles (the serving benchmark's p99.9)} *)

let test_quantile_empty () =
  Alcotest.(check (float 0.001)) "empty" 0.0 (H.quantile (H.create ()) 0.999)

let test_quantile_zeros () =
  let h = hist_of [ 0; 0; 0 ] in
  Alcotest.(check (float 0.001)) "all zero" 0.0 (H.quantile h 0.999)

let test_quantile_interpolates () =
  (* 1000 samples of 10 and one of 100_000: p50 stays in 10's bucket
     [8,16), p99.9 is inside it too, but p100 reaches the outlier. *)
  let h = H.create () in
  for _ = 1 to 1000 do
    H.add h 10
  done;
  H.add h 100_000;
  let p50 = H.quantile h 0.5 and p999 = H.quantile h 0.999 in
  Alcotest.(check bool) "p50 in [8,16)" true (p50 >= 8.0 && p50 < 16.0);
  Alcotest.(check bool) "p99.9 in [8,16)" true (p999 >= 8.0 && p999 < 16.0);
  Alcotest.(check bool) "p50 < p99.9" true (p50 < p999);
  Alcotest.(check (float 0.001)) "p100 = max" 100_000.0 (H.quantile h 1.0)

let test_quantile_capped_by_max () =
  (* The top bucket's interpolation range is clipped to max_sample, so a
     quantile can never exceed an observed value. *)
  let h = hist_of [ 9; 9; 9; 9 ] in
  Alcotest.(check bool) "p99.9 <= max" true
    (H.quantile h 0.999 <= float_of_int (H.max_sample h))

let prop_quantile_monotone =
  QCheck.Test.make ~count:200 ~name:"quantile monotone in q"
    QCheck.(list_of_size Gen.(1 -- 50) (int_range 0 100_000))
    (fun samples ->
      let h = hist_of samples in
      let qs = [ 0.0; 0.1; 0.5; 0.9; 0.99; 0.999; 1.0 ] in
      let vs = List.map (H.quantile h) qs in
      let rec mono = function
        | a :: (b :: _ as r) -> a <= b && mono r
        | _ -> true
      in
      mono vs)

let prop_quantile_bounds =
  QCheck.Test.make ~count:200 ~name:"quantile within [0, max_sample]"
    QCheck.(list_of_size Gen.(1 -- 50) (int_range 0 1_000_000))
    (fun samples ->
      let h = hist_of samples in
      List.for_all
        (fun q ->
          let v = H.quantile h q in
          v >= 0.0 && v <= float_of_int (H.max_sample h))
        [ 0.1; 0.5; 0.9; 0.999; 1.0 ])

let prop_quantile_merge_invariant =
  (* Quantiles are a function of the merged buckets, so computing them
     on a merge must equal computing them on the concatenation. *)
  QCheck.Test.make ~count:200 ~name:"quantile merge-invariant"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 40) (int_range 0 1_000_000))
        (list_of_size Gen.(0 -- 40) (int_range 0 1_000_000)))
    (fun (xs, ys) ->
      let m = H.merge (hist_of xs) (hist_of ys) in
      let c = hist_of (xs @ ys) in
      List.for_all
        (fun q -> H.quantile m q = H.quantile c q)
        [ 0.5; 0.9; 0.99; 0.999 ])

let suite =
  [
    Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
    Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram zeros" `Quick test_histogram_zero;
    Alcotest.test_case "merge basics" `Quick test_merge_basics;
    Alcotest.test_case "merge empty" `Quick test_merge_empty;
    Alcotest.test_case "merge single bucket" `Quick test_merge_single_bucket;
    Alcotest.test_case "merge bucket clamp" `Quick test_merge_wraparound;
    Alcotest.test_case "bucket_of = doubling loop" `Quick test_bucket_of;
    QCheck_alcotest.to_alcotest prop_merge_concat;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_percentile_bounds;
    Alcotest.test_case "quantile empty" `Quick test_quantile_empty;
    Alcotest.test_case "quantile zeros" `Quick test_quantile_zeros;
    Alcotest.test_case "quantile interpolates" `Quick
      test_quantile_interpolates;
    Alcotest.test_case "quantile capped by max" `Quick
      test_quantile_capped_by_max;
    QCheck_alcotest.to_alcotest prop_quantile_monotone;
    QCheck_alcotest.to_alcotest prop_quantile_bounds;
    QCheck_alcotest.to_alcotest prop_quantile_merge_invariant;
  ]
