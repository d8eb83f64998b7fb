(* Shared samplers for workload generation. Everything draws through an
   explicit {!Rng.t}, so a fixed seed fixes the sample stream; float
   arithmetic is deterministic on a given platform, which is all the
   bit-identity guarantees require (same-host jobs=1 vs jobs=N). *)

let uniform rng ~n = Rng.int rng n

module Zipf = struct
  (* [guide.(j)] is the first index whose CDF value is >= j/n (n - 1
     when none is), so a draw of [u] starts next to its answer: the
     CDF entries in [j/n, (j+1)/n) are the only ones to step over, n
     in all over the n slots, and a draw costs O(1) expected steps
     instead of a binary search's log n unpredictable branches. *)
  type z = { cdf : float array; guide : int array }

  let create ~n ~theta =
    assert (n > 0 && theta >= 0.0 && theta < 1.0);
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (i + 1) ** theta));
      cdf.(i) <- !acc
    done;
    let total = !acc in
    Array.iteri (fun i v -> cdf.(i) <- v /. total) cdf;
    let guide = Array.make n 0 in
    let i = ref 0 in
    for j = 0 to n - 1 do
      let lo = float_of_int j /. float_of_int n in
      while !i < n - 1 && cdf.(!i) < lo do
        incr i
      done;
      guide.(j) <- !i
    done;
    { cdf; guide }

  let cdf z = Array.copy z.cdf

  (* The first index with cdf >= u, clamped to n - 1: exactly the
     binary search's answer. The guide entry is a hint only (u and j/n
     round independently), so the walk goes back while the previous
     entry still covers u and forward while this one does not. *)
  let index z u =
    let cdf = z.cdf in
    let n = Array.length cdf in
    let i = ref z.guide.(Int.min (n - 1) (int_of_float (u *. float_of_int n))) in
    while !i > 0 && cdf.(!i - 1) >= u do
      decr i
    done;
    while !i < n - 1 && cdf.(!i) < u do
      incr i
    done;
    !i

  let draw z rng = index z (Rng.float rng)
end

module Poisson = struct
  let interval ~mean rng =
    assert (mean > 0.0);
    (* Inverse-CDF of the exponential inter-arrival law. [Rng.float] is
       in [0, 1), so the argument of [log] is in (0, 1] and the gap is
       finite and non-negative; rounding to integer ticks keeps the
       process's mean rate, and simultaneous arrivals (gap 0) are
       legal. *)
    let u = Rng.float rng in
    let gap = -.mean *. log (1.0 -. u) in
    int_of_float (Float.round gap)
end

module Onoff = struct
  type t = { on : int; off : int }

  let create ~on ~off =
    if on <= 0 || off < 0 then
      invalid_arg "Dist.Onoff.create: need on > 0 and off >= 0";
    { on; off }

  let period b = b.on + b.off

  let is_on b t =
    let ph = t mod period b in
    ph < b.on

  (* Map the k-th tick of cumulative on-time to absolute time: bursts
     compress the arrival process into the on-windows, preserving the
     average rate while concentrating it [period/on]-fold. *)
  let project b t_on =
    if b.off = 0 then t_on
    else begin
      let full = t_on / b.on and rest = t_on mod b.on in
      (full * period b) + rest
    end
end
