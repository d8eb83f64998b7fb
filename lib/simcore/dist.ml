(* Shared samplers for workload generation. Everything draws through an
   explicit {!Rng.t}, so a fixed seed fixes the sample stream; float
   arithmetic is deterministic on a given platform, which is all the
   bit-identity guarantees require (same-host jobs=1 vs jobs=N). *)

let uniform rng ~n = Rng.int rng n

module Zipf = struct
  type z = { cdf : float array }

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
    { cdf }

  let draw z rng =
    let u = Rng.float rng in
    (* First index with cdf >= u. *)
    let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if z.cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
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
