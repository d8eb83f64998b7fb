type t = (string, int ref) Hashtbl.t

let create () = Hashtbl.create 32

let cell t key =
  match Hashtbl.find_opt t key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t key r;
      r

let incr ?(by = 1) t key =
  let r = cell t key in
  r := !r + by

let set t key v = cell t key := v

let set_max t key v =
  let r = cell t key in
  if v > !r then r := v

let get t key = match Hashtbl.find_opt t key with Some r -> !r | None -> 0

let to_list t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let clear = Hashtbl.clear

module Histogram = struct
  (* Bucket i holds samples in [2^(i-1), 2^i); bucket 0 holds {0}. *)
  type h = {
    buckets : int array;
    mutable n : int;
    mutable total : float;
    mutable max_sample : int;
  }

  let n_buckets = 48

  let create () =
    { buckets = Array.make n_buckets 0; n = 0; total = 0.0; max_sample = 0 }

  (* The bit length of [x] for [0 <= x < 2^53], read off the exponent
     of its float conversion; above 2^53 rounding may add one, which
     only ever lands beyond the last bucket. *)
  let bit_length x =
    if x = 0 then 0
    else
      Int64.to_int
        (Int64.shift_right_logical (Int64.bits_of_float (float_of_int x)) 52)
      - 1022

  (* Sample [v > 0] lands in the smallest [i] with [2^(i-1) >= v]: one
     more than the bit length of [v - 1]. *)
  let bucket_of v =
    if v <= 0 then 0 else Int.min (n_buckets - 1) (1 + bit_length (v - 1))

  let add h v =
    assert (v >= 0);
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.n <- h.n + 1;
    h.total <- h.total +. float_of_int v;
    if v > h.max_sample then h.max_sample <- v

  let merge a b =
    let h = create () in
    Array.iteri (fun i v -> h.buckets.(i) <- v + b.buckets.(i)) a.buckets;
    h.n <- a.n + b.n;
    h.total <- a.total +. b.total;
    h.max_sample <- max a.max_sample b.max_sample;
    h

  let count h = h.n

  let mean h = if h.n = 0 then 0.0 else h.total /. float_of_int h.n

  let max_sample h = h.max_sample

  let percentile h q =
    assert (q >= 0.0 && q <= 1.0);
    if h.n = 0 then 0
    else begin
      let target = int_of_float (ceil (q *. float_of_int h.n)) in
      let rec go i seen =
        if i >= n_buckets then h.max_sample
        else begin
          let seen = seen + h.buckets.(i) in
          if seen >= target then (if i = 0 then 0 else 1 lsl (i - 1))
          else go (i + 1) seen
        end
      in
      go 0 0
    end

  (* Interpolated quantile: find the bucket holding the continuous rank
     [q * n], then place the result linearly inside the bucket's value
     range. The last nonempty bucket's range is clamped at [max_sample],
     so [quantile h 1.0 = max_sample] exactly and a p99.9 read is never
     inflated past the largest latency actually observed — bucket bounds
     double, so the un-clamped upper edge can be almost 2x too high. *)
  let quantile h q =
    assert (q >= 0.0 && q <= 1.0);
    if h.n = 0 then 0.0
    else begin
      let target = q *. float_of_int h.n in
      let rec go i seen =
        if i >= n_buckets then float_of_int h.max_sample
        else begin
          let c = h.buckets.(i) in
          if c > 0 && float_of_int (seen + c) >= target then begin
            if i = 0 then 0.0 (* bucket 0 holds exactly {0} *)
            else begin
            (* Bucket i (i >= 1) covers (2^(i-2), 2^(i-1)] — see
               [bucket_of]; bucket 1 is (0, 1]. *)
            let lo = if i = 1 then 0 else 1 lsl (i - 2) in
            let hi = min (1 lsl (i - 1)) h.max_sample in
            let frac =
              let f = (target -. float_of_int seen) /. float_of_int c in
              if f < 0.0 then 0.0 else f
            in
            let v = float_of_int lo +. (frac *. float_of_int (hi - lo)) in
            Float.min v (float_of_int h.max_sample)
            end
          end
          else go (i + 1) (seen + c)
        end
      in
      go 0 0
    end

  let pp ppf h =
    Format.fprintf ppf
      "n=%d mean=%.1f p50=%d p90=%d p99=%d p99.9=%d max=%d" h.n (mean h)
      (percentile h 0.5) (percentile h 0.9) (percentile h 0.99)
      (percentile h 0.999) h.max_sample
end
