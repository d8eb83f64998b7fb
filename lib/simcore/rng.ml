(* The SplitMix64 state lives unboxed in 8 bytes: an [int64] record
   field would allocate a box and run the write barrier on every draw. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

(* SplitMix64 finalizer. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] bits64 t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let split t = of_state (mix (bits64 t))

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the conversion to a 63-bit OCaml int stays positive. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let[@inline] float t =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r *. 0x1p-53

let bool t = Int64.logand (bits64 t) 1L = 1L

let below t p = float t < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
