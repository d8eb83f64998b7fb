type t = { mutable keys : int array; mutable n : int }

let create () = { keys = [||]; n = 0 }

let clear s =
  if s.n > 0 then begin
    Array.fill s.keys 0 (Array.length s.keys) 0;
    s.n <- 0
  end

(* Fibonacci hashing: keys are block addresses, multiples of the
   allocation alignment, so their low bits carry nothing; the product's
   upper bits do. The table length is a power of two below 2^31. *)
let slot keys k = ((k * 0x9E3779B97F4A7C1) lsr 31) land (Array.length keys - 1)

let rec probe keys k i =
  let x = Array.unsafe_get keys i in
  if x = k || x = 0 then i
  else probe keys k ((i + 1) land (Array.length keys - 1))

let insert keys k =
  let i = probe keys k (slot keys k) in
  if Array.unsafe_get keys i = 0 then begin
    Array.unsafe_set keys i k;
    true
  end
  else false

let grow s =
  let old = s.keys in
  s.keys <- Array.make (Int.max 16 (2 * Array.length old)) 0;
  Array.iter (fun k -> if k <> 0 then ignore (insert s.keys k)) old

let add s k =
  assert (k > 0);
  if 2 * (s.n + 1) > Array.length s.keys then grow s;
  if insert s.keys k then s.n <- s.n + 1

let mem s k =
  k > 0 && s.n > 0
  &&
  let keys = s.keys in
  Array.unsafe_get keys (probe keys k (slot keys k)) = k

module Multi = struct
  type t = { mutable keys : int array; mutable cnts : int array; mutable n : int }

  let create () = { keys = [||]; cnts = [||]; n = 0 }

  let clear s =
    if s.n > 0 then begin
      Array.fill s.keys 0 (Array.length s.keys) 0;
      s.n <- 0
    end

  let find keys k = probe keys k (slot keys k)

  let grow s =
    let keys = s.keys and cnts = s.cnts in
    let len = Int.max 16 (2 * Array.length keys) in
    s.keys <- Array.make len 0;
    s.cnts <- Array.make len 0;
    Array.iteri
      (fun i k ->
        if k <> 0 then begin
          let j = find s.keys k in
          s.keys.(j) <- k;
          s.cnts.(j) <- cnts.(i)
        end)
      keys

  let add s k =
    assert (k > 0);
    if 2 * (s.n + 1) > Array.length s.keys then grow s;
    let i = find s.keys k in
    if s.keys.(i) = k then s.cnts.(i) <- s.cnts.(i) + 1
    else begin
      s.keys.(i) <- k;
      s.cnts.(i) <- 1;
      s.n <- s.n + 1
    end

  let take s k =
    if s.n = 0 then false
    else begin
      let i = find s.keys k in
      if s.keys.(i) = k && s.cnts.(i) > 0 then begin
        s.cnts.(i) <- s.cnts.(i) - 1;
        true
      end
      else false
    end
end
