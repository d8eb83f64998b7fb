(* Allocation-free heap for the scheduler hot loop: a 4-ary array heap
   over int values with a deterministic (key, insertion-sequence) order
   — ties pop in insertion order. Key and sequence number are packed
   into one int, [(key lsl 31) lor seq], so every comparison is a single
   unboxed int compare and a sift moves one word per level; 4-ary
   halves the tree depth for the scheduler's core-count-sized heaps.
   [pop_min] returns [-1] instead of an option.

   The packing bounds keys to [0, 2^31-1] ticks and insertions to 2^31
   — both a couple of orders of magnitude beyond any simulated run, and
   checked on entry. *)
module Int_heap = struct
  type t = {
    mutable size : int;
    mutable prios : int array;  (* (key lsl 31) lor seq *)
    mutable vals : int array;
    mutable next_seq : int;
  }

  let seq_bits = 31

  let max_key = (1 lsl seq_bits) - 1

  let create cap =
    let cap = max 1 cap in
    { size = 0; prios = Array.make cap 0; vals = Array.make cap 0; next_seq = 0 }

  let is_empty t = t.size = 0

  let length t = t.size

  let grow t =
    let n = Array.length t.prios in
    let extend a =
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.prios <- extend t.prios;
    t.vals <- extend t.vals

  let fresh_prio t key =
    if key < 0 || key > max_key then
      invalid_arg "Int_heap: key out of packed range";
    let seq = t.next_seq in
    if seq > max_key then invalid_arg "Int_heap: insertion sequence overflow";
    t.next_seq <- seq + 1;
    (key lsl seq_bits) lor seq

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 4 in
      if t.prios.(i) < t.prios.(parent) then begin
        let p = t.prios.(i) and v = t.vals.(i) in
        t.prios.(i) <- t.prios.(parent);
        t.vals.(i) <- t.vals.(parent);
        t.prios.(parent) <- p;
        t.vals.(parent) <- v;
        sift_up t parent
      end
    end

  (* Hole-based sift: hold the sinking element in registers and shift
     winning children up, one store per level instead of a swap. Inner
     accesses are unsafe — [m]/[j] are bounded by [t.size], which never
     exceeds the array length (see [add]/[grow]). *)
  let sift_down t i =
    let prios = t.prios and vals = t.vals and size = t.size in
    let p = Array.unsafe_get prios i and v = Array.unsafe_get vals i in
    let i = ref i in
    let continue_ = ref true in
    while !continue_ do
      let c = (4 * !i) + 1 in
      if c >= size then continue_ := false
      else begin
        let m = ref c in
        let pm = ref (Array.unsafe_get prios c) in
        let last = c + 3 in
        let last = if last < size then last else size - 1 in
        for j = c + 1 to last do
          let pj = Array.unsafe_get prios j in
          if pj < !pm then begin
            m := j;
            pm := pj
          end
        done;
        if !pm < p then begin
          Array.unsafe_set prios !i !pm;
          Array.unsafe_set vals !i (Array.unsafe_get vals !m);
          i := !m
        end
        else continue_ := false
      end
    done;
    Array.unsafe_set prios !i p;
    Array.unsafe_set vals !i v

  let add t ~key v =
    if t.size >= Array.length t.prios then grow t;
    let i = t.size in
    t.prios.(i) <- fresh_prio t key;
    t.vals.(i) <- v;
    t.size <- t.size + 1;
    sift_up t i

  let min_key t = if t.size = 0 then max_int else t.prios.(0) lsr seq_bits

  let peek t = if t.size = 0 then -1 else t.vals.(0)

  (* Key of the second element in pop order. Any non-root element is
     dominated by the root child on its ancestor path, so the runner-up
     is among the root's (at most four) children; the key part of the
     smallest packed priority is the smallest key. *)
  let second_key t =
    if t.size < 2 then max_int
    else begin
      let prios = t.prios in
      let m = ref (Array.unsafe_get prios 1) in
      let last = min 4 (t.size - 1) in
      for j = 2 to last do
        let pj = Array.unsafe_get prios j in
        if pj < !m then m := pj
      done;
      !m lsr seq_bits
    end

  (* Re-insert the minimum under a new key without popping it: fresh
     sequence number, one sift — exactly equivalent to [pop_min] plus
     [add ~key], minus the round trip. *)
  let reprioritize_min t ~key =
    assert (t.size > 0);
    t.prios.(0) <- fresh_prio t key;
    sift_down t 0

  let pop_min t =
    if t.size = 0 then -1
    else begin
      let v = t.vals.(0) in
      t.size <- t.size - 1;
      if t.size > 0 then begin
        t.prios.(0) <- t.prios.(t.size);
        t.vals.(0) <- t.vals.(t.size);
        sift_down t 0
      end;
      v
    end
end

(* O(1) variant of {!Int_heap} for the scheduler's exact access pattern:
   keys are core clocks (monotonically advancing), each value is queued
   at most once, and after the initial adds every mutation is a root
   operation — [peek], [second_key], [reprioritize_min], [pop_min].

   A ring of [ring_size] key buckets covers the window
   [base, base + ring_size); [base] tracks the current minimum key, so a
   bucket holds exactly one key and a FIFO chain through [next] gives
   insertion order within it — the same (key, insertion-sequence) total
   order as {!Int_heap}, with no sequence numbers stored. A bitmap over
   buckets makes find-minimum a word scan (usually a single bit test:
   the minimum stays at [base] across the scheduler's
   peek/second/reprioritize triple). Keys at or beyond the window edge —
   a core running far ahead on a huge pay, or a long idle — go to an
   {!Int_heap} overflow, drained back into the ring whenever [base]
   advances; the drain-on-advance discipline keeps ring and overflow key
   ranges disjoint, so cross-structure ties never arise and FIFO order
   within a bucket is insertion order globally.

   The layout is sized for residency, not capacity: between two
   scheduling rounds the simulated workload sweeps the cache, so every
   word the queue touches on re-entry is a potential miss. 256 buckets
   with head and tail interleaved in one array put a bucket on a single
   line and the live window (all cores within a grant of the minimum)
   on a handful; a first cut with 1024 split buckets benchmarked 3x
   faster in isolation and measurably slower inside the simulator. *)
module Core_ring = struct
  let ring_size = 256

  let ring_mask = ring_size - 1

  let bits_words = ring_size / 32 (* 32 buckets per bitmap word *)

  type t = {
    slots : int array; (* bucket b: [2b] first value, [2b+1] last; -1 empty *)
    next : int array; (* value -> successor in its bucket, -1 at end *)
    bits : int array; (* nonempty-bucket bitmap *)
    overflow : Int_heap.t; (* values with key >= base + ring_size *)
    mutable base : int; (* current minimum key (no smaller key exists) *)
    mutable ring_count : int;
    mutable ovf_count : int;
  }

  let create n =
    {
      slots = Array.make (2 * ring_size) (-1);
      next = Array.make (max 1 n) (-1);
      bits = Array.make bits_words 0;
      overflow = Int_heap.create 4;
      base = 0;
      ring_count = 0;
      ovf_count = 0;
    }

  let length t = t.ring_count + t.ovf_count

  let is_empty t = length t = 0

  let[@inline] set_bit t b =
    let w = b lsr 5 in
    Array.unsafe_set t.bits w
      (Array.unsafe_get t.bits w lor (1 lsl (b land 31)))

  let[@inline] clear_bit t b =
    let w = b lsr 5 in
    Array.unsafe_set t.bits w
      (Array.unsafe_get t.bits w land lnot (1 lsl (b land 31)))

  let[@inline] test_bit t b =
    Array.unsafe_get t.bits (b lsr 5) land (1 lsl (b land 31)) <> 0

  (* Count-trailing-zeros of a nonzero 32-bit word (de Bruijn). *)
  let ctz_table =
    [|
      0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
      23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
    |]

  let[@inline] ctz w =
    Array.unsafe_get ctz_table ((((w land -w) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

  (* First nonempty bucket at or after [b0] in wrapped bucket order; -1
     when the bitmap is empty. The final iteration rechecks [b0]'s whole
     word: its high bits were seen empty, its low bits are the wrap. *)
  let scan_from t b0 =
    let w0 = b0 lsr 5 in
    let m0 = Array.unsafe_get t.bits w0 land (-1 lsl (b0 land 31)) in
    if m0 <> 0 then (w0 lsl 5) + ctz m0
    else begin
      let found = ref (-1) in
      let i = ref 1 in
      while !found < 0 && !i <= bits_words do
        let w = (w0 + !i) land (bits_words - 1) in
        let m = Array.unsafe_get t.bits w in
        if m <> 0 then found := (w lsl 5) + ctz m;
        incr i
      done;
      !found
    end

  let[@inline] ring_insert t ~key v =
    let b = key land ring_mask in
    (match Array.unsafe_get t.slots ((2 * b) + 1) with
    | -1 ->
        Array.unsafe_set t.slots (2 * b) v;
        set_bit t b
    | l -> Array.unsafe_set t.next l v);
    Array.unsafe_set t.slots ((2 * b) + 1) v;
    Array.unsafe_set t.next v (-1);
    t.ring_count <- t.ring_count + 1

  let drain t =
    while
      t.ovf_count > 0 && Int_heap.min_key t.overflow < t.base + ring_size
    do
      let k = Int_heap.min_key t.overflow in
      let v = Int_heap.pop_min t.overflow in
      t.ovf_count <- t.ovf_count - 1;
      ring_insert t ~key:k v
    done

  let add t ~key v =
    if key < t.base then invalid_arg "Core_ring.add: key below current minimum";
    if key - t.base < ring_size then ring_insert t ~key v
    else begin
      Int_heap.add t.overflow ~key v;
      t.ovf_count <- t.ovf_count + 1
    end

  (* The minimum key, or [max_int] when empty. Advances [base] to it
     (draining newly in-window overflow); the fast path — the minimum
     still sits at [base] — is one bit test. *)
  let[@inline] find_min t =
    if t.ring_count = 0 then
      if t.ovf_count = 0 then max_int
      else begin
        t.base <- Int_heap.min_key t.overflow;
        drain t;
        t.base
      end
    else begin
      let b0 = t.base land ring_mask in
      if test_bit t b0 then t.base
      else begin
        let b = scan_from t b0 in
        t.base <- t.base + ((b - b0) land ring_mask);
        if t.ovf_count > 0 then drain t;
        t.base
      end
    end

  let min_key t = find_min t

  let peek t =
    let k = find_min t in
    if k = max_int then -1 else Array.unsafe_get t.slots (2 * (k land ring_mask))

  (* Key of the second element in pop order: the runner-up is either
     behind the root in its own bucket (same key), in the next nonempty
     bucket, or — only when the root's bucket chain and the rest of the
     ring are exhausted — the overflow minimum (overflow keys all lie
     beyond the ring window, hence beyond any ring key). *)
  let second_key t =
    if length t < 2 then max_int
    else begin
      let k = find_min t in
      let b = k land ring_mask in
      if Array.unsafe_get t.next (Array.unsafe_get t.slots (2 * b)) >= 0 then k
      else begin
        let ring2 =
          if t.ring_count < 2 then max_int
          else begin
            let b2 = scan_from t ((b + 1) land ring_mask) in
            if b2 = b then max_int else k + ((b2 - b) land ring_mask)
          end
        in
        if ring2 <> max_int then ring2
        else if t.ovf_count > 0 then Int_heap.min_key t.overflow
        else max_int
      end
    end

  let[@inline] pop_root t =
    let b = t.base land ring_mask in
    let v = Array.unsafe_get t.slots (2 * b) in
    let n = Array.unsafe_get t.next v in
    Array.unsafe_set t.slots (2 * b) n;
    if n = -1 then begin
      Array.unsafe_set t.slots ((2 * b) + 1) (-1);
      clear_bit t b
    end;
    t.ring_count <- t.ring_count - 1;
    v

  let pop_min t =
    if find_min t = max_int then -1 else pop_root t

  (* Re-insert the minimum under a new key: same semantics as
     {!Int_heap.reprioritize_min} — the re-keyed element goes behind
     every element it now ties with. A lone element (the one-core run,
     whose grants are unbounded) skips the overflow: with nothing else
     queued, [base] may jump straight to the new key. *)
  let reprioritize_min t ~key =
    let k = find_min t in
    assert (k <> max_int);
    let v = pop_root t in
    if t.ring_count = 0 && t.ovf_count = 0 then begin
      t.base <- key;
      ring_insert t ~key v
    end
    else if key - t.base < ring_size then ring_insert t ~key v
    else begin
      Int_heap.add t.overflow ~key v;
      t.ovf_count <- t.ovf_count + 1
    end
end
