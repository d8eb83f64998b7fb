(* A read-mostly shared cache — the workload class that motivates the
   paper's introduction: many threads traverse a linked structure, few
   update it, and manual reclamation schemes are easy to get wrong.

   The cache is a Michael hash table over the DRC library. Readers cost
   one snapshot acquisition on average; writers insert/evict; nobody ever
   calls retire, and teardown reclaims every node.

   Run with: dune exec examples/kv_cache.exe *)

open Simcore
module Sets = Cds.Set_catalogue

let () =
  let config = Config.default in
  let mem = Memory.create config in
  let procs = 96 in
  let capacity = 4096 in
  let cache =
    Sets.create Sets.Hash_set "DRC (+snap)" mem ~procs ~buckets:capacity
  in

  (* Warm the cache with half its key space. *)
  for k = 0 to (capacity / 2) - 1 do
    ignore (cache.insert (-1) (k * 2))
  done;

  let hits = Array.make procs 0 and misses = Array.make procs 0 in
  let result =
    Sim.run ~config ~procs (fun pid ->
        let rng = Proc.rng () in
        while Proc.now () < 150_000 do
          let k = Rng.int rng capacity in
          if Rng.below rng 0.95 then begin
            (* Lookup; on miss, populate (a tiny cache-fill protocol). *)
            if cache.contains pid k then hits.(pid) <- hits.(pid) + 1
            else begin
              misses.(pid) <- misses.(pid) + 1;
              ignore (cache.insert pid k)
            end
          end
          else
            (* Eviction pressure. *)
            ignore (cache.delete pid (Rng.int rng capacity))
        done)
  in
  assert (result.Sim.faults = []);
  let total f = Array.fold_left ( + ) 0 f in
  Printf.printf "cache run: %d hits, %d misses (fills), makespan %d ticks\n"
    (total hits) (total misses) result.Sim.makespan;
  Printf.printf "unreclaimed evicted nodes right now: %d\n"
    (cache.extra_nodes ());
  cache.flush ();
  Printf.printf "after quiescent flush: %d (the paper's point: nobody ever \
                 wrote a retire call)\n"
    (cache.extra_nodes ())
