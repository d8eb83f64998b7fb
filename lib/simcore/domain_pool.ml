exception
  Job_error of {
    index : int;
    label : string;
    exn : exn;
    backtrace : string;
  }

let () =
  Printexc.register_printer (function
    | Job_error { index; label; exn; _ } ->
        Some
          (Printf.sprintf "Job_error(job %d [%s]: %s)" index label
             (Printexc.to_string exn))
    | _ -> None)

type t = {
  jobs : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  cond : Condition.t;  (* signals both "work available" and "job done" *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* Workers block on [cond] until a thunk is queued or the pool closes.
   Thunks never raise: [map_ordered] wraps the user function so every
   outcome is stored, not thrown through the worker. *)
let worker_loop t =
  let continue = ref true in
  while !continue do
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.cond t.mutex
    done;
    (match Queue.take_opt t.queue with
    | Some task ->
        Mutex.unlock t.mutex;
        task ()
    | None ->
        (* closed and drained *)
        Mutex.unlock t.mutex;
        continue := false)
  done

let create ~jobs =
  if jobs < 1 then invalid_arg "Domain_pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      queue = Queue.create ();
      mutex = Mutex.create ();
      cond = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.cond;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_label _ = ""

let raise_first_error results labels =
  Array.iteri
    (fun index r ->
      match r with
      | Some (Error (exn, backtrace)) ->
          raise (Job_error { index; label = labels index; exn; backtrace })
      | Some (Ok _) | None -> ())
    results

let map_ordered t ?(label = default_label) f xs =
  let label_of xs_arr i =
    match label xs_arr.(i) with "" -> string_of_int i | s -> s
  in
  match xs with
  | [] -> []
  | xs when t.jobs <= 1 ->
      (* No-domain fast path: the sequential harness, verbatim — same
         abort-at-first-failure behaviour as the List.map it replaces,
         but with the failure named like the parallel path names it. *)
      List.mapi
        (fun i x ->
          try f x
          with exn ->
            let backtrace = Printexc.get_backtrace () in
            let label = (match label x with "" -> string_of_int i | s -> s) in
            raise (Job_error { index = i; label; exn; backtrace }))
        xs
  | xs ->
      if t.closed then invalid_arg "Domain_pool.map_ordered: pool is shut down";
      let inputs = Array.of_list xs in
      let n = Array.length inputs in
      let results = Array.make n None in
      let completed = ref 0 in
      let task i () =
        let r =
          try Ok (f inputs.(i))
          with exn -> Error (exn, Printexc.get_backtrace ())
        in
        Mutex.lock t.mutex;
        results.(i) <- Some r;
        incr completed;
        Condition.broadcast t.cond;
        Mutex.unlock t.mutex
      in
      Mutex.lock t.mutex;
      for i = 0 to n - 1 do
        Queue.push (task i) t.queue
      done;
      Condition.broadcast t.cond;
      (* The submitting domain is a worker too: drain our own queue, then
         wait for the in-flight tail. *)
      let rec drain () =
        match Queue.take_opt t.queue with
        | Some task ->
            Mutex.unlock t.mutex;
            task ();
            Mutex.lock t.mutex;
            drain ()
        | None -> ()
      in
      drain ();
      while !completed < n do
        Condition.wait t.cond t.mutex
      done;
      Mutex.unlock t.mutex;
      raise_first_error results (label_of inputs);
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error _) | None -> assert false (* raised above *))
           results)

let map_grid t ?label ~rows ~cols f =
  let cells = List.concat_map (fun r -> List.map (fun c -> (r, c)) cols) rows in
  let label =
    match label with None -> None | Some l -> Some (fun (r, c) -> l r c)
  in
  let flat = map_ordered t ?label (fun (r, c) -> f r c) cells in
  let width = List.length cols in
  let rec regroup rows flat =
    match rows with
    | [] ->
        assert (flat = []);
        []
    | r :: rest ->
        let rec take k acc flat =
          if k = 0 then (List.rev acc, flat)
          else
            match flat with
            | v :: tl -> take (k - 1) (v :: acc) tl
            | [] -> assert false
        in
        let row, flat = take width [] flat in
        (r, row) :: regroup rest flat
  in
  regroup rows flat

let sequential = create ~jobs:1

let domain_id () = (Domain.self () :> int)
