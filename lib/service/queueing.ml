(* A worker's bounded FIFO inbox, replayed serially in virtual time.

   The worker is a single server: between two polls it serves at most
   one request and nothing leaves the queue, so admitting every arrival
   with [arr <= now] in arrival order — shedding when the queue is at
   capacity — computes exactly the occupancy a discrete-event simulation
   of the inbox would. Admission happens at the arrival instant in the
   model even though the code runs it at the next poll: no serve
   completes in between, so the occupancy each arrival sees is the same
   either way. *)

type 'a t = {
  cap : int;
  arr_of : 'a -> int;
  reqs : 'a array;
  mutable next : int;
  q : 'a Queue.t;
  mutable shed : int;
  on_admit : int -> unit;
  on_serve : int -> unit;
  on_shed : 'a -> unit;
}

type 'a event = Serve of 'a | Idle_until of int | Done

let nop1 _ = ()

let create ~cap ~arr ?(on_admit = nop1) ?(on_serve = nop1) ?(on_shed = nop1)
    reqs =
  if cap < 1 then invalid_arg "Queueing.create: cap must be >= 1";
  {
    cap;
    arr_of = arr;
    reqs;
    next = 0;
    q = Queue.create ();
    shed = 0;
    on_admit;
    on_serve;
    on_shed;
  }

let admit t ~now =
  let n = Array.length t.reqs in
  while t.next < n && t.arr_of t.reqs.(t.next) <= now do
    let r = t.reqs.(t.next) in
    if Queue.length t.q < t.cap then begin
      Queue.push r t.q;
      t.on_admit (Queue.length t.q)
    end
    else begin
      t.shed <- t.shed + 1;
      t.on_shed r
    end;
    t.next <- t.next + 1
  done

let poll t ~now =
  admit t ~now;
  if not (Queue.is_empty t.q) then begin
    let r = Queue.pop t.q in
    t.on_serve (Queue.length t.q);
    Serve r
  end
  else if t.next >= Array.length t.reqs then Done
  else Idle_until (t.arr_of t.reqs.(t.next))

let shed t = t.shed
