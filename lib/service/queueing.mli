(** Per-worker bounded FIFO inboxes with admission control.

    Each worker owns one inbox over its (arrival-sorted) shard of the
    request schedule. Requests are admitted at their arrival instant;
    an arrival that finds the queue at capacity is {e shed} — rejected
    immediately, never retried — which is the admission-control policy
    that keeps queueing delay bounded under overload. The inbox
    separates the two components of response time: queueing delay
    (admission to serve-start) and service time (serve-start to
    completion).

    The implementation replays admissions lazily at the worker's next
    {!poll} — correct because the worker is a single server, so no
    departure can intervene between two polls; see the comment in the
    implementation. Everything is deterministic in virtual time. *)

type 'a t

type 'a event =
  | Serve of 'a  (** dequeue the head and serve it *)
  | Idle_until of int  (** queue empty; next arrival at this instant *)
  | Done  (** queue empty and schedule exhausted *)

val create :
  cap:int ->
  arr:('a -> int) ->
  ?on_admit:(int -> unit) ->
  ?on_serve:(int -> unit) ->
  ?on_shed:('a -> unit) ->
  'a array ->
  'a t
(** An inbox over requests sorted by [arr], holding at most [cap]
    waiting requests. Telemetry hooks: [on_admit] fires with the new
    depth after an admission, [on_serve] with the new depth after a
    dequeue, [on_shed] with every rejected request.
    @raise Invalid_argument if [cap < 1]. *)

val poll : 'a t -> now:int -> 'a event
(** Admit every arrival with [arr <= now] (shedding on overflow), then
    dequeue the head if any. *)

val shed : 'a t -> int
(** Requests rejected so far. *)
