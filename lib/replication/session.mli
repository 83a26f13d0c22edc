(** The replication pump: one primary, one channel, one replica, and a
    circuit breaker with seeded jittered backoff guarding the shipping
    side against partitions.

    Each {!step} ships newly committed bytes (and any rewound resends)
    through the breaker, then drains every delivered frame into the
    replica: applied frames are acknowledged back to the primary's
    resend buffer, and rejects that mean loss or damage (gaps,
    misalignment, CRC failures) rewind it.  Partition faults surface as
    {!Durability.Fault.Retryable} out of the channel, trip the breaker
    after its threshold, and reconnect via its half-open probe — no
    replication-specific retry code exists. *)

exception Stalled of string
(** {!drain} exceeded its step budget without quiescing. *)

type t

val create :
  ?config:Resilience.Breaker.config ->
  ?seed:int ->
  ?clock:(unit -> float) ->
  ?stats:Storage.Stats.t ->
  ?stop_after_sends:int ->
  primary:Primary.t ->
  channel:Channel.t ->
  replica:Replica.t ->
  unit ->
  t
(** [?clock] defaults to a deterministic tick-per-call clock so tests
    replay exactly; [?seed] fixes the breaker's jitter stream.
    [?stop_after_sends:k] kills the primary after the channel's [k]'th
    send — frames already in flight may still deliver, nothing new
    ships — which is how the failover smoke stages a mid-churn death
    at a chosen frame. *)

val step : t -> int
(** One pump round; returns frames applied by the replica. *)

val drain : ?max_steps:int -> t -> int
(** Pump until quiescent — nothing in flight, nothing to resend, and
    the primary fully shipped (or dead) — or until the replica flags
    divergence.  Returns steps taken.
    @raise Stalled past [max_steps] (default 10000). *)

val kill : t -> int
(** Kill the primary now {e and} the link with it: no further
    shipping, and every in-flight frame is dropped (counted).  Returns
    the frames lost. *)

val quiescent : t -> bool
val steps : t -> int
