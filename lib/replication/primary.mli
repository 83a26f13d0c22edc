(** The shipping side: wraps a live {!Durability.Db.t} and streams its
    write-ahead log to a replica as sealed, CRC-framed slices.

    The primary tracks its own log's committed prefix incrementally
    (a {!Durability.Wal.Scanner} fed only the file's new bytes) and
    ships exactly the bytes in [\[shipped, committed)] — never an open
    transaction's tail, so every shipped byte is replayable.  A
    checkpoint rotation (or a fresh replica) is handled by a [Reset]
    frame carrying the generation's snapshot image and manifest specs.
    Unacknowledged frames stay buffered: when the replica reports a gap
    or rejects a damaged frame, {!rewind} re-arms them for resend, and
    {!ack} releases everything at or below the acknowledged sequence.

    Periodic [Digest] frames (every [digest_every] data frames, at
    committed boundaries only) let the replica check its store and
    every ASR against the primary's scrubber-style digests {e during}
    catch-up, not just at promotion. *)

exception Replication_error of string

type t

val create : ?frame_bytes:int -> ?digest_every:int -> Durability.Db.t -> t
(** Wrap an open durable base.  [frame_bytes] (default 4096) caps each
    slice; [digest_every] (default 8, [0] = never) sets the digest
    cadence in data frames. *)

val ship : t -> Channel.t -> int
(** One shipping round: resend anything re-armed by {!rewind}, emit a
    [Reset] if the generation moved, then slice and send every newly
    committed byte (with periodic digests).  Returns frames sent.
    Call outside open store transactions.
    @raise Durability.Fault.Retryable when the channel partitions —
    already-assigned frames stay buffered and resend later.
    @raise Replication_error if our own log fails its frame checks or
    the replica claims an offset past our committed prefix. *)

val ship_digest : t -> Channel.t -> bool
(** Send a digest frame for the current committed boundary now,
    regardless of cadence.  Returns [false] (and sends nothing) inside
    an open transaction or before anything has shipped, because the
    digest would not describe a committed state. *)

val attach : t -> gen:int -> off:int -> unit
(** Resume shipping to a replica that already holds generation [gen]
    up to byte [off] — skips the [Reset] when the generation still
    matches.  A stale [gen] is ignored (the next {!ship} resets). *)

val ack : t -> seq:int -> unit
(** The replica applied everything up to and including [seq]: release
    the resend buffer up to there. *)

val rewind : t -> seq:int -> unit
(** The replica rejected a frame and expects [seq] next: re-arm every
    buffered frame from [seq] on for resend. *)

val next_seq : t -> int
val committed_bytes : t -> int
(** Committed prefix of our own log, as of the last {!ship}. *)

val lag : t -> int
(** Committed bytes not yet shipped (0 when in sync). *)

val log_bytes_read : t -> int
(** Bytes of our own log read so far.  Each {!ship} reads only the
    suffix past the lesser of the scanned and the shipped offsets. *)

val unacked : t -> int
(** Frames shipped but not yet acknowledged. *)

val resending : t -> bool
(** A rewind (or partition-refused send) is pending resend. *)
