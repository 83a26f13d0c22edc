(** Per-shard durability: each shard of a {!Group} is its own
    {!Durability.Db} (write-ahead log + atomic snapshots + recovery in
    a private directory), with one cross-shard manifest tying the
    shards together.

    {2 Directory layout}

    {v
    <dir>/SHARDS              shard count, placement, registered ASRs
    <dir>/shard-0/            shard 0's MANIFEST / snapshot / wal
    <dir>/shard-1/            ...
    v}

    Every shard logs the {e full} event stream (the fan-out replays
    each primary event onto every replica store, and each replica's Db
    logs what its store emits), so each shard directory recovers
    independently to a prefix of the same history.  The fragment
    relations are {e not} registered in the per-shard manifests — a
    per-shard recovery would rebuild them unfiltered; instead the
    cross-shard manifest holds the specs and {!open_} re-creates the
    owner-filtered fragments over the recovered stores.

    {2 Agreement gate}

    Shards crash independently, so recovered shards may sit at
    different prefixes.  {!open_} compares a content CRC
    ({!Gom.Crc32} over {!Gom.Serial.store_to_string}) across the
    recovered stores and {e refuses to serve} — {!Shard_error} — on any
    disagreement.  With [~reconcile:true] it instead adopts shard 0's
    recovered state (shard 0 is the write endpoint, whose log carries
    the transaction commit barriers): each disagreeing shard directory
    is rebuilt as a fresh generation-1 Db over a copy of shard 0's
    store, after which the gate holds by construction. *)

exception Shard_error of string

val shards_file : string -> string
(** [dir]'s cross-shard manifest path. *)

type t

val create :
  ?policy:Durability.Wal.sync_policy ->
  ?faults:(int -> Durability.Fault.t option) ->
  ?jobs:int ->
  ?placement:Placement.t ->
  dir:string ->
  Gom.Store.t ->
  t
(** Initialise a durable shard group at [dir] (created if missing) from
    an in-memory store: shard 0 wraps the store, replicas are cloned,
    and one {!Durability.Db} is created per shard.  [placement]
    defaults to hash placement over 1 shard; [faults] injects a
    per-shard fault environment (the crash-sweep harness arms exactly
    one shard).
    @raise Shard_error if [dir] already holds a cross-shard manifest. *)

val open_ :
  ?policy:Durability.Wal.sync_policy ->
  ?faults:(int -> Durability.Fault.t option) ->
  ?jobs:int ->
  ?reconcile:bool ->
  dir:string ->
  unit ->
  t
(** Recover every shard, enforce the agreement gate (see above), and
    re-create the registered fragment relations from the cross-shard
    manifest.  [~reconcile] (default [false]) turns refusal into
    adoption of shard 0's state.
    @raise Shard_error when the gate fails without [~reconcile], or on
    a malformed cross-shard manifest. *)

val group : t -> Group.t
(** The assembled group — routing, quarantine, stats and flush control
    all go through it. *)

val register :
  t -> path:string -> kind:Core.Extension.kind -> ?dec:string -> unit -> unit
(** Register an access support relation over a path expression (parsed
    against the schema, like {!Durability.Db.register_asr}), fragment
    it across the shards, and persist the registration in the
    cross-shard manifest so {!open_} re-creates it.
    @raise Shard_error on a malformed path/decomposition or duplicate
    registration. *)

val specs : t -> Durability.Db.spec list

val dbs : t -> Durability.Db.t array

val reports : t -> Durability.Db.report option array
(** Per-shard recovery reports ([None] for freshly created shards). *)

val generations : t -> int array

val content_crc : t -> int32 array
(** Current per-shard content CRCs (equal on a healthy group). *)

val flush_maintenance : t -> int
(** Drain every shard's deferred buffers, each framed in its own shard's
    write-ahead log as one flush group; returns total net deltas. *)

val checkpoint : t -> unit
(** Checkpoint every shard (new snapshot generation, fresh log). *)

val close : t -> unit
(** Close the group (fan-out, pool) and every shard Db.  Idempotent. *)
