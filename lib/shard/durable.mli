(** A durable shard group: one {!Durability.Db} (write-ahead log +
    atomic snapshots + recovery) under a {!Group}, plus a cross-shard
    manifest recording the shard count, the placement and the
    registered access support relations.

    {2 Directory layout}

    {v
    <dir>/SHARDS              "asr-shards v1": shard count, placement, ASR specs
    <dir>/shard-0/            the Db: MANIFEST / snapshot / wal
    v}

    Shards partition index work, not the base (see {!Group}), so there
    is one store, one log and one recovery.  The Db lives in
    [shard-0/], the directory earlier layouts gave the write endpoint;
    [shard-1/] … directories they left behind are ignored.

    The fragment relations are registered with the Db's maintenance
    manager, so every flush is framed in the one log, but {e not}
    through {!Durability.Db.register_asr}: the Db's own recovery would
    rebuild them unfiltered.  The cross-shard manifest holds the specs
    instead, and {!open_} re-creates the owner-filtered fragments over
    the recovered store.

    The write contract of {!Group} applies: no write may run
    concurrently with a group query. *)

exception Shard_error of string

val shards_file : string -> string
(** [dir]'s cross-shard manifest path. *)

type t

val create :
  ?policy:Durability.Wal.sync_policy ->
  ?fault:Durability.Fault.t ->
  ?jobs:int ->
  ?placement:Placement.t ->
  dir:string ->
  Gom.Store.t ->
  t
(** Initialise a durable shard group at [dir] (created if missing) over
    an in-memory store.  [placement] defaults to hash placement over 1
    shard; [fault] is the Db's fault environment (crash sweeps arm it).
    @raise Shard_error if [dir] already holds a cross-shard manifest. *)

val open_ :
  ?policy:Durability.Wal.sync_policy ->
  ?fault:Durability.Fault.t ->
  ?jobs:int ->
  dir:string ->
  unit ->
  t
(** Recover the Db and re-create the registered fragment relations
    from the cross-shard manifest.
    @raise Shard_error on a malformed cross-shard manifest. *)

val group : t -> Group.t
(** The assembled group — routing, quarantine, stats and the
    maintenance manager all go through it. *)

val db : t -> Durability.Db.t
(** The one durable base: generation, recovery report, framed
    maintenance flushes and checkpoints. *)

val register :
  t -> path:string -> kind:Core.Extension.kind -> ?dec:string -> unit -> unit
(** Register an access support relation over a path expression (parsed
    against the schema, like {!Durability.Db.register_asr}), fragment
    it across the shards, and persist the registration in the
    cross-shard manifest so {!open_} re-creates it.
    @raise Shard_error on a malformed path/decomposition or duplicate
    registration. *)

val specs : t -> Durability.Db.spec list

val close : t -> unit
(** Close the group (fragment maintenance, pool) and the Db.
    Idempotent. *)
