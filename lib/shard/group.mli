(** A shard group: one object base served by [N] shards, with a
    scatter-gather router whose answers are byte-identical to the
    unsharded engine at every shard count and job count.

    {2 Architecture}

    A shard partitions {e index work}, never the object base (the
    paper's Def. 3.8 / Thm. 3.9 decompose the access support relation,
    not the base it is built over).  Every shard reads the one store the
    caller passed in, through one shared {!Storage.Heap} layout; what
    each shard owns is an environment with a private
    {!Storage.Stats} sheaf, an engine, a quarantine registry and the
    horizontal fragments ([Core.Asr.create ~owner]) holding only the
    tuples {!Placement} assigns to it.  Tree sizes and lookup work
    split ~1/N per shard, while navigation and extent-scan fallbacks
    read the full store and stay exact.

    One {!Core.Maintenance.t} maintains all [N] fragments from the
    store's event stream, so a write updates each fragment exactly once
    and there is no per-shard copy of the base to keep converged.

    {2 Write contract}

    Shard tasks read the shared live store from several domains at
    once.  No write (store mutation, maintenance flush, registration)
    may run concurrently with a group query: mutate between queries,
    from the caller's domain.

    {2 Routing}

    A forward batch anchored at the query path's origin ([i = 0]) is
    {e grouped}: probes are partitioned by owner shard and each shard
    answers its own probes exactly — sound because a tuple whose column
    0 equals the probe has the probe as its leftmost non-NULL column,
    hence lives on the probe's owner shard, and because grouping is only
    chosen when every registered index embeds the query path at offset 0
    ({!Engine.embedding_offset}).  Everything else — backward queries,
    deeper anchors, paths some index embeds at a positive offset — is
    {e scattered}: every shard evaluates every probe and the per-probe
    answers are unioned.  A single probe is a batch of one.

    {2 Determinism}

    Shard tasks run on a {!Parallel.Pool}, whose [run_all] returns
    results in input (shard) order regardless of scheduling; merges sort
    with the same comparators the engine's batch entry points use
    ([Gom.Oid.compare] / [Gom.Value.compare] under [List.sort_uniq]).
    Answers are therefore a function of the probe set alone — identical
    at 1, 2, 4 or 8 shards, and at any [jobs]. *)

type t

val create :
  ?jobs:int ->
  ?policy:Core.Maintenance.flush_policy ->
  ?size_of:(Gom.Schema.type_name -> int) ->
  placement:Placement.t ->
  Gom.Store.t ->
  t
(** An in-memory group over the given store, which every shard reads
    and all writes go through.  [jobs] sizes the domain pool (default:
    the shard count); [policy] is the maintenance manager's flush
    policy; [size_of] feeds the heap layout (default 100 bytes per
    object, the test suite's convention). *)

val create_on :
  ?jobs:int -> placement:Placement.t -> manager:Core.Maintenance.t -> Core.Exec.env -> t
(** Assemble a group over pre-built plumbing — the durable layer's
    entry point, whose {!Durability.Db} already owns the store, heap and
    maintenance manager.  The shard environments read [env]'s store and
    heap, each with a fresh sheaf; [manager] must be subscribed to that
    store, and maintains every fragment {!register} creates. *)

val shards : t -> int
val jobs : t -> int
val placement : t -> Placement.t

val store : t -> Gom.Store.t
(** The one store every shard reads — the write endpoint. *)

val engine : t -> int -> Engine.t

val manager : t -> Core.Maintenance.t
(** The maintenance manager of every fragment: flush policy, draining
    and pending-delta counts all go through it. *)

val quarantine_registry : t -> int -> Integrity.Quarantine.t
(** Shard [k]'s quarantine registry, already attached as its engine's
    health oracle — quarantining a shard's partition degrades planning
    {e on that shard only}. *)

val asrs : t -> int -> Core.Asr.t list
(** Shard [k]'s fragment relations, in registration order. *)

val register :
  t -> path:Gom.Path.t -> kind:Core.Extension.kind -> dec:Core.Decomposition.t -> unit
(** Materialise one access support relation as [N] owner-filtered
    fragments — one per shard, each registered with the group's
    maintenance manager and its shard's engine. *)

(** {2 Scatter-gather queries} *)

val forward_batch :
  t -> Gom.Path.t -> i:int -> j:int -> Gom.Oid.t list -> (Gom.Oid.t * Gom.Value.t list) list
(** Batched scatter-gather: probes are deduplicated and sorted, routed
    grouped or scattered, evaluated through each shard's
    {!Engine.forward_batch} (shared descents per shard), and merged
    deterministically.  Answers equal the unsharded engine's, byte for
    byte. *)

val backward_batch :
  t ->
  Gom.Path.t ->
  i:int ->
  j:int ->
  targets:Gom.Value.t list ->
  (Gom.Value.t * Gom.Oid.t list) list

(** {2 Accounting} *)

val shard_summaries : t -> Storage.Stats.summary array
(** Per-shard query sheaves (each shard's environment counts its own
    pages privately). *)

val stats_summary : t -> Storage.Stats.summary
(** The group accountant: the router's grouped/scatter counters, every
    shard sheaf and the maintenance manager's sheaf, merged with
    {!Storage.Stats.merge}. *)

val total_pages : t -> int array
(** Per-shard page counts over all fragment relations (one clustering
    copy each) — the bench's per-shard balance report. *)

val close : t -> unit
(** Stop maintaining the fragments ({!Core.Maintenance.suspend} on each)
    and shut the domain pool down.  Idempotent; the store and the
    relations survive, frozen at their state when [close] ran. *)
