(** Deterministic placement of extension tuples across shards.

    The decomposition theory (Def. 3.8, Thm. 3.9) splits an access
    support relation {e vertically} without losing answers; this module
    splits it {e horizontally}: every extension tuple is owned by
    exactly one of [N] shards, decided by the tuple's {e clustering
    value} — the leftmost non-NULL column (the column forward lookups
    anchor on).  The fragments partition the extension, so per-shard
    answers union to the unsharded answer, and a probe anchored at
    column 0 is answered {e wholly} by the probe's owner shard (every
    tuple whose column 0 equals the probe has that probe as its
    leftmost non-NULL column).

    Both strategies are pure functions of the value — no placement
    tables, no state, stable across process restarts — so recovery
    recomputes the same fragments the writer produced. *)

type strategy =
  | Hash  (** Multiplicative hash of the identifier (default). *)
  | Range of int
      (** [Range stride]: identifier range [k*stride .. (k+1)*stride-1]
          maps to shard [k mod n] — path-range placement preserving
          creation locality within a stride. *)

type t

val make : ?strategy:strategy -> int -> t
(** [make n] places across [n] shards.
    @raise Invalid_argument unless [n >= 1] (and, for [Range], the
    stride is [>= 1]). *)

val shards : t -> int
val strategy : t -> strategy

val to_string : t -> string
(** Manifest form: ["hash"] or ["range:<stride>"] (shard count is
    recorded separately). *)

val of_string : shards:int -> string -> t option
(** Parse the manifest form back; [None] on malformed input. *)

val shard_of_id : t -> int -> int
(** Placement of a raw identifier — [Hash] mixes it multiplicatively,
    [Range stride] maps range [k*stride .. (k+1)*stride-1] to shard
    [k mod shards]. *)

val shard_of_oid : t -> Gom.Oid.t -> int

val shard_of_tuple : t -> Relation.Tuple.t -> int
(** Owner of a tuple, placed by its leftmost non-NULL column: a
    reference by its identifier, an elementary value by a
    process-independent FNV-1a hash of its serialised form; an all-NULL
    tuple (which no extension contains) owns to shard 0. *)

val owner_pred : t -> int -> Relation.Tuple.t -> bool
(** [owner_pred t k] is the predicate handed to [Core.Asr.create
    ~owner]: true iff shard [k] owns the tuple. *)

val split : t -> Relation.t -> Relation.t array
(** Partition a relation into its [shards] fragments — fragment [k]
    holds exactly the tuples [owner_pred t k] accepts.  The fragments
    are pairwise disjoint and union back to the input (the horizontal
    side of Thm. 3.9, checked by the decomposition property tests). *)
