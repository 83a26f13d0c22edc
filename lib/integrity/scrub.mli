(** Integrity scrubber: audit an access support relation's physical
    partitions against the object graph.

    A scrub recomputes the relation's extension from the live store
    (Defs. 3.4-3.7's ground truth) and compares every partition's B+
    tree contents — reference counts included — against the expected
    projections, either exhaustively or over a deterministic OID
    sample.  The result is a typed divergence report the quarantine
    registry and the repairer consume, and that [asr_cli doctor] prints
    and serialises. *)

type divergence =
  | Missing of { part : int; proj : Relation.Tuple.t; count : int }
      (** [count] references to the projection are absent from the
          partition's trees. *)
  | Phantom of { part : int; proj : Relation.Tuple.t; count : int }
      (** [count] spurious references are present that no extension
          tuple projects onto.  Only reported by exhaustive audits of
          exclusively owned partitions (a sample misses expected tuples;
          a shared tree's extras may belong to a co-sharer). *)
  | Null_marker of {
      part : int;
      expected : Relation.Tuple.t;
      actual : Relation.Tuple.t;
      count : int;
    }
      (** A missing and a phantom projection that differ only in columns
          where exactly one of them is NULL: the stored tuple records
          the wrong maximal partial path. *)

type report = {
  r_path : string;  (** The relation's path expression. *)
  r_kind : string;  (** Extension kind name. *)
  r_cardinality : int;  (** Ground-truth extension tuples. *)
  r_partitions : int;
  r_shared_partitions : int;
  r_sample : int option;  (** [Some k]: 1-in-[k] deterministic sample. *)
  r_divergences : divergence list;
}

val clean : report -> bool

val run :
  ?deadline:Core.Deadline.t ->
  ?fault:Durability.Fault.t ->
  ?sample:int ->
  ?stats:Storage.Stats.t ->
  Core.Asr.t ->
  report
(** Audit every partition.  [?sample:k] restricts the audit to the
    deterministic 1-in-[k] OID sample (presence checks only).  Each
    partition audited is counted via {!Storage.Stats.Scrub} and as
    one logical read against [?fault] — transient read faults are
    absorbed by bounded retry with deterministic backoff.  [?deadline]
    is checked between partition audits, so a background scrub yields
    under load instead of monopolising a domain.
    @raise Invalid_argument if [sample < 1].
    @raise Core.Deadline.Expired between partition audits.
    @raise Durability.Fault.Crash per the fault plan. *)

val divergence_part : divergence -> int
val divergence_to_string : divergence -> string
val report_to_string : report -> string

val report_to_json : report -> string
(** One-line machine-readable report (the CI fault-matrix artifact). *)
