(** Quarantine registry: which access support relations — or single
    partitions of them — are currently distrusted.

    The registry drives the engine's degraded-mode planning: {!attach}
    installs it as the engine's health oracle, after which the planner
    prices only stitches whose every visited partition is healthy, and
    every quarantine state change invalidates the engine's cached plans
    (a generation bump).  Queries over a quarantined index transparently
    fall back to navigation, an extent scan, or an alternate registered
    index — degradation, never wrong answers. *)

type t

val create : unit -> t

val attach : t -> Engine.t -> unit
(** Make the engine consult this registry (idempotent).  Installs the
    health callback via {!Engine.set_health}; subsequent
    {!quarantine}/{!lift} calls bump the engine's plan generation. *)

val quarantine : ?reason:string -> ?part:int -> t -> Core.Asr.t -> unit
(** Distrust the whole relation, or just partition [?part].  Idempotent;
    a whole-relation entry subsumes partition entries. *)

val lift : ?part:int -> t -> Core.Asr.t -> unit
(** Trust again: without [?part] every entry for the relation is
    removed; with it only that partition's entry. *)

val is_quarantined : t -> Core.Asr.t -> part:int -> bool

val asr_quarantined : t -> Core.Asr.t -> bool
(** Whether any entry — whole-relation or single-partition — exists. *)

val apply_report : t -> Core.Asr.t -> Scrub.report -> int list
(** Quarantine every partition a scrub report found diverged; returns
    the (sorted, distinct) partitions quarantined — [[]] means the
    report was clean and nothing changed. *)
