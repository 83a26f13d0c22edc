(** Analytical query costs in secondary page accesses
    (paper, sections 5.6-5.8, equations 31-35). *)

type query_kind = Fw | Bw

val qnas_fw : Profile.t -> int -> int -> float
(** Equation 31: forward query from one object, no access support.
    0 when [i = j]. *)

val qnas_bw : Profile.t -> int -> int -> float
(** Equation 32: backward query by exhaustive search. *)

val qnas : Profile.t -> query_kind -> int -> int -> float

val qsup :
  Profile.t -> Core.Extension.kind -> Core.Decomposition.t -> query_kind -> int -> int -> float
(** Equations 33-34: supported query over a decomposition.  This is the
    raw partition-access formula; it does not check logical
    applicability (section 6 reuses it to locate tuples inside an
    extension that would not support the query logically). *)

val q :
  Profile.t -> Core.Extension.kind -> Core.Decomposition.t -> query_kind -> int -> int -> float
(** Equation 35: dispatch — supported evaluation when the extension
    applies to [(i,j)], the unsupported cost otherwise. *)

val warmed : float -> hit_ratio:float option -> float
(** Buffer-aware adjustment of an analytical cost: equations 31-35
    price page accesses as physical faults, so against a buffer pool
    whose measured hit ratio for the relevant segment is [r] the
    expected physical cost is scaled by [1 - 0.95 r] (floored at 5% of
    the cold cost — warm pages still cost logical work).  [None] (no
    pool, or no traffic observed yet) leaves the cold cost unchanged. *)
