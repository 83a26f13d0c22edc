(** Storage geometry of access support relations and object extents
    (paper, sections 4.3 and 5.5, equations 13-28).

    Partitions are addressed by object positions [(i,j)].  The [Rnlp]
    family follows the dimensionally consistent reading documented in
    DESIGN.md (the technical report's (25)-(26) contain typos). *)

type kind = Core.Extension.kind

val ats : Profile.t -> int -> int -> float
(** Equation 13: tuple size in bytes, [OIDsize * (j - i + 1)]. *)

val atpp : Profile.t -> int -> int -> float
(** Equation 14: tuples per page. *)

val ap : Profile.t -> kind -> int -> int -> float
(** Equation 16: partition pages (at least 1). *)

val total_pages : Profile.t -> kind -> Core.Decomposition.t -> float
(** Sum of [ap] over the decomposition's partitions — the
    "non-redundant representation" size plotted in Figures 4 and 5. *)

val opp : Profile.t -> int -> float
(** Equation 17: objects of [t_i] per page. *)

val op : Profile.t -> int -> float
(** Equation 18: pages of the [t_i] extent. *)

val ht : Profile.t -> kind -> int -> int -> float
(** Equation 19: B+ tree height above the leaves (at least 1). *)

val pg : Profile.t -> kind -> int -> int -> float
(** Equation 20: non-leaf pages of the B+ tree. *)

val nlp : Profile.t -> kind -> int -> int -> float
(** Equations 21-24: leaf pages per clustering key of the
    forward-clustered B+ tree. *)

val rnlp : Profile.t -> kind -> int -> int -> float
(** Equations 25-28 (corrected): leaf pages per key of the
    backward-clustered tree. *)
