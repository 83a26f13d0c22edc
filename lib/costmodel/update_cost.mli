(** Analytical update costs (paper, section 6).

    The modelled operation is [ins_i]: inserting an object into the
    set-valued attribute [A(i+1)] of an object [o_i] of type [t_i]
    ([insert o into o_i.A(i+1)]).  The total cost decomposes into the
    object update itself, the search establishing the new paths
    ([I_l]/[I_r], section 6.1, equation 36), and the updates of the
    access support relation partitions (section 6.2). *)

val search :
  Profile.t -> Core.Extension.kind -> Core.Decomposition.t -> int -> float
(** Equation 36: expected search cost for [ins_i].  Full extensions
    search only the access relations; left-complete adds a conditional
    forward data search, right-complete a conditional backward extent
    sweep, canonical possibly both. *)

val aup : Profile.t -> Core.Extension.kind -> Core.Decomposition.t -> int -> float
(** Access-relation update cost: per partition, the B+ tree descents
    plus read-and-write-back of the touched leaf clusters (both
    clustering copies).  Partitions with no touched clusters cost
    nothing. *)

val total : Profile.t -> Core.Extension.kind -> Core.Decomposition.t -> int -> float
(** The object update itself (3 page accesses, section 6), plus
    {!search}, plus {!aup}. *)

val total_no_support : float
(** Update cost without any access support relation: just the object
    update. *)
