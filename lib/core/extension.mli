(** The four extensions of an access support relation
    (paper, Definitions 3.4-3.7).

    - {e canonical}: natural-join chain — only complete paths from [t0]
      to [tn];
    - {e full}: full-outer chain — every maximal (partial) path;
    - {e left-complete}: left-outer chain — every maximal path
      originating in [t0];
    - {e right-complete}: right-outer chain — every maximal path whose
      last attribute [An] is instantiated. *)

type kind = Canonical | Full | Left_complete | Right_complete

val all : kind list

val name : kind -> string
(** ["can"], ["full"], ["left"], ["right"] — the paper's subscripts. *)

val of_name : string -> kind option

val join_kind : kind -> Relation.join_kind

val compute : Gom.Store.t -> Gom.Path.t -> kind -> Relation.t
(** Materialise the extension from the object base, composing the
    auxiliary relations with the corresponding join chain. *)

val supports : kind -> n:int -> i:int -> j:int -> bool
(** Applicability of the extension to a query over sub-path
    [(i, j)] of a length-[n] path (paper, section 5.3 / equation 35):
    canonical only for [(0, n)], left-complete for [i = 0],
    right-complete for [j = n], full always. *)

val member : kind -> Gom.Path.t -> Relation.Tuple.t -> bool
(** Whether a {e maximal partial-path} tuple belongs to the extension:
    canonical requires origin and terminal completeness, left-complete
    origin, right-complete terminal, full neither.  (Used by incremental
    maintenance; agreement with {!compute} is property-tested.) *)
