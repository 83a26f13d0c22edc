(** Application and system profiles for the analytical cost model
    (paper, Figure 3).

    A profile describes a path expression [t0.A1.....An] statistically:
    object counts [c_i], counts of objects with instantiated next
    attribute [d_i], reference fan-outs [fan_i], object sizes [size_i],
    and optionally sharing degrees [shar_i] (defaulting to the uniform
    assumption [shar_i = d_i * fan_i / c_(i+1)]).

    The analytical model works on the paper's simplification [m = n]
    (set identifiers dropped — no set sharing, section 3). *)

type system = {
  page_size : float;  (** Net page size; default 4056. *)
  oid_size : float;  (** Default 8. *)
  pp_size : float;  (** Default 4. *)
}

val bplus_fan : system -> float
(** [floor (page_size / (pp_size + oid_size))] = 338 by default. *)

type t

(** How the sharing degree [shar_i] is derived when not given
    explicitly.

    [Uniform] (the default) assumes references choose their targets
    uniformly at random, so the expected number of {e distinct}
    referenced objects is [e_(i+1) = c_(i+1) * (1 - (1 - 1/c_(i+1))^(d_i
    * fan_i))] and [shar_i = d_i * fan_i / e_(i+1)] — this matches the
    synthetic generator and keeps partially-referenced extents partial.

    [Paper_default] is Figure 3's literal [shar_i = d_i * fan_i /
    c_(i+1)], which makes {e every} target object referenced
    ([e_(i+1) = c_(i+1)]); under it the right-complete extension
    degenerates to the canonical one for undecomposed relations.  It is
    kept for fidelity experiments. *)
type sharing = Uniform | Paper_default

val make :
  ?sizes:float list ->
  ?shar:float list ->
  ?sharing:sharing ->
  ?system:system ->
  c:float list ->
  d:float list ->
  fan:float list ->
  unit ->
  t
(** [make ~c ~d ~fan ()] builds a profile with [n = length d].
    [c] must have [n+1] entries, [d] and [fan] exactly [n], [sizes]
    (default 100 bytes each) [n+1], [shar] (optional) [n].
    @raise Invalid_argument on inconsistent lengths, non-positive [c],
    negative [d]/[fan], or [d_i > c_i]. *)

val n : t -> int
val system : t -> system

val c : t -> int -> float
(** Objects of type [t_i], [0 <= i <= n]. *)

val d : t -> int -> float
(** Objects of [t_i] with instantiated [A(i+1)], [0 <= i < n]. *)

val fan : t -> int -> float
(** Average out-degree of [A(i+1)], [0 <= i < n]. *)

val size : t -> int -> float
(** Average object size of [t_i], [0 <= i <= n]. *)

val shar : t -> int -> float
(** Sharing [shar_i]: average number of [t_i] objects referencing the
    same [t_(i+1)] object (explicit, or derived per the {!sharing}
    mode). *)

val e : t -> int -> float
(** Referenced objects [e_i = d_(i-1) * fan_(i-1) / shar_(i-1)],
    [1 <= i <= n] (and [e_0 = c_0] by convention). *)

val p_a : t -> int -> float
(** [P_A(i) = d_i / c_i], the probability that [A(i+1)] is defined. *)

val p_h : t -> int -> float
(** [P_H(i) = e_i / c_i], the probability of being referenced. *)

val ref_ : t -> int -> float
(** [ref_i = d_i * fan_i], the number of outgoing references. *)

val spread : t -> int -> float
(** [spread_i = d_i / e_(i+1)]. *)

val with_sizes : t -> float list -> t
val with_fan : t -> float list -> t

val pp : Format.formatter -> t -> unit
