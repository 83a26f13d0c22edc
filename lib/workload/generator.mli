(** Synthetic object-base generator.

    Builds a chain schema [T0 -A1-> T1 -A2-> ... -An-> Tn] and an
    extension matching an application profile: [count_i] objects per
    type, [defined_i] of which have an instantiated next attribute, each
    referencing [fan_i] distinct targets (through a private set instance
    when the attribute is set-valued — the analytical model's "no set
    sharing" assumption).

    Used by the model-validation experiments (simulated page accesses
    vs. the analytical predictions) and by randomised property tests. *)

type level = {
  count : int;  (** [c_i >= 1]. *)
  defined : int;  (** [d_i <= c_i]; ignored for the last level. *)
  fan : int;  (** [fan_i >= 1]; ignored for the last level. *)
  set_valued : bool;  (** Whether [A(i+1)] is set-valued. *)
  size : int;  (** Object size in bytes ([size_i]). *)
}

type spec = { levels : level list; seed : int }

val spec :
  ?seed:int -> ?sizes:int list -> ?set_valued:bool list ->
  counts:int list -> defined:int list -> fan:int list -> unit -> spec
(** [spec ~counts ~defined ~fan ()] with [counts] of length [n+1] and
    [defined]/[fan] of length [n].  Defaults: size 100, seed 42,
    [set_valued] true wherever [fan_i > 1].
    @raise Invalid_argument on inconsistent lengths or bounds. *)

val of_profile :
  ?seed:int -> ?scale:float -> ?set_valued:bool list -> Costmodel.Profile.t -> spec
(** Scale an analytical profile down to an executable base ([scale]
    multiplies all [c_i] and [d_i]; default 1.0). *)

val n : spec -> int

val size_of : spec -> Gom.Schema.type_name -> int
(** Object sizes for {!Storage.Heap.create}: [size_i] for [Ti], a small
    [fan]-proportional footprint for set instances. *)

val build : spec -> Gom.Store.t * Gom.Path.t
(** Instantiate the base and return it with the full path
    [T0.A1.....An].  Deterministic in [spec.seed]. *)
