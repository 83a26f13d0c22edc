(** Abstract syntax of the GOM query language — the SQL-like notation
    the paper uses for its example queries (sections 2.2-2.3):

    {v
    select r.Name
    from r in OurRobots
    where r.Arm.MountedTool.ManufacturedBy.Location = "Utopia"
    v}

    Range variables bind over named root collections, type extents, or
    path expressions rooted at earlier variables ([b in
    d.Manufactures.Composition]). *)

type lit = Str of string | Int of int | Dec of float | Bool of bool

type path_ref = {
  var : string;
  attrs : string list;  (** Possibly empty: the variable itself. *)
}

type expr = Path of path_ref | Lit of lit

type cmp = Eq | Neq | Lt | Le | Gt | Ge

type pred =
  | True
  | Cmp of cmp * expr * expr
  | In_pred of expr * path_ref  (** [e in v.A1...Ak]. *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type source =
  | Named of string  (** A persistent root name or a type extent name. *)
  | Via of path_ref  (** Elements reached from an earlier variable. *)

type order = Asc | Desc

type query = {
  select : expr list;
  from : (string * source) list;  (** In binding order. *)
  where : pred;
  order_by : (expr * order) option;
      (** The expression must match a select column (or be an integer
          literal 1-based column reference). *)
  limit : int option;
}

val pp_expr : Format.formatter -> expr -> unit
val pp_pred : Format.formatter -> pred -> unit
val pp : Format.formatter -> query -> unit
