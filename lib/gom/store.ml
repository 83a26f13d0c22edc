type event =
  | Created of Oid.t
  | Attr_set of {
      obj : Oid.t;
      attr : Schema.attr_name;
      old_value : Value.t;
      new_value : Value.t;
    }
  | Set_inserted of { set : Oid.t; elem : Value.t }
  | Set_removed of { set : Oid.t; elem : Value.t }
  | Deleted of { obj : Oid.t; ty : Schema.type_name }

exception Type_error of string

let error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* An exact extent: its objects in reverse creation order, and how many. *)
type extent = { mutable rev : Oid.t list; mutable len : int }

type t = {
  schema : Schema.t;
  gen : Oid.gen;
  objects : (Oid.t, Instance.t) Hashtbl.t;
  extents : (Schema.type_name, extent) Hashtbl.t;
  names : (string, Oid.t) Hashtbl.t;
  attr_in : (Oid.t, (Oid.t * Schema.attr_name) list) Hashtbl.t;
      (* reverse references: target -> (holder, attribute) for every
         attribute whose value is [Ref target] *)
  elem_in : (Oid.t, Oid.t list) Hashtbl.t;
      (* element -> the collections holding [Ref element]; a list holding
         it several times appears once, since removal drops them all *)
  mutable listeners : (int * (event -> unit)) list; (* reverse subscription order *)
  mutable next_subscription : int;
  mutable epoch : int; (* bumped once per emitted mutation event *)
}

let create schema =
  (match Schema.well_formed schema with
  | Ok () -> ()
  | Error msg -> error "ill-formed schema: %s" msg);
  {
    schema;
    gen = Oid.make_gen ();
    objects = Hashtbl.create 1024;
    extents = Hashtbl.create 64;
    names = Hashtbl.create 16;
    attr_in = Hashtbl.create 1024;
    elem_in = Hashtbl.create 1024;
    listeners = [];
    next_subscription = 0;
    epoch = 0;
  }

let schema t = t.schema

let epoch t = t.epoch

let emit t ev =
  t.epoch <- t.epoch + 1;
  List.iter (fun (_, f) -> f ev) (List.rev t.listeners)

type subscription = int

let subscribe t f =
  let id = t.next_subscription in
  t.next_subscription <- id + 1;
  t.listeners <- (id, f) :: t.listeners;
  id

let unsubscribe t id = t.listeners <- List.filter (fun (i, _) -> i <> id) t.listeners

let get t oid = Hashtbl.find_opt t.objects oid

let get_exn t oid =
  match get t oid with
  | Some inst -> inst
  | None -> error "unknown object %s" (Format.asprintf "%a" Oid.pp oid)

let mem t oid = Hashtbl.mem t.objects oid

let type_of t oid = Instance.ty (get_exn t oid)

let extent_of t ty =
  match Hashtbl.find_opt t.extents ty with
  | Some e -> e
  | None ->
    let e = { rev = []; len = 0 } in
    Hashtbl.add t.extents ty e;
    e

let add_to_extent t ty oid =
  let e = extent_of t ty in
  e.rev <- oid :: e.rev;
  e.len <- e.len + 1

(* Reverse-reference bookkeeping.  Maintained by the mutators below, so
   it always describes the current state; never persisted (loading a
   snapshot replays the mutators, which rebuild it). *)
let index_add tbl key x =
  let l = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key (x :: l)

let index_remove tbl key eq =
  match Hashtbl.find_opt tbl key with
  | None -> ()
  | Some l -> (
    match List.filter (fun x -> not (eq x)) l with
    | [] -> Hashtbl.remove tbl key
    | l -> Hashtbl.replace tbl key l)

let new_object t ty =
  (match Schema.find t.schema ty with
  | None -> error "cannot instantiate unknown type %s" ty
  | Some (Schema.Atomic _) -> error "cannot instantiate elementary type %s" ty
  | Some (Schema.Tuple _ | Schema.Set _ | Schema.List _) -> ());
  let oid = Oid.fresh t.gen in
  let body =
    match Schema.find_exn t.schema ty with
    | Schema.Tuple _ ->
      let tbl = Hashtbl.create 8 in
      List.iter (fun (a, _) -> Hashtbl.replace tbl a Value.Null) (Schema.attrs t.schema ty);
      Instance.Tuple_body tbl
    | Schema.Set _ -> Instance.Set_body (Hashtbl.create 8)
    | Schema.List _ -> Instance.List_body (ref [])
    | Schema.Atomic _ -> assert false
  in
  Hashtbl.replace t.objects oid (Instance.make oid ty body);
  add_to_extent t ty oid;
  emit t (Created oid);
  oid

(* A value conforms to declared type [decl] iff it is Null, an atomic
   value of that elementary type, or a reference to an instance whose
   type is a subtype of [decl] (strong typing with substitutability). *)
let conforms t ~decl (v : Value.t) =
  match v with
  | Value.Null -> true
  | Value.Ref o -> (
    match get t o with
    | None -> false
    | Some inst -> Schema.is_subtype t.schema ~sub:(Instance.ty inst) ~sup:decl)
  | Value.Int _ -> Schema.atomic_of t.schema decl = Some Schema.A_int
  | Value.Str _ -> Schema.atomic_of t.schema decl = Some Schema.A_string
  | Value.Dec _ -> Schema.atomic_of t.schema decl = Some Schema.A_dec
  | Value.Bool _ -> Schema.atomic_of t.schema decl = Some Schema.A_bool
  | Value.Char _ -> Schema.atomic_of t.schema decl = Some Schema.A_char

let check_conforms t ~what ~decl v =
  if not (conforms t ~decl v) then
    error "%s: value %s does not conform to type %s" what (Value.to_string v) decl

let get_attr t oid attr =
  let inst = get_exn t oid in
  match Instance.attr inst attr with
  | Some v -> v
  | None -> error "object %s of type %s has no attribute %s"
              (Format.asprintf "%a" Oid.pp oid) (Instance.ty inst) attr

let tuple_table inst =
  match (inst : Instance.t).body with
  | Instance.Tuple_body tbl -> tbl
  | Instance.Set_body _ | Instance.List_body _ ->
    error "object %s is not tuple-structured" (Format.asprintf "%a" Oid.pp (Instance.oid inst))

let set_attr t oid attr v =
  let inst = get_exn t oid in
  let decl =
    match Schema.attr_type t.schema (Instance.ty inst) attr with
    | Some ty -> ty
    | None ->
      error "type %s has no attribute %s" (Instance.ty inst) attr
  in
  check_conforms t ~what:(Printf.sprintf "set_attr %s" attr) ~decl v;
  let tbl = tuple_table inst in
  let old_value = Option.value ~default:Value.Null (Hashtbl.find_opt tbl attr) in
  if not (Value.equal old_value v) then begin
    Hashtbl.replace tbl attr v;
    (match old_value with
    | Value.Ref o ->
      index_remove t.attr_in o (fun (h, a) -> Oid.equal h oid && String.equal a attr)
    | _ -> ());
    (match v with Value.Ref o -> index_add t.attr_in o (oid, attr) | _ -> ());
    emit t (Attr_set { obj = oid; attr; old_value; new_value = v })
  end

let elem_decl t oid =
  match Schema.element_type t.schema (type_of t oid) with
  | Some e -> e
  | None -> error "object %s is not a collection instance" (Format.asprintf "%a" Oid.pp oid)

let insert_elem t oid v =
  let decl = elem_decl t oid in
  check_conforms t ~what:"insert_elem" ~decl v;
  if Value.is_null v then error "cannot insert NULL into a set";
  let inst = get_exn t oid in
  let note_element () =
    match v with
    | Value.Ref e ->
      let holders = Option.value ~default:[] (Hashtbl.find_opt t.elem_in e) in
      if not (List.exists (Oid.equal oid) holders) then
        Hashtbl.replace t.elem_in e (oid :: holders)
    | _ -> ()
  in
  match inst.body with
  | Instance.Set_body tbl ->
    if not (Hashtbl.mem tbl v) then begin
      Hashtbl.replace tbl v ();
      note_element ();
      emit t (Set_inserted { set = oid; elem = v })
    end
  | Instance.List_body l ->
    l := !l @ [ v ];
    note_element ();
    emit t (Set_inserted { set = oid; elem = v })
  | Instance.Tuple_body _ -> error "insert_elem: not a collection"

let remove_elem t oid v =
  let inst = get_exn t oid in
  let forget_element () =
    match v with Value.Ref e -> index_remove t.elem_in e (Oid.equal oid) | _ -> ()
  in
  match inst.body with
  | Instance.Set_body tbl ->
    if Hashtbl.mem tbl v then begin
      Hashtbl.remove tbl v;
      forget_element ();
      emit t (Set_removed { set = oid; elem = v })
    end
  | Instance.List_body l ->
    if List.exists (Value.equal v) !l then begin
      l := List.filter (fun x -> not (Value.equal x v)) !l;
      forget_element ();
      emit t (Set_removed { set = oid; elem = v })
    end
  | Instance.Tuple_body _ -> error "remove_elem: not a collection"

let elements t oid = Instance.elements (get_exn t oid)

let extent ?(deep = false) t ty =
  let exact ty =
    match Hashtbl.find_opt t.extents ty with Some e -> List.rev e.rev | None -> []
  in
  if not deep then exact ty
  else
    Schema.subtypes_closure t.schema ty
    |> List.concat_map exact
    |> List.sort Oid.compare

let count ?(deep = false) t ty =
  let exact ty = match Hashtbl.find_opt t.extents ty with Some e -> e.len | None -> 0 in
  if not deep then exact ty
  else List.fold_left (fun n ty -> n + exact ty) 0 (Schema.subtypes_closure t.schema ty)

(* Raw extent list in reverse creation order, as stored.  The returned
   list is the current value of the extent ref: list cells are immutable
   and never mutated in place (creation conses a new head, deletion
   rebuilds the spine), so a caller holding this list keeps a consistent
   point-in-time extent even while the store keeps mutating — the basis
   of structural sharing in frozen snapshots. *)
let extent_rev t ty =
  match Hashtbl.find_opt t.extents ty with Some e -> e.rev | None -> []

let extent_types t =
  Hashtbl.fold (fun ty e acc -> if e.len = 0 then acc else ty :: acc) t.extents []
  |> List.sort String.compare

let fold_objects t ~init ~f =
  let all = Hashtbl.fold (fun _ inst acc -> inst :: acc) t.objects [] in
  let all = List.sort (fun a b -> Oid.compare (Instance.oid a) (Instance.oid b)) all in
  List.fold_left f init all

let bind_name t name oid =
  ignore (get_exn t oid);
  Hashtbl.replace t.names name oid

let find_name t name = Hashtbl.find_opt t.names name

let names t =
  Hashtbl.fold (fun n o acc -> (n, o) :: acc) t.names []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Recreate a deleted object under its original identifier: the bare
   instantiation step of {!new_object}, minus the fresh-oid draw. *)
let restore_object t oid ty =
  if mem t oid then
    error "restore_object: %s is live" (Format.asprintf "%a" Oid.pp oid);
  let body =
    match Schema.find t.schema ty with
    | None -> error "restore_object: unknown type %s" ty
    | Some (Schema.Atomic _) -> error "restore_object: elementary type %s" ty
    | Some (Schema.Tuple _) ->
      let tbl = Hashtbl.create 8 in
      List.iter (fun (a, _) -> Hashtbl.replace tbl a Value.Null) (Schema.attrs t.schema ty);
      Instance.Tuple_body tbl
    | Some (Schema.Set _) -> Instance.Set_body (Hashtbl.create 8)
    | Some (Schema.List _) -> Instance.List_body (ref [])
  in
  Hashtbl.replace t.objects oid (Instance.make oid ty body);
  Oid.ensure_above t.gen oid;
  add_to_extent t ty oid;
  emit t (Created oid)

let holders t ty attr target =
  Option.value ~default:[] (Hashtbl.find_opt t.attr_in target)
  |> List.filter_map (fun (h, a) ->
         if String.equal a attr && Schema.is_subtype t.schema ~sub:(type_of t h) ~sup:ty
         then Some h
         else None)
  |> List.sort Oid.compare

let containers t elem = Option.value ~default:[] (Hashtbl.find_opt t.elem_in elem)

let referencers t ty attr v =
  let decl_is_set =
    match Schema.attr_type t.schema ty attr with
    | Some rty -> Schema.is_set t.schema rty || Schema.element_type t.schema rty <> None
    | None -> error "type %s has no attribute %s" ty attr
  in
  match v with
  | Value.Ref target when decl_is_set ->
    containers t target
    |> List.concat_map (fun s -> List.map (fun h -> (h, Some s)) (holders t ty attr s))
    |> List.sort (fun (a, _) (b, _) -> Oid.compare a b)
  | Value.Ref target -> List.map (fun h -> (h, None)) (holders t ty attr target)
  | _ -> []

let delete t oid =
  let inst = get_exn t oid in
  let target = Value.Ref oid in
  (* Nullify every inbound reference first, each through the regular
     mutators so that listeners observe consistent intermediate states:
     holders in descending identifier order, a tuple holder's attributes
     in reverse order of its table. *)
  let inbound =
    let attr_holders = Option.value ~default:[] (Hashtbl.find_opt t.attr_in oid) in
    List.map fst attr_holders @ containers t oid
    |> List.sort_uniq (fun a b -> Oid.compare b a)
    |> List.filter (fun h -> not (Oid.equal h oid))
  in
  let holders =
    List.concat_map
      (fun h ->
        match (get_exn t h).Instance.body with
        | Instance.Tuple_body tbl ->
          Hashtbl.fold
            (fun a v acc -> if Value.equal v target then `Attr (h, a) :: acc else acc)
            tbl []
        | Instance.Set_body _ | Instance.List_body _ -> [ `Elem h ])
      inbound
  in
  List.iter
    (function
      | `Attr (o, a) -> set_attr t o a Value.Null
      | `Elem s -> remove_elem t s target)
    holders;
  (* Clear the object's own outgoing state so listeners can retract
     paths that start at it. *)
  (match inst.Instance.body with
  | Instance.Tuple_body tbl ->
    let attrs = Hashtbl.fold (fun a v acc -> (a, v) :: acc) tbl [] in
    List.iter
      (fun (a, v) -> if not (Value.is_null v) then set_attr t oid a Value.Null)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) attrs)
  | Instance.Set_body _ | Instance.List_body _ ->
    List.iter (fun v -> remove_elem t oid v) (elements t oid));
  Hashtbl.remove t.objects oid;
  let e = extent_of t (Instance.ty inst) in
  e.rev <- List.filter (fun o -> not (Oid.equal o oid)) e.rev;
  e.len <- e.len - 1;
  Hashtbl.iter
    (fun n o -> if Oid.equal o oid then Hashtbl.remove t.names n)
    (Hashtbl.copy t.names);
  emit t (Deleted { obj = oid; ty = Instance.ty inst })
