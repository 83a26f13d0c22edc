(* Writes in O(change): the store's reverse-reference index and the
   engine's live profile counts.

   Two oracle properties run over random op streams (creations,
   assignments, set and list insertions and removals, deletes, and
   transactions that commit or abort) on a schema with subtypes, shared
   sets, lists and an attribute name declared by two unrelated types:

   - the reverse index answers [holders], [containers] and
     [referencers] exactly like a scan of the whole base, recomputed
     here;
   - after every event the engine's live profile equals
     [measure_profile] float for float, and after every op the planner
     chooses the same plan at the same price as an engine fed measured
     profiles.

   Allocation-scaling tests pin that one write and the profile read
   after it do not allocate in proportion to the base, and a pinned
   reader test pins that a server reader behind the live store is
   priced from its own snapshot. *)

module S = Gom.Schema
module V = Gom.Value
module St = Gom.Store
module E = Core.Exec
module M = Core.Maintenance
module D = Core.Decomposition
module P = Costmodel.Profile

let check = Alcotest.(check bool)

(* ---------------- schema and random op streams ---------------- *)

let schema =
  let s = S.empty in
  let s = S.define_tuple s "Company" [ ("Name", "STRING"); ("Location", "STRING") ] in
  let s = S.define_forward s "Part" in
  let s = S.define_set s "PartSet" "Part" in
  let s = S.define_list s "PartList" "Part" in
  let s =
    S.define_tuple s "Part"
      [
        ("Name", "STRING");
        ("Maker", "Company");
        ("Sub", "PartSet");
        ("Alt", "Part");
        ("Seq", "PartList");
      ]
  in
  let s = S.define_tuple s "Base" ~supertypes:[ "Part" ] [ ("Cost", "INT") ] in
  let s = S.define_tuple s "Composite" ~supertypes:[ "Part" ] [ ("Extra", "PartSet") ] in
  S.define_tuple s "Robot" [ ("Arm", "Part"); ("Parts", "PartSet"); ("Maker", "Company") ]

let tuple_types = [ "Company"; "Part"; "Base"; "Composite"; "Robot" ]
let collection_types = [ "PartSet"; "PartList" ]

let path_strings =
  [
    "Robot.Parts.Maker.Location";
    "Part.Sub.Alt.Name";
    "Base.Maker.Name";
    "Part.Seq.Maker";
    "Robot.Arm.Sub";
    "Composite.Extra.Alt";
  ]

let paths = List.map (Gom.Path.parse schema) path_strings
let indexed_path = List.hd paths

let pick rng l = List.nth l (Random.State.int rng (List.length l))

let random_value rng st decl =
  if Random.State.int rng 6 = 0 then V.Null
  else
    match S.atomic_of schema decl with
    | Some S.A_string -> V.Str (pick rng [ "a"; "b"; "c" ])
    | Some S.A_int -> V.Int (Random.State.int rng 3)
    | Some _ -> V.Null
    | None -> (
      match St.extent ~deep:true st decl with [] -> V.Null | l -> V.Ref (pick rng l))

let collections st = List.concat_map (St.extent st) collection_types

let rec random_op ?(in_txn = false) rng st =
  match Random.State.int rng 12 with
  | 0 | 1 -> ignore (St.new_object st (pick rng (tuple_types @ collection_types)))
  | 2 | 3 | 4 -> (
    match List.concat_map (St.extent st) tuple_types with
    | [] -> ()
    | objs ->
      let o = pick rng objs in
      let attr, decl = pick rng (S.attrs schema (St.type_of st o)) in
      St.set_attr st o attr (random_value rng st decl))
  | 5 | 6 -> (
    match collections st with
    | [] -> ()
    | cs -> (
      let c = pick rng cs in
      match St.extent ~deep:true st "Part" with
      | [] -> ()
      | parts -> St.insert_elem st c (V.Ref (pick rng parts))))
  | 7 | 8 -> (
    match List.filter (fun c -> St.elements st c <> []) (collections st) with
    | [] -> ()
    | cs ->
      let c = pick rng cs in
      St.remove_elem st c (pick rng (St.elements st c)))
  | 9 -> (
    match List.concat_map (St.extent st) (tuple_types @ collection_types) with
    | [] -> ()
    | objs -> St.delete st (pick rng objs))
  | _ ->
    if not in_txn then begin
      let tx = Gom.Txn.start st in
      for _ = 0 to Random.State.int rng 4 do
        random_op ~in_txn:true rng st
      done;
      if Random.State.bool rng then Gom.Txn.rollback tx else Gom.Txn.commit tx
    end

(* A small connected base to start from, with one set shared by a robot
   and a part. *)
let seed_base rng =
  let st = St.create schema in
  let make ty k = List.init k (fun _ -> St.new_object st ty) in
  let companies = make "Company" 3 in
  let parts = make "Part" 3 @ make "Base" 3 @ make "Composite" 2 in
  let robots = make "Robot" 2 in
  let sets = make "PartSet" 3 in
  let lists = make "PartList" 1 in
  List.iter
    (fun c -> St.set_attr st c "Location" (V.Str (pick rng [ "a"; "b" ])))
    companies;
  List.iter
    (fun p ->
      St.set_attr st p "Maker" (V.Ref (pick rng companies));
      St.set_attr st p "Name" (V.Str (pick rng [ "a"; "b"; "c" ])))
    parts;
  List.iter (fun s -> St.insert_elem st s (V.Ref (pick rng parts))) (sets @ sets @ lists);
  List.iteri
    (fun i r ->
      St.set_attr st r "Parts" (V.Ref (List.hd sets));
      St.set_attr st r "Arm" (V.Ref (List.nth parts i)))
    robots;
  St.set_attr st (List.hd parts) "Sub" (V.Ref (List.hd sets));
  St.set_attr st (List.nth parts 1) "Seq" (V.Ref (List.hd lists));
  st

(* ---------------- oracle 1: reverse index = scan ---------------- *)

let oids = List.sort Gom.Oid.compare
let same_oids a b = List.equal Gom.Oid.equal a b

let scan_holders st ty attr o =
  St.extent ~deep:true st ty
  |> List.filter (fun h -> V.equal (St.get_attr st h attr) (V.Ref o))

let scan_containers st o =
  St.fold_objects st ~init:[] ~f:(fun acc inst ->
      if
        S.element_type schema (Gom.Instance.ty inst) <> None
        && List.exists (V.equal (V.Ref o)) (Gom.Instance.elements inst)
      then Gom.Instance.oid inst :: acc
      else acc)
  |> oids

let scan_referencers st ty attr v =
  let via_set =
    match S.attr_type schema ty attr with
    | Some rty -> S.element_type schema rty <> None
    | None -> false
  in
  St.extent ~deep:true st ty
  |> List.filter_map (fun o ->
         match St.get_attr st o attr with
         | V.Null -> None
         | V.Ref s when via_set ->
           if List.exists (V.equal v) (St.elements st s) then Some (o, Some s) else None
         | direct -> if V.equal direct v then Some (o, None) else None)

let index_agrees st =
  St.fold_objects st ~init:true ~f:(fun ok inst ->
      let o = Gom.Instance.oid inst in
      ok
      && same_oids (oids (St.containers st o)) (scan_containers st o)
      && List.for_all
           (fun ty ->
             List.for_all
               (fun (attr, _) ->
                 same_oids (St.holders st ty attr o) (scan_holders st ty attr o)
                 && St.referencers st ty attr (V.Ref o)
                    = scan_referencers st ty attr (V.Ref o))
               (S.attrs schema ty))
           tuple_types)

let ops_gen = QCheck.(pair (int_bound 100_000) (int_range 5 40))

let prop_reverse_index_equals_scan =
  QCheck.Test.make ~name:"reverse-reference index = recomputed scan (random op streams)"
    ~count:(Test_maintenance_batch.iters_env "ASR_MAINT_COUNT" 25)
    ops_gen
    (fun (seed, len) ->
      let rng = Random.State.make [| seed |] in
      let st = seed_base rng in
      let ok = ref (index_agrees st) in
      let (_ : St.subscription) =
        St.subscribe st (fun _ -> if !ok && not (index_agrees st) then ok := false)
      in
      for _ = 1 to len do
        if !ok then random_op rng st
      done;
      !ok)

(* ---------------- oracle 2: live profile = measured ---------------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_profile p q =
  let n = P.n p in
  n = P.n q
  && List.for_all
       (fun i ->
         same_float (P.c p i) (P.c q i)
         && same_float (P.size p i) (P.size q i)
         && (i = n
            || same_float (P.d p i) (P.d q i)
               && same_float (P.fan p i) (P.fan q i)
               && same_float (P.shar p i) (P.shar q i)))
       (List.init (n + 1) Fun.id)

(* The live engine's choice and price against an engine whose every
   profile is pinned to a fresh measurement. *)
let same_choices st live reference =
  List.iter (fun p -> Engine.set_profile reference p (Engine.measure_profile st p)) paths;
  List.for_all
    (fun p ->
      let n = Gom.Path.length p in
      List.for_all
        (fun dir ->
          let a = Engine.choose live p ~i:0 ~j:n ~dir in
          let b = Engine.choose reference p ~i:0 ~j:n ~dir in
          Engine.Plan.to_string a.Engine.chosen = Engine.Plan.to_string b.Engine.chosen
          && same_float a.Engine.est_cost b.Engine.est_cost)
        [ Engine.Plan.Fwd; Engine.Plan.Bwd ])
    paths

let prop_live_profile_equals_measured =
  QCheck.Test.make
    ~name:"live profile = measure_profile after every event; same plan choices"
    ~count:(Test_maintenance_batch.iters_env "ASR_MAINT_COUNT" 25)
    ops_gen
    (fun (seed, len) ->
      let rng = Random.State.make [| seed |] in
      let st = seed_base rng in
      let env = E.make st (Storage.Heap.create ~size_of:(fun _ -> 100) st) in
      let mgr = M.create env in
      let index =
        Core.Asr.create st indexed_path Core.Extension.Full
          (D.binary ~m:(Gom.Path.arity indexed_path - 1))
      in
      M.register mgr index;
      let live = Engine.create env and reference = Engine.create env in
      Engine.register live index;
      Engine.register reference index;
      List.iter (fun p -> ignore (Engine.profile live p)) paths;
      let profiles_agree () =
        List.for_all
          (fun p -> same_profile (Engine.profile live p) (Engine.measure_profile st p))
          paths
      in
      let ok = ref (profiles_agree ()) in
      let (_ : St.subscription) =
        St.subscribe st (fun _ -> if !ok && not (profiles_agree ()) then ok := false)
      in
      for _ = 1 to len do
        if !ok then begin
          random_op rng st;
          if not (same_choices st live reference) then ok := false
        end
      done;
      !ok)

(* ---------------- allocation scaling ---------------- *)

(* The asrbench chain at [scale] x 3k objects, a full binary ASR on
   T0.A1.A2.A3 under an immediate manager, and an engine with the path's
   profile seeded.  Returns the median minor words of one [insert_elem]
   at position A2 and of the [Engine.profile] read after it. *)
let write_costs scale =
  let counts = List.map (( * ) scale) [ 200; 400; 800; 1600 ] in
  let defined = List.map (fun c -> c * 9 / 10) (List.filteri (fun i _ -> i < 3) counts) in
  let spec = Workload.Generator.spec ~seed:7 ~counts ~defined ~fan:[ 2; 2; 2 ] () in
  let st, path = Workload.Generator.build spec in
  let env = E.make st (Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) st) in
  let mgr = M.create env in
  let index =
    Core.Asr.create st path Core.Extension.Full (D.binary ~m:(Gom.Path.arity path - 1))
  in
  M.register mgr index;
  let engine = Engine.create env in
  Engine.register engine index;
  ignore (Engine.profile engine path);
  let step = Gom.Path.step path 2 in
  let sets =
    Array.of_list
      (List.filter_map
         (fun o -> V.oid (St.get_attr st o step.Gom.Path.attr))
         (St.extent st step.Gom.Path.domain))
  in
  let targets = Array.of_list (St.extent st step.Gom.Path.range) in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let samples =
    List.init 9 (fun k ->
        let s = sets.(k * 37 mod Array.length sets) in
        let rec fresh j =
          let e = V.Ref targets.(j mod Array.length targets) in
          if List.exists (V.equal e) (St.elements st s) then fresh (j + 1) else e
        in
        let e = fresh (k * 131) in
        let w_insert = words (fun () -> St.insert_elem st s e) in
        let w_profile = words (fun () -> ignore (Engine.profile engine path)) in
        (w_insert, w_profile))
  in
  let median l = List.nth (List.sort compare l) (List.length l / 2) in
  (median (List.map fst samples), median (List.map snd samples))

let small = lazy (write_costs 1)
let large = lazy (write_costs 4)

let check_linear what select () =
  let s = select (Lazy.force small) and l = select (Lazy.force large) in
  check
    (Printf.sprintf "%s: words per call do not grow with the base (%.0f at 3k, %.0f at 12k)"
       what s l)
    true (l < 1.5 *. s)

(* ---------------- pinned reader ---------------- *)

let test_pinned_reader () =
  let spec =
    Workload.Generator.spec ~seed:3 ~counts:[ 20; 40; 80; 160 ] ~defined:[ 18; 36; 72 ]
      ~fan:[ 2; 2; 2 ] ()
  in
  let st, path = Workload.Generator.build spec in
  let specs =
    [
      {
        Parallel.Snapshot.sp_path = path;
        sp_kind = Core.Extension.Full;
        sp_decomposition = D.binary ~m:(Gom.Path.arity path - 1);
      };
    ]
  in
  let server = Parallel.Server.create ~specs st in
  Fun.protect
    ~finally:(fun () -> Parallel.Server.shutdown server)
    (fun () ->
      let pinned = Parallel.Server.pin server in
      let engine = Parallel.Snapshot.engine pinned in
      let before = Engine.profile engine path in
      let step = Gom.Path.step path 1 in
      let holder =
        List.find
          (fun o -> not (V.is_null (St.get_attr st o step.Gom.Path.attr)))
          (St.extent st step.Gom.Path.domain)
      in
      let set = V.oid_exn (St.get_attr st holder step.Gom.Path.attr) in
      let fresh =
        List.find
          (fun o -> not (List.exists (V.equal (V.Ref o)) (St.elements st set)))
          (St.extent st step.Gom.Path.range)
      in
      Parallel.Server.update server (fun st -> St.insert_elem st set (V.Ref fresh));
      let reader = Engine.profile ~env:(Parallel.Snapshot.env pinned) engine path in
      check "pinned reader = walk of its own snapshot" true
        (same_profile reader
           (Engine.measure_profile_view (Parallel.Snapshot.store pinned) path));
      check "pinned reader keeps the pre-write counts" true (same_profile reader before);
      let live = Engine.profile engine path in
      check "live engine = post-write counts" true
        (same_profile live (Engine.measure_profile st path));
      check "the write moved the counts" false (same_profile live before);
      let current = Parallel.Server.pin server in
      check "a reader at the new epoch gets the live counts" true
        (same_profile live
           (Engine.profile ~env:(Parallel.Snapshot.env current) engine path)))

let suite =
  [
    Qc.to_alcotest prop_reverse_index_equals_scan;
    Qc.to_alcotest prop_live_profile_equals_measured;
    Alcotest.test_case "one insert_elem under immediate maintenance allocates O(change)"
      `Quick (check_linear "insert_elem" fst);
    Alcotest.test_case "Engine.profile after a write allocates O(path)" `Quick
      (check_linear "Engine.profile" snd);
    Alcotest.test_case "pinned reader priced from its own snapshot" `Quick
      test_pinned_reader;
  ]
