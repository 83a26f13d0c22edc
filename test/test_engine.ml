(* Tests for the cost-based engine: plan/oracle equivalence over random
   schemas, extensions and decompositions, batched execution, the plan
   cache and its invalidation, and explain. *)

module E = Core.Exec
module D = Core.Decomposition
module V = Gom.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let env_of store =
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  E.make store heap

let all_ranges n =
  List.concat_map
    (fun i ->
      List.filter_map (fun j -> if i < j then Some (i, j) else None)
        (List.init (n + 1) Fun.id))
    (List.init n Fun.id)

let vset vs = List.sort_uniq V.compare vs
let oset os = List.sort_uniq Gom.Oid.compare os

(* A profile so expensive for navigation that every supported stitch
   wins: forces the engine down the ASR whenever equation 35 allows. *)
let pin_expensive_nav engine path =
  let n = Gom.Path.length path in
  Engine.set_profile engine path
    (Costmodel.Profile.make
       ~c:(List.init (n + 1) (fun _ -> 10_000.))
       ~d:(List.init n (fun _ -> 10_000.))
       ~fan:(List.init n (fun _ -> 1.))
       ())

let spec_gen =
  QCheck.Gen.(
    let* nn = int_range 1 3 in
    let* counts = list_repeat (nn + 1) (int_range 1 6) in
    let* defined =
      flatten_l
        (List.map (fun c -> int_range 0 c) (List.filteri (fun i _ -> i < nn) counts))
    in
    let* fan = list_repeat nn (int_range 1 3) in
    let* sv = flatten_l (List.map (fun f -> if f > 1 then return true else bool) fan) in
    let* seed = int_range 0 10000 in
    return (Workload.Generator.spec ~seed ~set_valued:sv ~counts ~defined ~fan ()))

(* Whatever plan the engine picks — nav, extent scan, or a stitch forced
   through any of the four extensions under any decomposition — the
   answers must equal the forced navigational oracle. *)
let prop_engine_agrees_oracle =
  QCheck.Test.make ~name:"engine plans = forced scan oracle on random bases"
    ~count:60
    QCheck.(
      pair (make ~print:(fun _ -> "<spec>") spec_gen) (pair (int_bound 3) small_int))
    (fun (spec, (kind_idx, pick)) ->
      let store, path = Workload.Generator.build spec in
      let env = env_of store in
      let kind = List.nth Core.Extension.all kind_idx in
      let m = Gom.Path.arity path - 1 in
      let decs = D.all ~m in
      let dec = List.nth decs (pick mod List.length decs) in
      let a = Core.Asr.create store path kind dec in
      let engine = Engine.create env in
      Engine.register engine a;
      pin_expensive_nav engine path;
      let n = Gom.Path.length path in
      List.for_all
        (fun (i, j) ->
          let sources =
            Gom.Store.extent ~deep:true store (Gom.Path.type_at path i)
          in
          let targets =
            Gom.Store.extent ~deep:true store (Gom.Path.type_at path j)
            |> List.map (fun o -> V.Ref o)
          in
          List.for_all
            (fun src ->
              vset (Engine.forward engine path ~i ~j src)
              = vset (E.forward_scan env path ~i ~j src))
            sources
          && List.for_all
               (fun target ->
                 oset (Engine.backward engine path ~i ~j ~target)
                 = oset (E.backward_scan env path ~i ~j ~target))
               targets)
        (all_ranges n))

(* Batched execution gives each probe exactly the per-probe answer. *)
let prop_batch_agrees_oracle =
  QCheck.Test.make ~name:"batched execution = per-probe oracle" ~count:60
    QCheck.(
      pair (make ~print:(fun _ -> "<spec>") spec_gen) (pair (int_bound 3) small_int))
    (fun (spec, (kind_idx, pick)) ->
      let store, path = Workload.Generator.build spec in
      let env = env_of store in
      let kind = List.nth Core.Extension.all kind_idx in
      let m = Gom.Path.arity path - 1 in
      let decs = D.all ~m in
      let dec = List.nth decs (pick mod List.length decs) in
      let a = Core.Asr.create store path kind dec in
      let engine = Engine.create env in
      Engine.register engine a;
      pin_expensive_nav engine path;
      let n = Gom.Path.length path in
      List.for_all
        (fun (i, j) ->
          let sources =
            Gom.Store.extent ~deep:true store (Gom.Path.type_at path i)
          in
          let targets =
            Gom.Store.extent ~deep:true store (Gom.Path.type_at path j)
            |> List.map (fun o -> V.Ref o)
          in
          List.for_all
            (fun (src, vals) -> vset vals = vset (E.forward_scan env path ~i ~j src))
            (Engine.forward_batch engine path ~i ~j sources)
          && List.for_all
               (fun (target, os) ->
                 oset os = oset (E.backward_scan env path ~i ~j ~target))
               (Engine.backward_batch engine path ~i ~j ~targets))
        (all_ranges n))

(* ---------------- plan cache ---------------- *)

let gen_base () =
  let spec =
    Workload.Generator.spec ~seed:5
      ~counts:[ 300; 600; 1200; 2400 ]
      ~defined:[ 280; 550; 1100 ] ~fan:[ 2; 2; 2 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let heap = Storage.Heap.create ~size_of:(Workload.Generator.size_of spec) store in
  (store, path, E.make store heap)

let test_plan_cache_hits () =
  let store, path, env = gen_base () in
  let engine = Engine.create env in
  Engine.register engine
    (Core.Asr.create store path Core.Extension.Full
       (D.binary ~m:(Gom.Path.arity path - 1)));
  let n = Gom.Path.length path in
  let c1 = Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd in
  let c2 = Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd in
  check "same choice served" true (c1 == c2);
  let ci = Engine.cache_info engine in
  check_int "one miss" 1 ci.Engine.misses;
  check_int "one hit" 1 ci.Engine.hits;
  check_int "no invalidation yet" 0 ci.Engine.invalidations;
  (* A different range is its own cache entry. *)
  ignore (Engine.choose engine path ~i:0 ~j:1 ~dir:Engine.Plan.Fwd);
  check_int "second miss" 2 (Engine.cache_info engine).Engine.misses

let test_plan_cache_invalidation () =
  let store, path, env = gen_base () in
  let a =
    Core.Asr.create store path Core.Extension.Full
      (D.binary ~m:(Gom.Path.arity path - 1))
  in
  let engine = Engine.create env in
  Engine.register engine a;
  let mgr = Core.Maintenance.create env in
  Core.Maintenance.register mgr a;
  let n = Gom.Path.length path in
  let g0 = Engine.generation engine in
  ignore (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd);
  ignore (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd);
  check_int "cached before the update" 1 (Engine.cache_info engine).Engine.hits;
  (* A maintenance update: the store event reaches both the maintenance
     manager (index upkeep) and the engine (generation bump). *)
  let src = List.hd (Gom.Store.extent store "T2") in
  (match Gom.Store.get_attr store src "A3" with
  | V.Ref set ->
    let tgt = List.hd (Gom.Store.extent store "T3") in
    Gom.Store.insert_elem store set (V.Ref tgt);
    Gom.Store.remove_elem store set (V.Ref tgt)
  | _ -> Alcotest.fail "expected a set-valued A3");
  check "generation bumped" true (Engine.generation engine > g0);
  let oracle = E.backward_scan env path ~i:0 ~j:n
      ~target:(V.Ref (List.hd (Gom.Store.extent store "T3"))) in
  let via_engine = Engine.backward engine path ~i:0 ~j:n
      ~target:(V.Ref (List.hd (Gom.Store.extent store "T3"))) in
  check "maintained answers agree" true (oset oracle = oset via_engine);
  let ci = Engine.cache_info engine in
  check_int "stale entry replanned" 1 ci.Engine.invalidations;
  (* Pinning a profile also invalidates. *)
  ignore (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd);
  Engine.set_profile engine path
    (Engine.measure_profile store path);
  ignore (Engine.choose engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd);
  check_int "set_profile invalidates" 2
    (Engine.cache_info engine).Engine.invalidations

let test_register_other_store_rejected () =
  let store, path, env = gen_base () in
  ignore store;
  let other_store, other_path, _ = gen_base () in
  let a =
    Core.Asr.create other_store other_path Core.Extension.Full
      (D.binary ~m:(Gom.Path.arity other_path - 1))
  in
  let engine = Engine.create env in
  ignore path;
  check "foreign index rejected" true
    (try
       Engine.register engine a;
       false
     with Invalid_argument _ -> true)

(* ---------------- batched page savings ---------------- *)

let test_batch_saves_pages () =
  let store, path, env = gen_base () in
  let a =
    Core.Asr.create store path Core.Extension.Full
      (D.binary ~m:(Gom.Path.arity path - 1))
  in
  let engine = Engine.create env in
  Engine.register engine a;
  let n = Gom.Path.length path in
  let stats = env.E.stats in
  let targets =
    Gom.Store.extent store "T3"
    |> List.filteri (fun i _ -> i mod 75 = 0)
    |> List.map (fun o -> V.Ref o)
  in
  check "enough probes" true (List.length targets >= 16);
  let per_probe =
    List.fold_left
      (fun acc target ->
        ignore (Engine.backward engine path ~i:0 ~j:n ~target);
        acc + Storage.Stats.op_accesses stats)
      0 targets
  in
  ignore (Engine.backward_batch engine path ~i:0 ~j:n ~targets);
  let batched = Storage.Stats.op_accesses stats in
  check "batched reads fewer pages" true (batched < per_probe)

(* ---------------- interior-entry semijoin ---------------- *)

(* The stitch as it ran before the semijoin: an interior entry filters
   every scanned row against every probe's frontier (O(rows·probes)),
   a boundary entry is one multi-key lookup.  Same storage calls in the
   same order, so the same pages. *)
let filter_stitch env a dir ~i ~j probes =
  let stats = env.E.stats in
  let col p = Gom.Path.column_of_object_position (Core.Asr.path a) p in
  let goal = match dir with E.Fwd -> col j | E.Bwd -> col i in
  let visit frontiers step =
    let part, enter =
      match step with E.Lookup { part; enter } | E.Scan { part; enter } -> (part, enter)
    in
    let lo, hi = Core.Asr.partition_bounds a part in
    let out = (match dir with E.Fwd -> min hi goal | E.Bwd -> max lo goal) - lo in
    let select =
      match step with
      | E.Scan _ ->
        let rows = Core.Asr.scan_partition ~stats a part in
        fun f ->
          List.filter
            (fun (row : Relation.Tuple.t) -> List.exists (V.equal row.(enter - lo)) f)
            rows
      | E.Lookup _ ->
        let many =
          match dir with E.Fwd -> Core.Asr.lookup_fwd_many | E.Bwd -> Core.Asr.lookup_bwd_many
        in
        let fetched = many ~stats a part (List.concat (Array.to_list frontiers)) in
        fun f ->
          List.concat_map
            (fun v ->
              match List.find_opt (fun (k, _) -> V.equal k v) fetched with
              | Some (_, rows) -> rows
              | None -> [])
            f
    in
    Array.map
      (fun f ->
        if f = [] then []
        else
          vset
            (List.filter_map
               (fun (row : Relation.Tuple.t) ->
                 if V.is_null row.(out) then None else Some row.(out))
               (select f)))
      frontiers
  in
  List.fold_left
    (fun frontiers step ->
      if Array.for_all (fun f -> f = []) frontiers then frontiers else visit frontiers step)
    (Array.map (fun p -> [ p ]) probes)
    (E.steps a dir ~i ~j)

let test_interior_semijoin_batch () =
  let store, path, env = gen_base () in
  let m = Gom.Path.arity path - 1 in
  let c1 = Gom.Path.column_of_object_position path 1 in
  check "position 1 is an interior column" true (c1 > 0 && c1 + 1 < m);
  (* Non-binary: position 1's column sits strictly inside (0, c1+1). *)
  let a = Core.Asr.create store path Core.Extension.Full (D.make ~m [ 0; c1 + 1; m ]) in
  let n = Gom.Path.length path in
  let stats = env.E.stats in
  let run dir ~i ~j probes per_probe oracle =
    let steps = E.steps a dir ~i ~j in
    check "the walk enters the index at an interior column" true
      (match steps with E.Scan _ :: _ -> true | _ -> false);
    Storage.Stats.begin_op stats;
    let batched = E.stitch env a dir ~i ~j steps (Array.map (fun p -> [ p ]) probes) in
    let pages = Storage.Stats.op_accesses stats in
    Storage.Stats.begin_op stats;
    let reference = filter_stitch env a dir ~i ~j probes in
    check_int "same pages as the row-by-probe filter" (Storage.Stats.op_accesses stats) pages;
    check "same answers as the row-by-probe filter" true (batched = reference);
    Array.iteri
      (fun k p ->
        check "batch = per-probe" true (vset batched.(k) = vset (per_probe p));
        check "batch = scan oracle" true (vset batched.(k) = vset (oracle p)))
      probes
  in
  let sources = Array.of_list (Gom.Store.extent ~deep:true store (Gom.Path.type_at path 1)) in
  check "a batch of at least 512 probes" true (Array.length sources >= 512);
  run E.Fwd ~i:1 ~j:n
    (Array.map (fun o -> V.Ref o) sources)
    (fun p -> E.forward_supported env a ~i:1 ~j:n (V.oid_exn p))
    (fun p -> E.forward_scan env path ~i:1 ~j:n (V.oid_exn p));
  let refs os = List.map (fun o -> V.Ref o) os in
  run E.Bwd ~i:0 ~j:1
    (Array.map (fun o -> V.Ref o) sources)
    (fun target -> refs (E.backward_supported env a ~i:0 ~j:1 ~target))
    (fun target -> refs (E.backward_scan env path ~i:0 ~j:1 ~target))

(* ---------------- engine lifetime ---------------- *)

(* The store's listener holds an engine weakly, so an engine nobody
   references is collected rather than living as long as the store; its
   listener unsubscribes at the next event. *)
let test_unreferenced_engine_collected () =
  let store, path, env = gen_base () in
  let w = Weak.create 1 in
  let make () = Weak.set w 0 (Some (Engine.create env)) in
  make ();
  Gc.full_major ();
  check "unreferenced engine collected" true (Option.is_none (Weak.get w 0));
  (* A live engine still follows events after the dead one's listener
     has gone. *)
  let engine = Engine.create env in
  let g0 = Engine.generation engine in
  ignore (Gom.Store.new_object store (Gom.Path.type_at path 0));
  ignore (Gom.Store.new_object store (Gom.Path.type_at path 0));
  check_int "live engine saw both events" (g0 + 2) (Engine.generation engine)

(* ---------------- explain ---------------- *)

let test_explain () =
  let store, path, env = gen_base () in
  let a =
    Core.Asr.create store path Core.Extension.Full
      (D.binary ~m:(Gom.Path.arity path - 1))
  in
  let engine = Engine.create env in
  Engine.register engine a;
  let n = Gom.Path.length path in
  let x1 = Engine.explain engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd in
  check "first explain is a miss" false x1.Engine.x_cached;
  let x2 = Engine.explain engine path ~i:0 ~j:n ~dir:Engine.Plan.Bwd in
  check "second explain is cached" true x2.Engine.x_cached;
  check "candidates priced cheapest-first" true
    (let costs =
       List.map (fun (c : Engine.candidate) -> c.Engine.est_cost)
         x1.Engine.x_choice.Engine.candidates
     in
     costs = List.sort compare costs);
  check "chosen is the head candidate" true
    (match x1.Engine.x_choice.Engine.candidates with
    | { Engine.est_cost; _ } :: _ ->
      est_cost = x1.Engine.x_choice.Engine.est_cost
    | [] -> false);
  let s = Engine.explanation_to_string x2 in
  check "rendering mentions the plan" true
    (let has sub =
       let ls = String.length s and lsub = String.length sub in
       let rec go k = k + lsub <= ls && (String.sub s k lsub = sub || go (k + 1)) in
       go 0
     in
     has "plan" && has "cost" && has "cache : hit")

let suite =
  [
    Qc.to_alcotest prop_engine_agrees_oracle;
    Qc.to_alcotest prop_batch_agrees_oracle;
    Alcotest.test_case "plan cache hits" `Quick test_plan_cache_hits;
    Alcotest.test_case "plan cache invalidation" `Quick test_plan_cache_invalidation;
    Alcotest.test_case "foreign index rejected" `Quick test_register_other_store_rejected;
    Alcotest.test_case "batched probes save pages" `Quick test_batch_saves_pages;
    Alcotest.test_case "interior-entry semijoin, 512+ probes" `Quick
      test_interior_semijoin_batch;
    Alcotest.test_case "explain" `Quick test_explain;
    Alcotest.test_case "unreferenced engine is collected" `Quick
      test_unreferenced_engine_collected;
  ]
