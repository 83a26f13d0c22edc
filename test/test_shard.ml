(* Tests for the horizontal sharding layer: the placement function, the
   scatter-gather router, and per-shard durability.

   The centrepiece is the merge gate: a QCheck oracle asserting that
   every (path, i, j, direction) query answered by the sharded router is
   byte-identical to the unsharded engine over the same object base —
   across shard counts 1/2/4/8, job counts and flush policies — and
   that after a full flush the per-shard fragment trees union back,
   tree for tree, to the unsharded relation.  Around it: a regression
   for quarantine-driven degradation staying local to one shard, and a
   crash-at-every-write sweep over one shard's log with the cross-shard
   agreement gate refusing to serve until the generations agree. *)

(* Store.copy builds the replica stores — the writer-side clone the
   alert keeps available. *)
[@@@alert "-legacy"]

module E = Core.Exec
module D = Core.Decomposition
module M = Core.Maintenance
module V = Gom.Value
module P = Shard.Placement
module G = Shard.Group
module Dur = Shard.Durable
module Db = Durability.Db
module Wal = Durability.Wal
module Fault = Durability.Fault

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let vset vs = List.sort_uniq V.compare vs

let iters_env name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> default

let env_of store =
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  E.make store heap

(* ---------------- placement ---------------- *)

let test_placement_basics () =
  let pl = P.make 4 in
  check_int "shards" 4 (P.shards pl);
  (* Deterministic and in range. *)
  List.iter
    (fun id ->
      let k = P.shard_of_oid pl (Gom.Oid.of_int id) in
      check "in range" true (k >= 0 && k < 4);
      check_int "stable" k (P.shard_of_oid pl (Gom.Oid.of_int id)))
    [ 0; 1; 2; 17; 9999; 123456 ];
  (* Hash placement spreads consecutive identifiers. *)
  let hits = Array.make 4 0 in
  for id = 0 to 255 do
    let k = P.shard_of_oid pl (Gom.Oid.of_int id) in
    hits.(k) <- hits.(k) + 1
  done;
  Array.iteri
    (fun k c -> check (Printf.sprintf "shard %d non-starved" k) true (c > 16))
    hits;
  (* Range placement keeps a stride together. *)
  let rp = P.make ~strategy:(P.Range 10) 4 in
  check_int "range stride 0" 0 (P.shard_of_id rp 3);
  check_int "range stride 1" 1 (P.shard_of_id rp 13);
  check_int "range wraps" 0 (P.shard_of_id rp 43);
  (* Tuple owner = leftmost non-NULL column. *)
  let o = Gom.Oid.of_int 7 in
  let k = P.shard_of_oid pl o in
  check_int "leftmost non-null decides" k
    (P.shard_of_tuple pl [| V.Null; V.Ref o; V.Str "x" |]);
  check_int "all-null owns to 0" 0 (P.shard_of_tuple pl [| V.Null; V.Null |])

let test_placement_strings () =
  let roundtrip pl =
    match P.of_string ~shards:(P.shards pl) (P.to_string pl) with
    | Some pl' ->
      P.shards pl' = P.shards pl && P.strategy pl' = P.strategy pl
    | None -> false
  in
  check "hash roundtrip" true (roundtrip (P.make 4));
  check "range roundtrip" true (roundtrip (P.make ~strategy:(P.Range 64) 8));
  check "garbage rejected" true (P.of_string ~shards:2 "rangefree" = None);
  check "bad stride rejected" true (P.of_string ~shards:2 "range:0" = None)

(* ---------------- the sharded ≡ unsharded oracle ---------------- *)

(* The unsharded reference: its own engine, manager and full (unowned)
   relations over the SAME primary store the group's shard 0 wraps, so
   both sides observe the identical mutation stream. *)
type reference = { r_env : E.env; r_mgr : M.t; r_engine : Engine.t }

let make_reference store =
  let env = env_of store in
  { r_env = env; r_mgr = M.create env; r_engine = Engine.create env }

let register_reference r store path kind dec =
  let a = Core.Asr.create store path kind dec in
  M.register r.r_mgr a;
  Engine.register r.r_engine a;
  a

let all_ranges path =
  let n = Gom.Path.length path in
  List.concat (List.init n (fun i -> List.init (n - i) (fun d -> (i, i + d + 1))))

(* Structural equality IS byte identity here: answers on both sides are
   sort_uniq'd association lists of immutable values. *)
let queries_agree r grp store path =
  List.for_all
    (fun (i, j) ->
      let sources = Gom.Store.extent ~deep:true store (Gom.Path.type_at path i) in
      let expected = Engine.forward_batch ~env:r.r_env r.r_engine path ~i ~j sources in
      let got = G.forward_batch grp path ~i ~j sources in
      let fwd_ok = expected = got in
      let targets = List.sort_uniq V.compare (List.concat_map snd expected) in
      let bwd_ok =
        Engine.backward_batch ~env:r.r_env r.r_engine path ~i ~j ~targets
        = G.backward_batch grp path ~i ~j ~targets
      in
      let single_fwd_ok =
        match sources with
        | [] -> true
        | src :: _ ->
          Engine.forward ~env:r.r_env r.r_engine path ~i ~j src
          = G.forward grp path ~i ~j src
      in
      let single_bwd_ok =
        match targets with
        | [] -> true
        | tgt :: _ ->
          Engine.backward ~env:r.r_env r.r_engine path ~i ~j ~target:tgt
          = G.backward grp path ~i ~j ~target:tgt
      in
      fwd_ok && bwd_ok && single_fwd_ok && single_bwd_ok)
    (all_ranges path)

(* Tree-for-tree: after a full flush the fragments must partition the
   reference extension (disjoint, union-exact) and every physical
   partition tree must union to the reference partition.  Partition
   projections deduplicate, so two shards may legitimately share a
   projected row — the union compares sort_uniq'd. *)
let trees_agree ref_asr grp ~spec_idx =
  let frags = List.init (G.shards grp) (fun k -> List.nth (G.asrs grp k) spec_idx) in
  let rows r = Relation.to_list r in
  let disjoint =
    Core.Asr.cardinal ref_asr
    = List.fold_left (fun acc f -> acc + Core.Asr.cardinal f) 0 frags
  in
  let ext_union =
    List.sort compare (rows (Core.Asr.extension_relation ref_asr))
    = List.sort compare
        (List.concat_map (fun f -> rows (Core.Asr.extension_relation f)) frags)
  in
  let parts_union =
    List.for_all
      (fun p ->
        List.sort_uniq compare (rows (Core.Asr.partition_relation ref_asr p))
        = List.sort_uniq compare
            (List.concat_map (fun f -> rows (Core.Asr.partition_relation f p)) frags))
      (List.init (Core.Asr.partition_count ref_asr) Fun.id)
  in
  disjoint && ext_union && parts_union

(* Random mutation driver (same shape as the maintenance fuzzers):
   assignments, set surgery, deletions — all through the primary
   store, fanning out to the replicas. *)
type op = Insert | Remove | Assign | AssignNull | Delete

let apply_random_op rng store path =
  let nn = Gom.Path.length path in
  let level = Random.State.int rng nn in
  let step = Gom.Path.step path (level + 1) in
  let sources = Gom.Store.extent ~deep:true store step.Gom.Path.domain in
  let targets = Gom.Store.extent ~deep:true store step.Gom.Path.range in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  if sources = [] then ()
  else
    let src = pick sources in
    let op =
      match Random.State.int rng 10 with
      | 0 | 1 | 2 -> Insert
      | 3 | 4 -> Remove
      | 5 | 6 -> Assign
      | 7 -> AssignNull
      | _ -> Delete
    in
    match (op, step.Gom.Path.set_type) with
    | Delete, _ ->
      if List.length targets > 1 then Gom.Store.delete store (pick targets)
    | (Insert | Remove | Assign), Some set_ty -> (
      match Gom.Store.get_attr store src step.Gom.Path.attr with
      | V.Null ->
        let s = Gom.Store.new_object store set_ty in
        Gom.Store.set_attr store src step.Gom.Path.attr (V.Ref s);
        if targets <> [] && Random.State.bool rng then
          Gom.Store.insert_elem store s (V.Ref (pick targets))
      | v -> (
        let s = V.oid_exn v in
        match op with
        | Insert ->
          if targets <> [] then Gom.Store.insert_elem store s (V.Ref (pick targets))
        | Remove -> (
          match Gom.Store.elements store s with
          | [] -> ()
          | elems -> Gom.Store.remove_elem store s (pick elems))
        | Assign | AssignNull | Delete ->
          Gom.Store.set_attr store src step.Gom.Path.attr V.Null))
    | (Insert | Assign), None ->
      if targets <> [] then
        Gom.Store.set_attr store src step.Gom.Path.attr (V.Ref (pick targets))
    | (Remove | AssignNull), None | AssignNull, Some _ ->
      Gom.Store.set_attr store src step.Gom.Path.attr V.Null

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

let arb_spec = QCheck.make ~print:(fun _ -> "<spec>") spec_gen

let shard_counts = [ 1; 2; 4; 8 ]
let policies = [ M.Immediate; M.Every_k_events 3; M.On_query ]

let prop_sharded_equals_unsharded =
  QCheck.Test.make
    ~name:"sharded router = unsharded engine (shards x jobs x policies)"
    ~count:(iters_env "ASR_SHARD_COUNT" 25)
    QCheck.(
      pair arb_spec
        (pair (int_bound 3)
           (pair small_int (pair (int_bound 3) (pair (int_bound 2) (int_bound 1000))))))
    (fun (spec, (kind_idx, (dec_pick, (shard_pick, (policy_pick, ops_seed))))) ->
      let store, path = Workload.Generator.build spec in
      let kind = List.nth Core.Extension.all kind_idx in
      let m = Gom.Path.arity path - 1 in
      let decs = D.all ~m in
      let dec = List.nth decs (dec_pick mod List.length decs) in
      let shards = List.nth shard_counts shard_pick in
      let jobs = 1 + (ops_seed mod 4) in
      let policy = List.nth policies policy_pick in
      let r = make_reference store in
      let ref_asr = register_reference r store path kind dec in
      let grp = G.create ~jobs ~policy ~placement:(P.make shards) store in
      Fun.protect
        ~finally:(fun () -> G.close grp)
        (fun () ->
          G.register grp ~path ~kind ~dec;
          let rng = Random.State.make [| ops_seed |] in
          for _ = 1 to 10 do
            apply_random_op rng store path
          done;
          (* Queries must agree even with deltas still buffered (the
             engines catch up); then drain and compare the trees. *)
          let q_ok = queries_agree r grp store path in
          ignore (G.flush_all grp : int);
          ignore (M.flush_all r.r_mgr : int);
          q_ok
          && trees_agree ref_asr grp ~spec_idx:0
          && queries_agree r grp store path))

(* The same answer at every shard count and every job count — computed
   on independently built (identical) bases, compared across variants
   structurally, i.e. byte for byte. *)
let test_identical_across_shard_counts () =
  let spec =
    Workload.Generator.spec ~seed:42 ~counts:[ 8; 10; 12 ] ~defined:[ 7; 9 ]
      ~fan:[ 2; 2 ] ()
  in
  let variants = [ (1, 1); (2, 1); (2, 3); (4, 2); (4, 4); (8, 3) ] in
  let answers =
    List.map
      (fun (shards, jobs) ->
        let store, path = Workload.Generator.build spec in
        let m = Gom.Path.arity path - 1 in
        let grp = G.create ~jobs ~placement:(P.make shards) store in
        Fun.protect
          ~finally:(fun () -> G.close grp)
          (fun () ->
            G.register grp ~path ~kind:Core.Extension.Canonical ~dec:(D.binary ~m);
            let rng = Random.State.make [| 7 |] in
            for _ = 1 to 15 do
              apply_random_op rng store path
            done;
            let n = Gom.Path.length path in
            let sources =
              Gom.Store.extent ~deep:true store (Gom.Path.type_at path 0)
            in
            let fwd = G.forward_batch grp path ~i:0 ~j:n sources in
            let targets = List.sort_uniq V.compare (List.concat_map snd fwd) in
            let bwd = G.backward_batch grp path ~i:0 ~j:n ~targets in
            (fwd, bwd)))
      variants
  in
  match answers with
  | [] -> ()
  | first :: rest ->
    List.iteri
      (fun idx a ->
        check
          (Printf.sprintf "variant %d byte-identical to unsharded" (idx + 1))
          true (a = first))
      rest

(* ---------------- router degradation under quarantine -------------- *)

let uses_stitch = function
  | Engine.Plan.Stitch _ -> true
  | Engine.Plan.Nav _ | Engine.Plan.Extent_scan _ -> false

let test_quarantine_degrades_one_shard () =
  let spec =
    Workload.Generator.spec ~seed:11 ~counts:[ 10; 14; 18 ] ~defined:[ 9; 12 ]
      ~fan:[ 2; 2 ] ()
  in
  let store, path = Workload.Generator.build spec in
  let m = Gom.Path.arity path - 1 in
  let kind = Core.Extension.Full and dec = D.binary ~m in
  let r = make_reference store in
  ignore (register_reference r store path kind dec : Core.Asr.t);
  let grp = G.create ~placement:(P.make 4) store in
  Fun.protect
    ~finally:(fun () -> G.close grp)
    (fun () ->
      G.register grp ~path ~kind ~dec;
      let n = Gom.Path.length path in
      let victim = 2 in
      let frag = List.hd (G.asrs grp victim) in
      let q = G.quarantine_registry grp victim in
      for p = 0 to Core.Asr.partition_count frag - 1 do
        Integrity.Quarantine.quarantine ~reason:"shard test" ~part:p q frag
      done;
      (* The victim's planner must price the stitch out entirely; a
         healthy shard must still offer it (whether or not it wins on
         cost). *)
      let offers_stitch k =
        List.exists
          (fun (c : Engine.candidate) -> uses_stitch c.Engine.plan)
          (Engine.candidates (G.engine grp k) path ~i:0 ~j:n ~dir:Engine.Plan.Fwd)
      in
      check "victim prices the stitch out" false (offers_stitch victim);
      check "healthy shard still offers the stitch" true (offers_stitch 0);
      let plan_of k =
        (Engine.explain (G.engine grp k) path ~i:0 ~j:n ~dir:Engine.Plan.Fwd)
          .Engine.x_choice.Engine.chosen
      in
      check "victim degrades to navigation" false (uses_stitch (plan_of victim));
      (* Answers stay exact: grouped forward and scattered backward. *)
      let sources = Gom.Store.extent ~deep:true store (Gom.Path.type_at path 0) in
      let fwd_ref = Engine.forward_batch ~env:r.r_env r.r_engine path ~i:0 ~j:n sources in
      check "forward exact under quarantine" true
        (fwd_ref = G.forward_batch grp path ~i:0 ~j:n sources);
      let targets = List.sort_uniq V.compare (List.concat_map snd fwd_ref) in
      check "backward exact under quarantine" true
        (Engine.backward_batch ~env:r.r_env r.r_engine path ~i:0 ~j:n ~targets
        = G.backward_batch grp path ~i:0 ~j:n ~targets);
      (* Degradation is local: only the victim's sheaf records
         health-driven fallbacks. *)
      Array.iteri
        (fun k (s : Storage.Stats.summary) ->
          if k = victim then
            check "victim recorded fallbacks" true (Storage.Stats.count s Fallback > 0)
          else
            check_int
              (Printf.sprintf "shard %d clean" k)
              0 (Storage.Stats.count s Fallback))
        (G.shard_summaries grp);
      (* The router's own ledger balances: one grouped batch plus one
         scattered batch were routed, and the merged accountant carries
         both alongside the victim's fallbacks. *)
      let total = G.stats_summary grp in
      check_int "one grouped batch" 1 (Storage.Stats.count total Shard_grouped);
      check_int "one scattered batch" 1 (Storage.Stats.count total Shard_scatter);
      check "merged accountant keeps the fallbacks" true
        (Storage.Stats.count total Fallback > 0))

(* ---------------- per-shard durability ---------------- *)

let fresh_dir () =
  let d = Filename.temp_file "asr-shard-test" "" in
  Sys.remove d;
  Sys.mkdir d 0o700;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      try Sys.rmdir path with Sys_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let durable_spec =
  Workload.Generator.spec ~seed:23 ~counts:[ 5; 7; 9 ] ~defined:[ 5; 6 ]
    ~fan:[ 2; 1 ] ()

(* The scripted durable workload: register one relation, defer
   maintenance so the final drain logs a mid-flush WAL group, mutate,
   flush.  Deterministic, so every run writes the same log byte
   stream. *)
let run_durable_workload d path =
  G.set_policy (Dur.group d) (M.Every_k_events 4);
  let store = G.primary (Dur.group d) in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 6 do
    apply_random_op rng store path
  done;
  ignore (Dur.flush_maintenance d : int)

let durable_path_of d =
  match Dur.specs d with
  | spec :: _ ->
    let p, _, _ = Db.spec_components (G.primary (Dur.group d)) spec in
    p
  | [] -> Alcotest.fail "durable group lost its registration"

(* The recovered group must answer exactly like a navigational scan of
   the recovered primary. *)
let recovered_answers_exact d =
  let grp = Dur.group d in
  let store = G.primary grp in
  let path = durable_path_of d in
  let env = env_of store in
  let n = Gom.Path.length path in
  let sources = Gom.Store.extent ~deep:true store (Gom.Path.type_at path 0) in
  List.for_all
    (fun src ->
      vset (E.forward_scan env path ~i:0 ~j:n src)
      = vset (G.forward grp path ~i:0 ~j:n src))
    sources

let test_durable_roundtrip () =
  with_dir (fun dir ->
      let store, path = Workload.Generator.build durable_spec in
      let d =
        Dur.create ~policy:Wal.Sync_always ~placement:(P.make 2) ~dir store
      in
      Dur.register d ~path:(Gom.Path.to_string path) ~kind:Core.Extension.Canonical ();
      run_durable_workload d path;
      let crc_before = Dur.content_crc d in
      check "healthy group agrees" true
        (Array.for_all (fun c -> Int32.equal c crc_before.(0)) crc_before);
      Dur.close d;
      let d' = Dur.open_ ~dir () in
      Fun.protect
        ~finally:(fun () -> Dur.close d')
        (fun () ->
          check_int "both shards reopened" 2 (Array.length (Dur.dbs d'));
          check_int "registration recovered" 1 (List.length (Dur.specs d'));
          let crc = Dur.content_crc d' in
          check "recovered shards agree" true
            (Array.for_all (fun c -> Int32.equal c crc.(0)) crc);
          check "recovered answers exact" true (recovered_answers_exact d')))

(* One run of the workload with a fault armed on shard 1's log; the
   crash must fire.  The dead process's stores are abandoned (the
   armed shard's log is simulated, so nothing leaks); only shard 0's
   real Db and the domain pool are shut down. *)
let crashed_run ~plan dir =
  let fault = Fault.faulty plan in
  let store, path = Workload.Generator.build durable_spec in
  let d =
    Dur.create ~policy:Wal.Sync_always
      ~faults:(fun k -> if k = 1 then Some fault else None)
      ~placement:(P.make 2) ~dir store
  in
  Dur.register d ~path:(Gom.Path.to_string path) ~kind:Core.Extension.Canonical ();
  let crashed =
    match run_durable_workload d path with
    | () -> false
    | exception Fault.Crash -> true
  in
  G.close (Dur.group d);
  Db.close (Dur.dbs d).(0);
  Gom.Txn.clear_hooks (Db.store (Dur.dbs d).(1));
  crashed

let test_crash_sweep_agreement_gate () =
  (* Size the sweep from a crash-free reference run. *)
  let writes =
    with_dir (fun dir ->
        let fault = Fault.real () in
        let store, path = Workload.Generator.build durable_spec in
        let d =
          Dur.create ~policy:Wal.Sync_always
            ~faults:(fun k -> if k = 1 then Some fault else None)
            ~placement:(P.make 2) ~dir store
        in
        Dur.register d ~path:(Gom.Path.to_string path)
          ~kind:Core.Extension.Canonical ();
        run_durable_workload d path;
        let w = Fault.writes fault in
        Dur.close d;
        w)
  in
  check "reference run logged writes on shard 1" true (writes > 0);
  let refusals = ref 0 in
  for c = 1 to writes do
    with_dir (fun dir ->
        let ctx = Printf.sprintf "crash@%d" c in
        let plan = { Fault.crash_at_write = c; survive_bytes = 0; corrupt_bytes = 0 } in
        check (ctx ^ ": crash fired") true (crashed_run ~plan dir);
        (* Recovery: either the lost tail held no store content and the
           gate passes, or the gate must refuse until reconciled. *)
        let d =
          match Dur.open_ ~dir () with
          | d -> d
          | exception Dur.Shard_error _ ->
            incr refusals;
            Dur.open_ ~reconcile:true ~dir ()
        in
        Fun.protect
          ~finally:(fun () -> Dur.close d)
          (fun () ->
            let crc = Dur.content_crc d in
            check (ctx ^ ": generations agree after recovery") true
              (Array.for_all (fun x -> Int32.equal x crc.(0)) crc);
            check (ctx ^ ": recovered answers exact") true
              (recovered_answers_exact d)))
  done;
  (* The gate is not vacuous: losing a synced tail mid-history must
     produce at least one refusal. *)
  check "agreement gate fired during the sweep" true (!refusals > 0)

let suite =
  [
    Alcotest.test_case "placement basics" `Quick test_placement_basics;
    Alcotest.test_case "placement strings" `Quick test_placement_strings;
    Qc.to_alcotest prop_sharded_equals_unsharded;
    Alcotest.test_case "byte-identical across shard and job counts" `Quick
      test_identical_across_shard_counts;
    Alcotest.test_case "quarantine degrades one shard only" `Quick
      test_quarantine_degrades_one_shard;
    Alcotest.test_case "durable shard group roundtrip" `Quick test_durable_roundtrip;
    Alcotest.test_case "crash sweep: agreement gate" `Quick
      test_crash_sweep_agreement_gate;
  ]
