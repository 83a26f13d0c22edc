type t = {
  placement : Placement.t;
  n : int;
  store : Gom.Store.t;
  manager : Core.Maintenance.t;
  envs : Core.Exec.env array;
  engines : Engine.t array;
  quarantines : Integrity.Quarantine.t array;
  pool : Parallel.Pool.t;
  jobs : int;
  router_stats : Storage.Stats.t;
  mutable specs : (Gom.Path.t * Core.Extension.kind * Core.Decomposition.t) list;
  asrs : Core.Asr.t list array;  (* mutated in place, per shard *)
  mutable closed : bool;
}

let create_on ?jobs ~placement ~manager env =
  let n = Placement.shards placement in
  let store = Core.Exec.live_store_exn env in
  let envs = Array.init n (fun _ -> Core.Exec.make store env.Core.Exec.heap) in
  let engines = Array.map (fun env -> Engine.create env) envs in
  let quarantines =
    Array.map
      (fun engine ->
        let q = Integrity.Quarantine.create () in
        Integrity.Quarantine.attach q engine;
        q)
      engines
  in
  let jobs = match jobs with Some j -> max 1 j | None -> n in
  {
    placement;
    n;
    store;
    manager;
    envs;
    engines;
    quarantines;
    pool = Parallel.Pool.create ~jobs;
    jobs;
    router_stats = Storage.Stats.create ();
    specs = [];
    asrs = Array.make n [];
    closed = false;
  }

let create ?jobs ?policy ?(size_of = fun _ -> 100) ~placement store =
  let env = Core.Exec.make store (Storage.Heap.create ~size_of store) in
  let manager = Core.Maintenance.create env in
  Option.iter (Core.Maintenance.set_policy manager) policy;
  create_on ?jobs ~placement ~manager env

let shards t = t.n
let jobs t = t.jobs
let placement t = t.placement
let store t = t.store
let engine t k = t.engines.(k)
let manager t = t.manager
let quarantine_registry t k = t.quarantines.(k)
let asrs t k = List.rev t.asrs.(k)

let register t ~path ~kind ~dec =
  for k = 0 to t.n - 1 do
    let owner = Placement.owner_pred t.placement k in
    let frag = Core.Asr.create ~owner t.store path kind dec in
    Core.Maintenance.register t.manager frag;
    Engine.register t.engines.(k) frag;
    t.asrs.(k) <- frag :: t.asrs.(k)
  done;
  t.specs <- t.specs @ [ (path, kind, dec) ]

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

(* Grouped routing sends each probe to its owner shard alone, so that
   shard's answer must be the whole answer.  Sound exactly when the
   probe anchors every usable index at column 0: matching tuples then
   carry the probe as leftmost non-NULL column and live on the owner
   shard, while navigation / extent-scan fallbacks read the full store
   and are exact anyway.  One index embedding the query path at a
   positive offset breaks the argument (its matching tuples may be
   owned by their own earlier columns), so such paths scatter. *)
let grouped_ok t path ~i =
  i = 0
  && List.for_all
       (fun (index_path, _, _) ->
         match Engine.embedding_offset ~index_path ~query_path:path with
         | None | Some 0 -> true
         | Some _ -> false)
       t.specs

let note_grouped t = Storage.Stats.note t.router_stats Shard_grouped
let note_scatter t = Storage.Stats.note t.router_stats Shard_scatter

let scatter_tasks t f = List.init t.n (fun k () -> f k)

(* Pointwise union of per-shard batch answers.  Every shard deduplicates
   and sorts the same probe list, so the chunks are keyed identically
   and merge positionally; the per-probe union re-sorts with the same
   comparator the engine's batch entry points use, which is what keeps
   the merged answer byte-identical to the unsharded one. *)
let merge_batches compare_answers chunks =
  match chunks with
  | [] -> []
  | first :: rest ->
    List.fold_left
      (fun acc chunk ->
        List.map2 (fun (p, a) (_, a') -> (p, List.rev_append a' a)) acc chunk)
      first rest
    |> List.map (fun (p, a) -> (p, List.sort_uniq compare_answers a))

let forward_batch t path ~i ~j oids =
  let probes = List.sort_uniq Gom.Oid.compare oids in
  if probes = [] then []
  else if t.n = 1 then begin
    note_grouped t;
    Engine.forward_batch ~env:t.envs.(0) t.engines.(0) path ~i ~j probes
  end
  else if grouped_ok t path ~i then begin
    note_grouped t;
    let buckets = Array.make t.n [] in
    (* Reverse first so each bucket comes out in ascending probe order
       (the engine re-sorts anyway; this keeps descents sequential). *)
    List.iter
      (fun o ->
        let k = Placement.shard_of_oid t.placement o in
        buckets.(k) <- o :: buckets.(k))
      (List.rev probes);
    let tasks =
      List.filter_map
        (fun k ->
          if buckets.(k) = [] then None
          else
            Some
              (fun () ->
                Engine.forward_batch ~env:t.envs.(k) t.engines.(k) path ~i ~j
                  buckets.(k)))
        (List.init t.n Fun.id)
    in
    Parallel.Pool.run_all t.pool tasks
    |> List.concat
    |> List.sort (fun (a, _) (b, _) -> Gom.Oid.compare a b)
  end
  else begin
    note_scatter t;
    Parallel.Pool.run_all t.pool
      (scatter_tasks t (fun k ->
           Engine.forward_batch ~env:t.envs.(k) t.engines.(k) path ~i ~j probes))
    |> merge_batches Gom.Value.compare
  end

let backward_batch t path ~i ~j ~targets =
  let targets = List.sort_uniq Gom.Value.compare targets in
  if targets = [] then []
  else if t.n = 1 then begin
    note_grouped t;
    Engine.backward_batch ~env:t.envs.(0) t.engines.(0) path ~i ~j ~targets
  end
  else begin
    note_scatter t;
    Parallel.Pool.run_all t.pool
      (scatter_tasks t (fun k ->
           Engine.backward_batch ~env:t.envs.(k) t.engines.(k) path ~i ~j ~targets))
    |> merge_batches Gom.Oid.compare
  end

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

let shard_summaries t =
  Array.map (fun env -> Storage.Stats.snapshot env.Core.Exec.stats) t.envs

let stats_summary t =
  Array.fold_left Storage.Stats.merge
    (Storage.Stats.merge
       (Storage.Stats.snapshot t.router_stats)
       (Storage.Stats.snapshot (Core.Maintenance.stats t.manager)))
    (shard_summaries t)

let total_pages t =
  Array.map
    (fun asrs -> List.fold_left (fun acc a -> acc + Core.Asr.total_pages a) 0 asrs)
    t.asrs

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter (List.iter (Core.Maintenance.suspend t.manager)) t.asrs;
    Parallel.Pool.shutdown t.pool
  end
