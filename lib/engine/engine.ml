(* Cost-based query engine over access support relations.

   The engine owns the registered ASRs for one object base, measures (or
   accepts) statistical profiles, enumerates the legal physical
   strategies for a Q^(i,j) query (Definitions 3.4-3.8 decide which
   extensions apply), prices every strategy with the paper's analytical
   cost model (equations 31-35) fed by live profiles, caches the winning
   plan per query shape, and executes plans through one interpreter
   that walks many probes at once, sharing B+ tree descents and leaf
   pages (a single probe is a batch of one). *)

module QC = Costmodel.Query_cost

(* ------------------------------------------------------------------ *)
(* Physical plan IR                                                    *)
(* ------------------------------------------------------------------ *)

module Plan = struct
  type dir = Core.Exec.dir = Fwd | Bwd

  let dir_to_string = function Fwd -> "fw" | Bwd -> "bw"

  type step = Core.Exec.step =
    | Lookup of { part : int; enter : int }
    | Scan of { part : int; enter : int }

  type t =
    | Nav of { path : Gom.Path.t; i : int; j : int }
        (** Forward pointer-chasing through the object graph. *)
    | Extent_scan of { path : Gom.Path.t; i : int; j : int }
        (** Backward by exhaustive search over the extent of [t_i]. *)
    | Stitch of {
        index : Core.Asr.t;
        dir : dir;
        i : int;
        j : int;  (** Object positions within the {e index's} path. *)
        steps : step list;
      }  (** Prefix/suffix stitch across the index's decomposition. *)

  let step_to_string = function
    | Lookup { part; enter } -> Printf.sprintf "lookup(p%d@c%d)" part enter
    | Scan { part; enter } -> Printf.sprintf "scan(p%d@c%d)" part enter

  let to_string = function
    | Nav { path; i; j } ->
      Printf.sprintf "nav fw(%d,%d) over %s" i j (Gom.Path.to_string path)
    | Extent_scan { path; i; j } ->
      Printf.sprintf "extent-scan bw(%d,%d) over %s" i j (Gom.Path.to_string path)
    | Stitch { index; dir; i; j; steps } ->
      Printf.sprintf "asr %s(%d,%d) %s/%s on %s [%s]" (dir_to_string dir) i j
        (Core.Extension.name (Core.Asr.kind index))
        (Core.Decomposition.to_string (Core.Asr.decomposition index))
        (Gom.Path.to_string (Core.Asr.path index))
        (String.concat " ; " (List.map step_to_string steps))
end

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

type candidate = { plan : Plan.t; est_cost : float }

type choice = {
  chosen : Plan.t;
  est_cost : float;
  candidates : candidate list;  (** All priced strategies, cheapest first. *)
}

type cache_info = { hits : int; misses : int; invalidations : int; entries : int }

type key = { k_path : string; k_i : int; k_j : int; k_dir : Plan.dir }

type entry = { e_choice : choice; e_generation : int; e_warmth : int list }
(* [e_warmth] is the buffer-warmth fingerprint the plan was priced
   under: one decile bucket per segment (heap first, then registered
   indexes), [-1] for segments with no measured traffic, [] for
   unbuffered environments.  A cached plan is only reused while the
   fingerprint still matches — warming or cooling the pool re-plans, so
   nav/ASR choices can flip between cold and warm without waiting for a
   store mutation to bump the generation. *)

type t = {
  env : Core.Exec.env;
  lock : Mutex.t;
      (* Guards every mutable field below.  The engine is shared by the
         parallel server's worker domains: plan-cache lookups, counter
         updates, generation bumps and live profile counts all live
         under this lock; the expensive parts (candidate pricing,
         profile walks, plan execution) run outside it. *)
  mutable indexes : Core.Asr.t list;
  mutable generation : int;
      (* Bumped on every store mutation and on index (un)registration;
         cached plans from older generations are stale. *)
  cache : (key, entry) Hashtbl.t;
  counts : (Gom.Schema.type_name * Gom.Schema.attr_name, attr_counts) Hashtbl.t;
  type_counts : (Gom.Schema.type_name, int ref) Hashtbl.t;
      (* Live profile counts per schema attribute and per type (deep
         extent size), each seeded by one walk when first asked for and
         kept current by the store subscription. *)
  mutable counts_epoch : int;  (* the store epoch the live counts reflect *)
  assembled : (string, Costmodel.Profile.t) Hashtbl.t;
      (* Profiles assembled from the live counts at [counts_epoch], by
         path; emptied by every store event. *)
  pinned : (string, Costmodel.Profile.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  sizes : Gom.Schema.type_name -> int;
  mutable health : (Core.Asr.t -> part:int -> bool) option;
      (* Consulted by the planner and the execution guards: [None] means
         every registered index is trusted; the integrity registry
         installs a callback so quarantined indexes/partitions are
         priced out and stale plans refuse to run. *)
  mutable freshness : freshness_mode;
      (* What planning and execution do with an index whose deferred
         maintenance buffers hold pending deltas (the freshness
         watermark).  Catch_up keeps deferred maintenance invisible to
         answers by flushing on first use; Degrade prices the stale
         index out and falls back to always-live plans — also exact,
         since navigation and extent scans never consult the trees. *)
}

and freshness_mode = Catch_up | Degrade

(* A path's profile is made of integer counts (paper, Fig. 3).  For one
   attribute over the deep extent of its domain: how many objects define
   it, how many references they make in total, and a reference count per
   distinct target (elementary values included), whose number of keys is
   the distinct-target count. *)
and attr_counts = {
  set_valued : bool;
  mutable defined : int;
  mutable refs : int;
  targets : (Gom.Value.t, int ref) Hashtbl.t;
}

let with_lock t f = Mutex.protect t.lock f

exception Stale_plan
(* Internal: an execution guard met a plan stitching through an index
   that is no longer registered (or no longer healthy).  The high-level
   entry points catch it and degrade to the always-live navigational
   plan; the explicit [run_forward]/[run_backward] API surfaces it as
   Invalid_argument, as before. *)

let env t = t.env
let indexes t = with_lock t (fun () -> t.indexes)
let generation t = with_lock t (fun () -> t.generation)

(* Per-domain execution environments: workers pass their own [env]
   (a frozen snapshot view of the same lineage, private stats sheaf) so
   page accounting never races; [None] means the engine's own (live)
   environment. *)
let resolve_env t = function
  | None -> t.env
  | Some (e : Core.Exec.env) ->
    if not (Gom.Store_view.same_base e.Core.Exec.view t.env.Core.Exec.view) then
      invalid_arg "Engine: execution environment over a different store";
    e

let healthy_with health a ~part =
  match health with None -> true | Some f -> f a ~part

let invalidate_plans t = with_lock t (fun () -> t.generation <- t.generation + 1)

let set_health t f =
  with_lock t (fun () ->
      t.health <- Some f;
      t.generation <- t.generation + 1)

let set_freshness t mode =
  with_lock t (fun () ->
      t.freshness <- mode;
      t.generation <- t.generation + 1)

(* The freshness watermark: may [a] be stitched through right now?
   Always true for an index with no pending deltas (the common case is
   one integer read).  Otherwise Catch_up drains the buffers — charged
   to the caller's stats, so the first query over a stale index pays the
   catch-up — and Degrade refuses, which sends the planner or execution
   guard to navigation / extent scan. *)
let index_fresh ~env t a =
  Core.Asr.pending_deltas a = 0
  ||
  let stats = env.Core.Exec.stats in
  match with_lock t (fun () -> t.freshness) with
  | Catch_up ->
    ignore (Core.Asr.flush ~stats a);
    Storage.Stats.note stats Catchup_flush;
    true
  | Degrade ->
    Storage.Stats.note stats Freshness_degradation;
    false

(* May this environment walk the index's B+ trees right now?

   A snapshot environment carries version marks pinned at publication:
   the trees are usable iff they still sit at the pinned version, which
   means they reflect exactly the environment's epoch (publication
   flushes every buffer first, so pending deltas are strictly {e future}
   work relative to the snapshot).  A frozen environment without a mark
   never touches the trees.  A live environment falls back to the
   freshness watermark — including Catch_up's flush-on-first-use, which
   must never run on behalf of a frozen reader (it would pull future
   writes into a published epoch). *)
let tree_guard ~env t a =
  match Core.Exec.mark_for env (Core.Asr.id a) with
  | Some v -> if Core.Asr.acquire_trees a ~version:v then `Acquired else `Refuse
  | None ->
    if Gom.Store_view.is_frozen env.Core.Exec.view then `Refuse
    else if index_fresh ~env t a then `Plain
    else `Refuse

let with_index_trees ~env t a f =
  match tree_guard ~env t a with
  | `Plain -> f ()
  | `Refuse -> raise Stale_plan
  | `Acquired -> Fun.protect ~finally:(fun () -> Core.Asr.release_trees a) f

(* Planning-time mirror of [tree_guard] that never takes the reader
   slot: pricing only needs to know whether execution would succeed
   (execution re-guards with the real bracket). *)
let index_usable ~env t a =
  match Core.Exec.mark_for env (Core.Asr.id a) with
  | Some v -> Core.Asr.tree_version a = v
  | None ->
    (not (Gom.Store_view.is_frozen env.Core.Exec.view)) && index_fresh ~env t a

(* ------------------------------------------------------------------ *)
(* Live profile counts                                                 *)
(* ------------------------------------------------------------------ *)

(* Add ([k] > 0) or retract ([k] < 0) [k] references to target [e]. *)
let bump_target c e k =
  c.refs <- c.refs + k;
  match Hashtbl.find_opt c.targets e with
  | Some r ->
    r := !r + k;
    if !r = 0 then Hashtbl.remove c.targets e
  | None -> Hashtbl.add c.targets e (ref k)

(* Add ([k] = 1) or retract ([k] = -1) one holder whose attribute value
   is [v]; [elements] reads a collection's current elements. *)
let tally c ~elements v k =
  match v with
  | Gom.Value.Null -> ()
  | v ->
    c.defined <- c.defined + k;
    if c.set_valued then
      List.iter (fun e -> bump_target c e k) (elements (Gom.Value.oid_exn v))
    else bump_target c v k

(* Keep the live counts current: one store event changes O(1) counts per
   tracked key (a set event: one per holder of the set, found through
   the store's reverse-reference index).  Runs under the lock, on the
   writer, after the store changed. *)
let follow_event t store (ev : Gom.Store.event) =
  let schema = Gom.Store.schema store in
  let sub ty sup = Gom.Schema.is_subtype schema ~sub:ty ~sup in
  let types ty k =
    Hashtbl.iter (fun sup n -> if sub ty sup then n := !n + k) t.type_counts
  in
  match ev with
  | Gom.Store.Created o -> types (Gom.Store.type_of store o) 1
  | Gom.Store.Deleted { ty; _ } -> types ty (-1)
  | Gom.Store.Attr_set { obj; attr; old_value; new_value } ->
    let ty = Gom.Store.type_of store obj in
    let elements = Gom.Store.elements store in
    Hashtbl.iter
      (fun (domain, a) c ->
        if String.equal a attr && sub ty domain then begin
          tally c ~elements old_value (-1);
          tally c ~elements new_value 1
        end)
      t.counts
  | Gom.Store.Set_inserted { set; elem } | Gom.Store.Set_removed { set; elem } ->
    let k = match ev with Gom.Store.Set_inserted _ -> 1 | _ -> -1 in
    (* Removing from a list drops every copy of the element, and the
       event does not say how many there were: such a key is dropped and
       re-walked when next asked for. *)
    let drops_copies =
      k < 0
      &&
      match Gom.Schema.find schema (Gom.Store.type_of store set) with
      | Some (Gom.Schema.List _) -> true
      | _ -> false
    in
    Hashtbl.filter_map_inplace
      (fun (domain, attr) c ->
        if not c.set_valued then Some c
        else
          match List.length (Gom.Store.holders store domain attr set) with
          | 0 -> Some c
          | _ when drops_copies -> None
          | holders ->
            bump_target c elem (k * holders);
            Some c)
      t.counts

let create ?(sizes = fun _ -> 100) env =
  let store = Core.Exec.live_store_exn env in
  let t =
    {
      env;
      lock = Mutex.create ();
      indexes = [];
      generation = 0;
      cache = Hashtbl.create 64;
      counts = Hashtbl.create 8;
      type_counts = Hashtbl.create 8;
      counts_epoch = Gom.Store.epoch store;
      assembled = Hashtbl.create 8;
      pinned = Hashtbl.create 4;
      hits = 0;
      misses = 0;
      invalidations = 0;
      sizes;
      health = None;
      freshness = Catch_up;
    }
  in
  (* The listener holds the engine weakly: an engine nobody references
     is collected (its listener then unsubscribes at the next event)
     instead of living as long as the store. *)
  let self = Weak.create 1 in
  Weak.set self 0 (Some t);
  let sub = ref None in
  sub :=
    Some
      (Gom.Store.subscribe store (fun ev ->
           match Weak.get self 0 with
           | Some t ->
             with_lock t (fun () ->
                 t.generation <- t.generation + 1;
                 follow_event t store ev;
                 Hashtbl.reset t.assembled;
                 t.counts_epoch <- Gom.Store.epoch store)
           | None -> Option.iter (Gom.Store.unsubscribe store) !sub));
  t

let register t a =
  if not (Core.Asr.store a == Gom.Store_view.base t.env.Core.Exec.view) then
    invalid_arg "Engine.register: index built over a different store";
  with_lock t (fun () ->
      if not (List.memq a t.indexes) then begin
        t.indexes <- t.indexes @ [ a ];
        t.generation <- t.generation + 1
      end)

let plan_uses a (p : Plan.t) =
  match p with
  | Plan.Stitch { index; _ } -> index == a
  | Plan.Nav _ | Plan.Extent_scan _ -> false

let unregister t a =
  with_lock t (fun () ->
      if List.memq a t.indexes then begin
        t.indexes <- List.filter (fun x -> not (x == a)) t.indexes;
        t.generation <- t.generation + 1;
        (* Generation alone would re-plan lazily; evicting eagerly also
           frees the entries and guarantees no path — not even an explicit
           [run_forward] of a cached choice — can reach the dropped index. *)
        let victims =
          Hashtbl.fold
            (fun k e acc -> if plan_uses a e.e_choice.chosen then k :: acc else acc)
            t.cache []
        in
        List.iter (Hashtbl.remove t.cache) victims;
        t.invalidations <- t.invalidations + List.length victims
      end)

let step_part (s : Plan.step) =
  match s with Plan.Lookup { part; _ } | Plan.Scan { part; _ } -> part

let stitch_usable_with indexes health index steps =
  List.memq index indexes
  && List.for_all (fun s -> healthy_with health index ~part:(step_part s)) steps

(* Execution-time guard: re-reads the registration and health state
   under the lock (callers hold no lock). *)
let stitch_usable t index steps =
  let indexes, health = with_lock t (fun () -> (t.indexes, t.health)) in
  stitch_usable_with indexes health index steps

(* A plan is live when every index it stitches through is still
   registered and fully healthy over the partitions it visits. *)
let plan_live_with indexes health (p : Plan.t) =
  match p with
  | Plan.Nav _ | Plan.Extent_scan _ -> true
  | Plan.Stitch { index; steps; _ } -> stitch_usable_with indexes health index steps

let cache_info t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        invalidations = t.invalidations;
        entries = Hashtbl.length t.cache;
      })

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)
(* ------------------------------------------------------------------ *)

(* The one counting routine: a walk over the deep extent of the step's
   domain.  Measuring a view reads it off at once; a live key is seeded
   by it and then follows the store's events. *)
let count_attr view (step : Gom.Path.step) =
  let c =
    {
      set_valued = step.Gom.Path.set_type <> None;
      defined = 0;
      refs = 0;
      targets = Hashtbl.create 64;
    }
  in
  let elements = Gom.Store_view.elements view in
  List.iter
    (fun o -> tally c ~elements (Gom.Store_view.get_attr view o step.Gom.Path.attr) 1)
    (Gom.Store_view.extent ~deep:true view step.Gom.Path.domain);
  c

let attr_key (step : Gom.Path.step) = (step.Gom.Path.domain, step.Gom.Path.attr)

(* The object types of a path whose deep extent sizes are c_i; an
   elementary terminal type's "extent" is the set of distinct values the
   last attribute references, i.e. its distinct-target count. *)
let object_types path =
  let n = Gom.Path.length path in
  List.init (n + 1) (fun i -> Gom.Path.type_at path i)
  |> List.filteri (fun i _ -> i < n || (Gom.Path.step path n).Gom.Path.range_atomic = None)

(* c_i, d_i, fan_i and shar_i from the counts of each attribute ([level])
   and the deep extent size of each object type ([type_count]). *)
let assemble ~sizes path ~level ~type_count =
  let n = Gom.Path.length path in
  let levels = List.init n (fun i -> level (Gom.Path.step path (i + 1))) in
  let atomic_end = (Gom.Path.step path n).Gom.Path.range_atomic <> None in
  let c =
    List.init (n + 1) (fun i ->
        let count =
          if i = n && atomic_end then Hashtbl.length (List.nth levels (n - 1)).targets
          else type_count (Gom.Path.type_at path i)
        in
        float_of_int (max 1 count))
  in
  let d = List.map (fun l -> float_of_int l.defined) levels in
  let fan =
    List.map
      (fun l -> if l.defined = 0 then 0. else float_of_int l.refs /. float_of_int l.defined)
      levels
  in
  let shar =
    List.map
      (fun l ->
        let distinct = Hashtbl.length l.targets in
        if distinct = 0 then 0. else float_of_int l.refs /. float_of_int distinct)
      levels
  in
  let size_list =
    List.init (n + 1) (fun i -> float_of_int (max 1 (sizes (Gom.Path.type_at path i))))
  in
  Costmodel.Profile.make ~sizes:size_list ~shar ~c ~d ~fan ()

(* Every count a path's profile needs, walked from a view: per attribute
   and per object type, keyed as the live counts are. *)
let walk view path =
  ( List.map (fun s -> (attr_key s, count_attr view s)) path.Gom.Path.steps,
    List.map (fun ty -> (ty, Gom.Store_view.count ~deep:true view ty)) (object_types path) )

let assemble_walked ~sizes path (attrs, types) =
  assemble ~sizes path
    ~level:(fun s -> List.assoc (attr_key s) attrs)
    ~type_count:(fun ty -> List.assoc ty types)

let measure_profile_view ?(sizes = fun _ -> 100) view path =
  assemble_walked ~sizes path (walk view path)

let measure_profile ?sizes store path =
  measure_profile_view ?sizes (Gom.Store_view.live store) path

let set_profile t path prof =
  with_lock t (fun () ->
      Hashtbl.replace t.pinned (Gom.Path.to_string path) prof;
      t.generation <- t.generation + 1)

(* The profile from the live counts, if every key of the path is
   tracked.  Called under the lock. *)
let live_profile t path =
  let steps = (path : Gom.Path.t).Gom.Path.steps in
  if
    List.for_all (fun s -> Hashtbl.mem t.counts (attr_key s)) steps
    && List.for_all (Hashtbl.mem t.type_counts) (object_types path)
  then
    Some
      (assemble ~sizes:t.sizes path
         ~level:(fun s -> Hashtbl.find t.counts (attr_key s))
         ~type_count:(fun ty -> !(Hashtbl.find t.type_counts ty)))
  else None

let profile_in ~env t path =
  let view = env.Core.Exec.view in
  let at = Gom.Store_view.epoch view in
  let key = Gom.Path.to_string path in
  let remember p =
    Hashtbl.replace t.assembled key p;
    p
  in
  let known =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.pinned key with
        | Some p -> `Profile p
        | None when at <> t.counts_epoch -> `Lagging
        | None -> (
          match Hashtbl.find_opt t.assembled key with
          | Some p -> `Profile p
          | None -> (
            match live_profile t path with
            | Some p -> `Profile (remember p)
            | None -> `Seed)))
  in
  match known with
  | `Profile p -> p
  | `Lagging ->
    (* A frozen view behind the live store: its counts are not tracked,
       so it is measured by the walk. *)
    measure_profile_view ~sizes:t.sizes view path
  | `Seed ->
    (* Walk the caller's view outside the lock (a worker walks its frozen
       snapshot, which cannot race the writer); the untracked keys start
       following the store from these counts unless an event arrived
       meanwhile. *)
    let ((attrs, types) as walked) = walk view path in
    with_lock t (fun () ->
        let p = assemble_walked ~sizes:t.sizes path walked in
        if at <> t.counts_epoch then p
        else begin
          List.iter
            (fun (k, c) -> if not (Hashtbl.mem t.counts k) then Hashtbl.add t.counts k c)
            attrs;
          List.iter
            (fun (ty, n) ->
              if not (Hashtbl.mem t.type_counts ty) then
                Hashtbl.add t.type_counts ty (ref n))
            types;
          remember p
        end)

let profile ?env t path = profile_in ~env:(resolve_env t env) t path

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

(* Object-position offset at which the query path embeds in an index
   path: the index positions off..off+n spell exactly the query's
   anchor type and attribute chain. *)
let embedding_offset ~index_path ~query_path =
  let np = Gom.Path.length index_path in
  let len = Gom.Path.length query_path in
  let anchor = Gom.Path.type_at query_path 0 in
  let attrs = List.map (fun s -> s.Gom.Path.attr) query_path.Gom.Path.steps in
  let fits off =
    String.equal (Gom.Path.type_at index_path off) anchor
    && List.for_all2
         (fun k attr ->
           String.equal (Gom.Path.step index_path (off + k)).Gom.Path.attr attr)
         (List.init len (fun k -> k + 1))
         attrs
  in
  let rec go off =
    if off + len > np then None else if fits off then Some off else go (off + 1)
  in
  go 0

(* The analytical model works on object positions (its m = n
   simplification drops set-OID columns); map a physical decomposition's
   boundaries accordingly, discarding boundaries that sit on set
   columns. *)
let analytic_decomposition path dec =
  let n = Gom.Path.length path in
  let bounds =
    Core.Decomposition.boundaries dec
    |> List.filter_map (fun col -> Gom.Path.object_position_of_column path col)
    |> List.sort_uniq Int.compare
  in
  let bounds = if List.mem 0 bounds then bounds else 0 :: bounds in
  let bounds =
    if List.mem n bounds then bounds else List.sort_uniq Int.compare (n :: bounds)
  in
  Core.Decomposition.make ~m:n bounds

let qkind = function Plan.Fwd -> QC.Fw | Plan.Bwd -> QC.Bw

(* Buffer warmth, summarised per segment as a decile bucket (-1 when
   the segment has no measured traffic).  The fingerprint orders the
   heap first, then the registered indexes. *)
let warmth_bucket = function
  | None -> -1
  | Some r -> int_of_float (Float.min 0.99 (Float.max 0. r) *. 10.)

let warmth_fingerprint ~env indexes =
  let st = env.Core.Exec.stats in
  if not (Storage.Stats.has_buffer st) then []
  else
    warmth_bucket (Storage.Stats.segment_hit_ratio st Storage.Heap.segment)
    :: List.map
         (fun a -> warmth_bucket (Storage.Stats.segment_hit_ratio st (Core.Asr.seg a)))
         indexes

let check_range path ~i ~j =
  let n = Gom.Path.length path in
  if not (0 <= i && i < j && j <= n) then
    invalid_arg (Printf.sprintf "Engine: invalid query range (%d,%d) for n=%d" i j n)

(* The strategy that never consults an index: navigation forward, an
   exhaustive extent scan backward. *)
let live_plan path ~i ~j (dir : Plan.dir) =
  match dir with Fwd -> Plan.Nav { path; i; j } | Bwd -> Plan.Extent_scan { path; i; j }

let candidates ?env t path ~i ~j ~dir =
  let env = resolve_env t env in
  check_range path ~i ~j;
  (* One consistent view of the registrations and health for the whole
     enumeration; pricing happens outside the lock. *)
  let indexes, health = with_lock t (fun () -> (t.indexes, t.health)) in
  let prof_q = profile_in ~env t path in
  (* Buffer-aware pricing: equations 31-35 assume every access faults;
     scale each candidate by the measured hit ratio of the segment it
     would actually touch (navigation and extent scans read heap pages,
     a stitch reads its index's trees), so nav-vs-ASR choices flip
     correctly between cold and warm cache. *)
  let seg_ratio seg = Storage.Stats.segment_hit_ratio env.Core.Exec.stats seg in
  let nav =
    { plan = live_plan path ~i ~j dir;
      est_cost = QC.warmed (QC.qnas prof_q (qkind dir) i j) ~hit_ratio:(seg_ratio Storage.Heap.segment) }
  in
  let whole ipath off = off = 0 && Gom.Path.length ipath = Gom.Path.length path in
  let degraded = ref false in
  let supported =
    List.filter_map
      (fun a ->
        let ipath = Core.Asr.path a in
        match embedding_offset ~index_path:ipath ~query_path:path with
        | Some off when Core.Asr.supports a ~i:(off + i) ~j:(off + j) ->
          let pi = off + i and pj = off + j in
          let steps = Core.Exec.steps a dir ~i:pi ~j:pj in
          if not (stitch_usable_with indexes health a steps) then begin
            (* The index embeds the path and supports the range, but is
               quarantined over a partition this walk would visit: plan
               around it. *)
            degraded := true;
            None
          end
          else if not (index_usable ~env t a) then
            (* The trees are out of reach for this environment: version
               moved past a snapshot's pin, a frozen env without a mark,
               or pending deltas under Degrade.  Price the index out;
               the always-live plans below stay exact. *)
            None
          else begin
            let prof_i = if whole ipath off then prof_q else profile_in ~env t ipath in
            let dec = analytic_decomposition ipath (Core.Asr.decomposition a) in
            let est =
              QC.warmed
                (QC.qsup prof_i (Core.Asr.kind a) dec (qkind dir) pi pj)
                ~hit_ratio:(seg_ratio (Core.Asr.seg a))
            in
            Some
              { plan = Plan.Stitch { index = a; dir; i = pi; j = pj; steps }; est_cost = est }
          end
        | _ -> None)
      indexes
  in
  if !degraded then Storage.Stats.note env.Core.Exec.stats Fallback;
  (* Cheapest first; on a cost tie a supported plan beats navigation
     (matching equation 35's dispatch when the model cannot separate
     them). *)
  let rank (c : candidate) = match c.plan with Plan.Stitch _ -> 0 | _ -> 1 in
  List.sort
    (fun (a : candidate) (b : candidate) ->
      match Float.compare a.est_cost b.est_cost with
      | 0 -> Int.compare (rank a) (rank b)
      | c -> c)
    (nav :: supported)

let choose_aux ?env t path ~i ~j ~dir =
  check_range path ~i ~j;
  let key = { k_path = Gom.Path.to_string path; k_i = i; k_j = j; k_dir = dir } in
  let renv = resolve_env t env in
  let fp = warmth_fingerprint ~env:renv (with_lock t (fun () -> t.indexes)) in
  let hit =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.cache key with
        | Some e
          when e.e_generation = t.generation
               && e.e_warmth = fp
               && plan_live_with t.indexes t.health e.e_choice.chosen ->
          t.hits <- t.hits + 1;
          Some (e.e_choice, true)
        | stale ->
          if Option.is_some stale then begin
            Hashtbl.remove t.cache key;
            t.invalidations <- t.invalidations + 1
          end;
          t.misses <- t.misses + 1;
          None)
  in
  match hit with
  | Some r -> r
  | None ->
    (* Plan outside the lock, then re-check the generation before
       publishing: a plan priced against state that has since moved
       (concurrent register/unregister/quarantine/mutation) is returned
       to this caller but never cached, so no other domain can hit it. *)
    let gen0 = with_lock t (fun () -> t.generation) in
    let cands = candidates ?env t path ~i ~j ~dir in
    let best = List.hd cands in
    let choice = { chosen = best.plan; est_cost = best.est_cost; candidates = cands } in
    with_lock t (fun () ->
        if t.generation = gen0 then
          Hashtbl.replace t.cache key
            { e_choice = choice; e_generation = gen0; e_warmth = fp });
    (choice, false)

let choose ?env t path ~i ~j ~dir = fst (choose_aux ?env t path ~i ~j ~dir)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* The one plan interpreter behind every execution entry point:
   evaluate [plan] for every probe (source references forward, targets
   backward) within the current accounting operation.  A stitch walks
   the partitions once for the whole batch (Core.Exec.stitch); the
   always-live plans answer probe by probe.  Raises Stale_plan when the
   stitch's index is no longer registered, healthy or reachable. *)
let run_exn ~env t (plan : Plan.t) ~(dir : Plan.dir) probes =
  match (plan, dir) with
  | Stitch { index; dir = d; i; j; steps }, _ when d = dir ->
    if not (stitch_usable t index steps) then raise Stale_plan;
    with_index_trees ~env t index (fun () ->
        Core.Exec.stitch env index dir ~i ~j steps (Array.map (fun p -> [ p ]) probes))
  | Nav { path; i; j }, Fwd ->
    Array.map (fun p -> Core.Exec.forward_scan env path ~i ~j (Gom.Value.oid_exn p)) probes
  | Extent_scan { path; i; j }, Bwd ->
    Array.map
      (fun target ->
        Core.Exec.backward_scan env path ~i ~j ~target
        |> List.map (fun o -> Gom.Value.Ref o))
      probes
  | (Stitch _ | Nav _ | Extent_scan _), _ ->
    invalid_arg
      (Printf.sprintf "Engine.run: plan %s cannot answer a %s query" (Plan.to_string plan)
         (Plan.dir_to_string dir))

let to_oids vs = List.map Gom.Value.oid_exn vs

let run_one ?env t plan ~dir probe =
  let env = resolve_env t env in
  try (run_exn ~env t plan ~dir [| probe |]).(0)
  with Stale_plan ->
    invalid_arg "Engine.run: plan uses an unregistered or quarantined index"

let run_forward ?env t plan oid = run_one ?env t plan ~dir:Plan.Fwd (Gom.Value.Ref oid)

let run_backward ?env t plan ~target = to_oids (run_one ?env t plan ~dir:Plan.Bwd target)

(* Plan (cached) and evaluate [probes] as one accounting operation.  A
   chosen stitch can go stale between planning and execution when
   another domain races an unregister or a quarantine: the probes then
   degrade to the always-live plan, navigation or extent scan (one
   fallback recorded per probe, plans invalidated) — never a wrong
   answer, never a crashed query. *)
let execute ?env t path ~i ~j ~dir probes =
  let env = resolve_env t env in
  let c = choose ~env t path ~i ~j ~dir in
  Storage.Stats.begin_op env.Core.Exec.stats;
  try run_exn ~env t c.chosen ~dir probes
  with Stale_plan ->
    Array.iter (fun _ -> Storage.Stats.note env.Core.Exec.stats Fallback) probes;
    invalidate_plans t;
    run_exn ~env t (live_plan path ~i ~j dir) ~dir probes

let forward ?env t path ~i ~j oid =
  (execute ?env t path ~i ~j ~dir:Plan.Fwd [| Gom.Value.Ref oid |]).(0)

let backward ?env t path ~i ~j ~target =
  to_oids (execute ?env t path ~i ~j ~dir:Plan.Bwd [| target |]).(0)

(* Batches are deduplicated and answered in sorted probe order. *)
let forward_batch ?env t path ~i ~j oids =
  let probes = List.sort_uniq Gom.Oid.compare oids in
  let answers =
    execute ?env t path ~i ~j ~dir:Plan.Fwd
      (Array.of_list (List.map (fun o -> Gom.Value.Ref o) probes))
  in
  List.mapi (fun k o -> (o, answers.(k))) probes

let backward_batch ?env t path ~i ~j ~targets =
  let probes = List.sort_uniq Gom.Value.compare targets in
  let answers = execute ?env t path ~i ~j ~dir:Plan.Bwd (Array.of_list probes) in
  List.mapi (fun k v -> (v, to_oids answers.(k))) probes

(* ------------------------------------------------------------------ *)
(* Explain                                                             *)
(* ------------------------------------------------------------------ *)

type explanation = {
  x_path : Gom.Path.t;
  x_i : int;
  x_j : int;
  x_dir : Plan.dir;
  x_choice : choice;
  x_cached : bool;
  x_generation : int;
}

let explain t path ~i ~j ~dir =
  let choice, cached = choose_aux t path ~i ~j ~dir in
  {
    x_path = path;
    x_i = i;
    x_j = j;
    x_dir = dir;
    x_choice = choice;
    x_cached = cached;
    x_generation = generation t;
  }

let explanation_to_string x =
  let b = Buffer.create 256 in
  Printf.bprintf b "query : %s(%d,%d) over %s\n" (Plan.dir_to_string x.x_dir) x.x_i
    x.x_j
    (Gom.Path.to_string x.x_path);
  Printf.bprintf b "plan  : %s\n" (Plan.to_string x.x_choice.chosen);
  Printf.bprintf b "cost  : %.1f estimated page accesses\n" x.x_choice.est_cost;
  Printf.bprintf b "cache : %s (generation %d)\n"
    (if x.x_cached then "hit" else "miss")
    x.x_generation;
  (match x.x_choice.candidates with
  | [] | [ _ ] -> ()
  | _ :: rest ->
    Buffer.add_string b "also considered:\n";
    List.iter
      (fun (c : candidate) ->
        Printf.bprintf b "  est %8.1f  %s\n" c.est_cost (Plan.to_string c.plan))
      rest);
  Buffer.contents b
