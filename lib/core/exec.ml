type env = {
  view : Gom.Store_view.t;
  heap : Storage.Heap.t;
  stats : Storage.Stats.t;
  deadline : Deadline.t;
  marks : (int * int) list;
      (* (Asr.id, tree version) pinned at snapshot publication *)
}

let make_view ?stats ?buffer_pages ?deadline ?(marks = []) view heap =
  let stats =
    match (stats, buffer_pages) with
    | Some s, _ -> s
    | None, Some n when n > 0 -> Storage.Stats.create ~buffer_capacity:n ()
    | None, _ -> Storage.Stats.create ()
  in
  let deadline = match deadline with Some d -> d | None -> Deadline.none () in
  { view; heap; stats; deadline; marks }

let make ?stats ?buffer_pages ?deadline store heap =
  make_view ?stats ?buffer_pages ?deadline (Gom.Store_view.live store) heap

let live_store_exn env =
  match Gom.Store_view.live_store env.view with
  | Some s -> s
  | None -> invalid_arg "Exec: environment reads a frozen snapshot, not a live store"

let mark_for env id = List.assoc_opt id env.marks

let checkpoint env = Deadline.check env.deadline

let read_obj env oid =
  checkpoint env;
  Storage.Heap.read_object env.heap env.stats oid

let check_range path ~i ~j =
  let n = Gom.Path.length path in
  if not (0 <= i && i < j && j <= n) then
    invalid_arg (Printf.sprintf "Exec: invalid query range (%d,%d) for n=%d" i j n)

let sort_values vs = List.sort_uniq Gom.Value.compare vs

let sort_oids os = List.sort_uniq Gom.Oid.compare os

(* Values reachable at position [j] from object [oid] at position [p].
   Reads the pages of every object it dereferences an attribute of,
   i.e. positions p .. j-1 plus intermediate set instances. *)
let rec reach env path ~p ~j oid =
  if p >= j then [ Gom.Value.Ref oid ]
  else begin
    read_obj env oid;
    let step = Gom.Path.step path (p + 1) in
    match Gom.Store_view.get_attr env.view oid step.Gom.Path.attr with
    | Gom.Value.Null -> []
    | v -> (
      match step.Gom.Path.set_type with
      | None ->
        if p + 1 = j then [ v ]
        else reach env path ~p:(p + 1) ~j (Gom.Value.oid_exn v)
      | Some _ ->
        let set_oid = Gom.Value.oid_exn v in
        read_obj env set_oid;
        Gom.Store_view.elements env.view set_oid
        |> List.concat_map (fun e ->
               if p + 1 = j then [ e ]
               else reach env path ~p:(p + 1) ~j (Gom.Value.oid_exn e)))
  end

let forward_scan env path ~i ~j oid =
  check_range path ~i ~j;
  sort_values (reach env path ~p:i ~j oid)

let backward_scan env path ~i ~j ~target =
  check_range path ~i ~j;
  (* Memoised reachability test so that shared sub-objects are traversed
     (and their pages charged) once. *)
  let memo : (int * Gom.Oid.t, bool) Hashtbl.t = Hashtbl.create 1024 in
  let rec reaches p oid =
    match Hashtbl.find_opt memo (p, oid) with
    | Some r -> r
    | None ->
      let r =
        begin
          read_obj env oid;
          let step = Gom.Path.step path (p + 1) in
          match Gom.Store_view.get_attr env.view oid step.Gom.Path.attr with
          | Gom.Value.Null -> false
          | v -> (
            match step.Gom.Path.set_type with
            | None ->
              if p + 1 = j then Gom.Value.equal v target
              else reaches (p + 1) (Gom.Value.oid_exn v)
            | Some _ ->
              let set_oid = Gom.Value.oid_exn v in
              read_obj env set_oid;
              let elems = Gom.Store_view.elements env.view set_oid in
              if p + 1 = j then List.exists (Gom.Value.equal target) elems
              else
                List.exists (fun e -> reaches (p + 1) (Gom.Value.oid_exn e)) elems)
        end
      in
      Hashtbl.replace memo (p, oid) r;
      r
  in
  let sources = Gom.Store_view.extent ~deep:true env.view (Gom.Path.type_at path i) in
  sort_oids (List.filter (fun o -> reaches i o) sources)

(* ------------------------------------------------------------------ *)
(* Index-supported evaluation                                          *)
(* ------------------------------------------------------------------ *)

type dir = Fwd | Bwd

type step =
  | Lookup of { part : int; enter : int }
  | Scan of { part : int; enter : int }

(* Index of the partition whose clustering end matches [col] if any,
   else the one containing it: where a backward walk starts. *)
let part_ending index col =
  let rec go idx =
    if idx >= Asr.partition_count index then Asr.partition_index_of_column index col
    else if snd (Asr.partition_bounds index idx) = col then idx
    else go (idx + 1)
  in
  go 0

(* The column a walk enters the index at and the one it heads for. *)
let columns index dir ~i ~j =
  let path = Asr.path index in
  check_range path ~i ~j;
  let ci = Gom.Path.column_of_object_position path i in
  let cj = Gom.Path.column_of_object_position path j in
  match dir with Fwd -> (ci, cj) | Bwd -> (cj, ci)

(* The column a walk leaves the partition [lo, hi] at. *)
let exit_column dir (lo, hi) ~goal = match dir with Fwd -> min hi goal | Bwd -> max lo goal

let steps index dir ~i ~j =
  let start, goal = columns index dir ~i ~j in
  let rec go pidx cur acc =
    let ((lo, hi) as bounds) = Asr.partition_bounds index pidx in
    let interior = match dir with Fwd -> cur > lo | Bwd -> cur < hi in
    let s =
      if interior then Scan { part = pidx; enter = cur }
      else Lookup { part = pidx; enter = cur }
    in
    let stop = exit_column dir bounds ~goal in
    if stop = goal then List.rev (s :: acc)
    else go (match dir with Fwd -> pidx + 1 | Bwd -> pidx - 1) stop (s :: acc)
  in
  let first =
    match dir with
    | Fwd -> Asr.partition_index_of_column index start
    | Bwd -> part_ending index start
  in
  go first start []

let is_empty = function [] -> true | _ :: _ -> false

(* A partition visit's fetched rows, grouped by entry value: one
   (value, rows) pair per distinct value, in value order.  [find]
   returns the position of [key], or -1. *)
let rec search fetched key lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let c = Gom.Value.compare key (fst fetched.(mid)) in
    if c = 0 then mid
    else if c < 0 then search fetched key lo mid
    else search fetched key (mid + 1) hi

let find fetched key = search fetched key 0 (Array.length fetched)

(* An interior entry's semijoin: the scanned rows whose entry column
   holds a value of the round's frontier (the sorted union of every
   probe's), grouped like a key lookup's answer.  Each row costs one
   binary search, however many probes the round carries. *)
let semijoin rows col frontiers =
  let keys = sort_values (List.concat (Array.to_list frontiers)) in
  let fetched = Array.of_list (List.map (fun k -> (k, [])) keys) in
  List.iter
    (fun (row : Relation.Tuple.t) ->
      let k = find fetched row.(col) in
      if k >= 0 then
        let key, rows = fetched.(k) in
        fetched.(k) <- (key, row :: rows))
    rows;
  fetched

(* Fold rows straight into the exit-column accumulator, NULLs
   dropped. *)
let rec add_exits out acc = function
  | [] -> acc
  | (row : Relation.Tuple.t) :: rest ->
    let v = row.(out) in
    add_exits out (if Gom.Value.is_null v then acc else v :: acc) rest

let rec frontier_exits fetched out acc = function
  | [] -> acc
  | key :: rest ->
    let k = find fetched key in
    let acc = if k < 0 then acc else add_exits out acc (snd fetched.(k)) in
    frontier_exits fetched out acc rest

(* One partition visit for every probe at once: an interior entry scans
   the partition once and semijoins it with the round's frontier, a
   clustering-boundary entry is one sorted multi-key lookup whose probes
   share descents and leaf pages.  Either way each probe then gathers
   its exit values from the grouped rows. *)
let visit env index dir ~goal frontiers step =
  let stats = env.stats in
  let part, enter =
    match step with Lookup { part; enter } | Scan { part; enter } -> (part, enter)
  in
  let ((lo, _) as bounds) = Asr.partition_bounds index part in
  let fetched =
    match step with
    | Scan _ -> semijoin (Asr.scan_partition ~stats index part) (enter - lo) frontiers
    | Lookup _ ->
      let lookup_many =
        match dir with Fwd -> Asr.lookup_fwd_many | Bwd -> Asr.lookup_bwd_many
      in
      let keys = List.concat (Array.to_list frontiers) in
      Array.of_list (lookup_many ~stats index part keys)
  in
  let out = exit_column dir bounds ~goal - lo in
  Array.map
    (fun f -> if is_empty f then [] else sort_values (frontier_exits fetched out [] f))
    frontiers

let stitch env index dir ~i ~j steps frontiers =
  let _, goal = columns index dir ~i ~j in
  let rec go frontiers = function
    | [] -> frontiers
    | step :: rest ->
      (* Cancellation checkpoint between partition rounds: a whole
         round's descents and merges either happen or don't, so every
         frontier is still exact when Deadline.Expired propagates. *)
      checkpoint env;
      if Array.for_all is_empty frontiers then frontiers
      else go (visit env index dir ~goal frontiers step) rest
  in
  go frontiers steps

let supported env index dir ~i ~j probe =
  (stitch env index dir ~i ~j (steps index dir ~i ~j) [| [ probe ] |]).(0)

let forward_supported env index ~i ~j oid =
  supported env index Fwd ~i ~j (Gom.Value.Ref oid)

let backward_supported env index ~i ~j ~target =
  List.map Gom.Value.oid_exn (supported env index Bwd ~i ~j target)

let forward ?index env path ~i ~j oid =
  match index with
  | Some a when Asr.supports a ~i ~j && Gom.Path.equal (Asr.path a) path ->
    forward_supported env a ~i ~j oid
  | Some _ | None -> forward_scan env path ~i ~j oid

let backward ?index env path ~i ~j ~target =
  match index with
  | Some a when Asr.supports a ~i ~j && Gom.Path.equal (Asr.path a) path ->
    backward_supported env a ~i ~j ~target
  | Some _ | None -> backward_scan env path ~i ~j ~target
