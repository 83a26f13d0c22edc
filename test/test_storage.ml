(* Tests for Storage.Stats, Storage.Heap, Storage.Config and the
   Storage.Bptree point lookups. *)

module S = Storage.Stats
module H = Storage.Heap

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_config () =
  check_int "default page size" 4056 Storage.Config.default.Storage.Config.page_size;
  check_int "B+ fan-out" 338 (Storage.Config.bplus_fan Storage.Config.default);
  check "bad sizes rejected" true
    (try ignore (Storage.Config.make ~page_size:0 ()); false
     with Invalid_argument _ -> true)

let test_stats_distinct_counting () =
  let st = S.create () in
  S.begin_op st;
  S.read st 1;
  S.read st 1;
  S.read st 2;
  check_int "distinct reads" 2 (S.op_reads st);
  S.write st 1;
  S.write st 1;
  check_int "distinct writes" 1 (S.op_writes st);
  check_int "accesses" 3 (S.op_accesses st);
  S.begin_op st;
  check_int "op reset" 0 (S.op_reads st);
  S.read st 1;
  check_int "page countable again" 1 (S.op_reads st);
  check_int "totals accumulate" 3 (S.total_reads st);
  S.reset st;
  check_int "reset clears totals" 0 (S.total_reads st)

let test_buffer_pool_hits () =
  let st = S.create ~buffer_capacity:2 () in
  S.begin_op st;
  S.read st 1;
  S.read st 2;
  check_int "cold misses counted" 2 (S.op_reads st);
  S.begin_op st;
  S.read st 1;
  S.read st 2;
  check_int "warm reads free" 0 (S.op_reads st);
  check_int "hits recorded" 2 (S.buffer_hits st);
  (* Page 3 evicts the LRU page (1 was used before 2... both touched this
     op; 1 is older). *)
  S.read st 3;
  S.begin_op st;
  S.read st 1;
  check_int "evicted page is a miss again" 1 (S.op_reads st);
  check_int "capacity" 2 (S.buffer_capacity st)

let test_buffer_lru_order () =
  let st = S.create ~buffer_capacity:2 () in
  S.begin_op st;
  S.read st 1;
  S.read st 2;
  S.read st 1 (* touch 1: now 2 is the LRU *);
  S.begin_op st;
  S.read st 1 (* hit; refreshes 1 *);
  S.read st 3 (* evicts 2 *);
  S.begin_op st;
  S.read st 1;
  check_int "1 still resident" 0 (S.op_reads st);
  S.read st 2;
  check_int "2 was evicted" 1 (S.op_reads st)

let test_buffer_write_through () =
  let st = S.create ~buffer_capacity:4 () in
  S.begin_op st;
  S.write st 7;
  check_int "write counted" 1 (S.op_writes st);
  S.begin_op st;
  S.read st 7;
  check_int "written page resident" 0 (S.op_reads st)

let test_buffer_reset () =
  let st = S.create ~buffer_capacity:4 () in
  S.begin_op st;
  S.read st 1;
  S.reset st;
  S.begin_op st;
  S.read st 1;
  check_int "reset drops the pool" 1 (S.op_reads st)

let test_no_buffer_by_default () =
  let st = S.create () in
  S.begin_op st;
  S.read st 1;
  S.begin_op st;
  S.read st 1;
  check_int "cold across operations" 1 (S.op_reads st);
  check_int "no hits" 0 (S.buffer_hits st);
  check_int "capacity 0" 0 (S.buffer_capacity st)

let heap_setup ?(size = 500) () =
  let s = Gom.Schema.empty in
  let s = Gom.Schema.define_tuple s "Big" [ ("x", "INT") ] in
  let s = Gom.Schema.define_tuple s "Small" [ ("x", "INT") ] in
  let store = Gom.Store.create s in
  let heap =
    H.create ~size_of:(function "Big" -> size | _ -> 50) store
  in
  (store, heap)

let test_heap_packing () =
  let store, heap = heap_setup () in
  (* 4056 / 500 = 8 objects per page. *)
  let objs = List.init 20 (fun _ -> Gom.Store.new_object store "Big") in
  check_int "20 objects over 3 pages" 3 (H.pages_of_type heap "Big");
  check_int "opp" 8 (H.objects_per_page heap "Big");
  (* First 8 objects share the first page. *)
  let pages = List.map (H.page_of heap) objs in
  let first8 = List.filteri (fun i _ -> i < 8) pages in
  check "first 8 co-located" true
    (List.for_all (fun p -> p = List.hd first8) first8);
  check "9th elsewhere" true (List.nth pages 8 <> List.hd pages)

let test_heap_type_clustering () =
  let store, heap = heap_setup () in
  let big = Gom.Store.new_object store "Big" in
  let small = Gom.Store.new_object store "Small" in
  check "different type, different page" true
    (H.page_of heap big <> H.page_of heap small)

let test_heap_scan_and_read () =
  let store, heap = heap_setup () in
  let objs = List.init 20 (fun _ -> Gom.Store.new_object store "Big") in
  let st = S.create () in
  S.begin_op st;
  H.scan_extent heap st "Big";
  check_int "scan touches all pages" 3 (S.op_reads st);
  S.begin_op st;
  H.read_object heap st (List.hd objs);
  check_int "single object, one page" 1 (S.op_reads st)

let test_heap_large_objects () =
  let store, heap = heap_setup ~size:10000 () in
  let o = Gom.Store.new_object store "Big" in
  let st = S.create () in
  S.begin_op st;
  H.read_object heap st o;
  (* ceil(10000 / 4056) = 3 pages. *)
  check_int "spanning object" 3 (S.op_reads st)

let test_heap_deep_extent () =
  let s = Gom.Schema.empty in
  let s = Gom.Schema.define_tuple s "Base" [ ("x", "INT") ] in
  let s = Gom.Schema.define_tuple s "Derived" ~supertypes:[ "Base" ] [] in
  let store = Gom.Store.create s in
  let heap = H.create ~size_of:(fun _ -> 500) store in
  ignore (Gom.Store.new_object store "Base");
  ignore (Gom.Store.new_object store "Derived");
  check_int "shallow pages" 1 (H.pages_of_type heap "Base");
  check_int "deep pages include subtype extents" 2
    (H.pages_of_type ~deep:true heap "Base")

(* --- Buffer module mechanics (policy, pins, prefetch outcomes) --- *)

module B = Storage.Buffer

let test_buffer_clock_second_chance () =
  let b = B.create ~policy:B.Clock ~capacity:3 () in
  ignore (B.reference b 1);
  ignore (B.reference b 2);
  ignore (B.reference b 3);
  (* Admitting 4 sweeps the whole ring (clearing every ref bit) and
     evicts 1, the frame under the hand. *)
  (match B.reference b 4 with
  | B.Miss { evicted = true } -> ()
  | _ -> Alcotest.fail "expected an evicting miss");
  check "hand victim gone" false (B.mem b 1);
  (* Re-reference 2: its bit is set again, so the next eviction must
     give it a second chance and take 3 — even though 3 is behind 2 in
     hand order. *)
  ignore (B.reference b 2);
  ignore (B.reference b 5);
  check "second-chanced page survives" true (B.mem b 2);
  check "unreferenced page evicted" false (B.mem b 3);
  check "fresh admission resident" true (B.mem b 4)

let test_buffer_pin_nesting () =
  let b = B.create ~capacity:2 () in
  ignore (B.reference b 1);
  B.pin b 1;
  B.pin b 1 (* nested *);
  ignore (B.reference b 2);
  ignore (B.reference b 3) (* must evict 2, never pinned 1 *);
  check "pinned frame survives eviction" true (B.mem b 1);
  B.unpin b 1 (* one pin remains *);
  ignore (B.reference b 4);
  check "still pinned after one unpin" true (B.mem b 1);
  B.unpin b 1;
  ignore (B.reference b 5);
  ignore (B.reference b 6);
  check "fully unpinned frame evictable" false (B.mem b 1);
  B.unpin b 99 (* unknown frame: no-op *)

let test_buffer_all_pinned_overflows () =
  let b = B.create ~capacity:1 () in
  ignore (B.reference b 1);
  B.pin b 1;
  (match B.reference b 2 with
  | B.Miss { evicted = false } -> ()
  | _ -> Alcotest.fail "expected a non-evicting overflow miss");
  check "overflow admitted" true (B.mem b 2);
  check_int "transient overflow" 2 (B.resident b)

let test_buffer_prefetch_outcomes () =
  let b = B.create ~capacity:4 () in
  (match B.prefetch b 1 with
  | `Admitted false -> ()
  | _ -> Alcotest.fail "expected speculative admission");
  (match B.reference b 1 with
  | B.Prefetch_hit -> ()
  | _ -> Alcotest.fail "first demand read should be a prefetch hit");
  (match B.reference b 1 with
  | B.Hit -> ()
  | _ -> Alcotest.fail "later reads are plain hits");
  (match B.prefetch b 1 with
  | `Resident -> ()
  | _ -> Alcotest.fail "prefetching a resident page is a no-op")

let test_buffer_segment_namespacing () =
  let b = B.create ~capacity:4 () in
  ignore (B.reference b (B.key ~segment:0 1));
  (match B.reference b (B.key ~segment:1 1) with
  | B.Miss _ -> ()
  | _ -> Alcotest.fail "page 1 of another segment must be a distinct frame");
  check_int "two frames" 2 (B.resident b)

let test_stats_prefetch_accounting () =
  let st = S.create ~buffer_capacity:8 () in
  S.begin_op st;
  S.prefetch st [ 1; 2 ];
  check_int "prefetch pays physical I/O now" 2 (S.total_reads st);
  check_int "prefetched counted" 2 (S.snapshot st).S.s_prefetched;
  S.read st 1;
  check_int "demand read after prefetch is free" 2 (S.total_reads st);
  check_int "prefetch hit recorded" 1 (S.prefetch_hits st);
  check_int "logical reads still counted" 1 (S.logical_reads st);
  (* Within-operation repeats never reach the pool (distinct-page
     accounting); a fresh operation's read is a plain hit. *)
  S.begin_op st;
  S.read st 1;
  check_int "later demand read is a plain hit" 1 (S.buffer_hits st)

let test_stats_segment_hit_ratio () =
  let st = S.create ~buffer_capacity:8 () in
  let heap = S.segment "heap" and asr0 = S.segment "asr0" in
  (* Page 1 of the heap and page 1 of a tree pager are different pages:
     the pool must key frames by (segment, page).  Separate operations,
     because within-op distinct-page suppression is by raw identifier
     (preserving the unbuffered op_reads semantics). *)
  S.begin_op st;
  S.in_segment st heap (fun () -> S.read st 1);
  S.begin_op st;
  S.in_segment st asr0 (fun () -> S.read st 1);
  check_int "colliding ids in distinct segments both miss" 2 (S.buffer_misses st);
  S.begin_op st;
  S.in_segment st heap (fun () -> S.read st 1);
  (match S.segment_hit_ratio st heap with
  | Some r -> check "heap warmed to 1/2" true (abs_float (r -. 0.5) < 1e-9)
  | None -> Alcotest.fail "heap segment has traffic");
  (match S.segment_hit_ratio st asr0 with
  | Some r -> check "asr0 still cold" true (r < 1e-9)
  | None -> Alcotest.fail "asr0 segment has traffic");
  check "untouched segment has no ratio" true
    (S.segment_hit_ratio st (S.segment "asr99") = None)

(* --- Reclustering --- *)

let test_recluster_moves_and_occupancy () =
  let store, heap = heap_setup () in
  (* 8 Big objects (500B) per 4056B page: 20 objects over 3 pages. *)
  let objs = Array.of_list (List.init 20 (fun _ -> Gom.Store.new_object store "Big")) in
  let o_first = objs.(0) and o_last = objs.(19) in
  check "initially on different pages" true
    (H.page_of heap o_first <> H.page_of heap o_last);
  let outcome = H.recluster heap ~plan:[ [ o_first; o_last ] ] in
  check_int "considered" 2 outcome.H.rc_considered;
  check_int "moved" 2 outcome.H.rc_moved;
  check_int "one shared target page" 1 outcome.H.rc_target_pages;
  check "co-located after recluster" true
    (H.page_of heap o_first = H.page_of heap o_last);
  (* Occupancy, not bump areas, is the extent ground truth: the two
     source pages still hold survivors, plus the fresh target page. *)
  check_int "extent spans 4 pages now" 4 (H.pages_of_type heap "Big");
  let st = S.create () in
  S.begin_op st;
  H.scan_extent heap st "Big";
  check_int "scan touches occupancy pages" 4 (S.op_reads st);
  match H.recluster_progress heap with
  | Some (moved, planned) ->
    check_int "progress moved" 2 moved;
    check_int "progress planned" 2 planned
  | None -> Alcotest.fail "progress visible after a run"

let test_recluster_slices_and_abort () =
  let store, heap = heap_setup () in
  let objs = Array.of_list (List.init 20 (fun _ -> Gom.Store.new_object store "Big")) in
  let plan = [ [ objs.(0); objs.(10) ]; [ objs.(1); objs.(11) ] ] in
  let job = H.recluster_start ~slice:1 heap ~plan in
  check "job active" true (H.recluster_active heap);
  check "second start rejected" true
    (try ignore (H.recluster_start heap ~plan); false
     with Invalid_argument _ -> true);
  (match H.recluster_step job with
  | `More -> ()
  | `Done _ -> Alcotest.fail "4 moves at slice 1 need several steps");
  H.recluster_abort job;
  check "abort deactivates" false (H.recluster_active heap);
  (* The already-applied move stays; the rest of the plan was dropped. *)
  (match H.recluster_progress heap with
  | Some (moved, planned) ->
    check_int "one slice applied" 1 moved;
    check_int "planned recorded" 4 planned
  | None -> Alcotest.fail "progress visible after abort");
  (* A fresh job can start after the abort and runs to completion. *)
  let outcome = H.recluster heap ~plan:[ [ objs.(2); objs.(12) ] ] in
  check_int "post-abort job moves" 2 outcome.H.rc_moved

let test_recluster_skips_deleted_and_large () =
  let store, heap = heap_setup () in
  let small_a = Gom.Store.new_object store "Big" in
  let small_b = Gom.Store.new_object store "Big" in
  let doomed = Gom.Store.new_object store "Big" in
  (* A second type sized over a page: its objects span several pages and
     must never be moved. *)
  let s = Gom.Store.schema store in
  ignore s;
  let job = H.recluster_start ~slice:64 heap ~plan:[ [ small_a; small_b; doomed ] ] in
  Gom.Store.delete store doomed;
  (match H.recluster_step job with
  | `Done o ->
    check_int "deleted object skipped" 2 o.H.rc_moved;
    check_int "plan named three" 3 o.H.rc_considered
  | `More -> Alcotest.fail "single slice covers the plan");
  check "survivors co-located" true (H.page_of heap small_a = H.page_of heap small_b)

let test_recluster_large_objects_stay () =
  let store, heap = heap_setup ~size:10000 () in
  let a = Gom.Store.new_object store "Big" in
  let b = Gom.Store.new_object store "Big" in
  let p_a = H.page_of heap a in
  let outcome = H.recluster heap ~plan:[ [ a; b ] ] in
  check_int "multi-page objects never move" 0 outcome.H.rc_moved;
  check_int "placement untouched" p_a (H.page_of heap a);
  check_int "span untouched" 3 (H.span_of heap a)

let test_heap_delete_forgets () =
  let store, heap = heap_setup () in
  let o = Gom.Store.new_object store "Big" in
  Gom.Store.delete store o;
  check "placement dropped" true
    (try ignore (H.page_of heap o); false with Not_found -> true)

(* ---- B+-tree point lookups against a scan-and-filter reference ---- *)

(* page_size 64, tuple 16 bytes -> 4 tuples per leaf, so runs of one key
   span several leaves. *)
let lookup_tree () =
  Storage.Bptree.create
    ~config:(Storage.Config.make ~page_size:64 ~oid_size:8 ~pp_size:4 ())
    ~pager:(Storage.Pager.create ()) ~tuple_bytes:16
    ~key_of:(fun tup -> tup.(0))

let ref_tup a b = [| Gom.Value.Ref (Gom.Oid.of_int a); Gom.Value.Ref (Gom.Oid.of_int b) |]

let prop_lookup_many_matches_scan =
  let open QCheck in
  let pairs n = list_of_size Gen.(int_range 0 n) (pair (int_bound 12) (int_bound 20)) in
  QCheck.Test.make ~count:200
    ~name:"Bptree.lookup_many and lookup = scan-and-filter reference"
    (quad (pairs 80) (pairs 40)
       (list_of_size Gen.(int_range 0 4) (int_bound 12))
       (list_of_size Gen.(int_range 0 20) (int_range (-1) 14)))
    (fun (loaded, removed, emptied, queried) ->
      let module BT = Storage.Bptree in
      let t = lookup_tree () in
      (* Few keys and many tuples: duplicate runs (and repeated tuples,
         which accumulate reference counts) span several leaves. *)
      BT.bulk_load t (List.map (fun (a, b) -> ref_tup a b) loaded);
      (* Scattered deletions leave holes and under-full leaves... *)
      List.iter (fun (a, b) -> BT.remove t (ref_tup a b)) removed;
      (* ...and dropping whole key runs empties and unlinks leaves. *)
      List.iter
        (fun a ->
          List.iter
            (fun tup ->
              if Gom.Value.equal tup.(0) (Gom.Value.Ref (Gom.Oid.of_int a)) then
                while BT.mem t tup do
                  BT.remove t tup
                done)
            (BT.scan t))
        emptied;
      let keys = List.map (fun k -> Gom.Value.Ref (Gom.Oid.of_int k)) queried in
      let reference k = List.filter (fun tup -> Gom.Value.equal tup.(0) k) (BT.scan t) in
      let expected =
        List.map (fun k -> (k, reference k)) (List.sort_uniq Gom.Value.compare keys)
      in
      let stats = S.create ~buffer_capacity:2 () in
      BT.lookup_many t keys = expected
      && BT.lookup_many ~stats t keys = expected
      && List.for_all (fun k -> BT.lookup t k = reference k) keys)

(* Pins every key of [summary_to_json], its position and the counter
   behind it: counter number k (in key order) is noted k+1 times, so
   every counter's value differs and a swapped key changes the string.
   The literal is the output of the hand-written per-counter summary
   that the counter table replaced. *)
let test_summary_json_golden () =
  let st = S.create ~buffer_capacity:2 () in
  S.begin_op st;
  S.prefetch st [ 7; 8 ];
  S.read st 7;
  S.read st 1;
  S.read st 2;
  S.write st 3;
  S.begin_op st;
  S.read st 2;
  S.read st 4;
  S.write st 5;
  S.write st 6;
  List.iteri
    (fun k c ->
      for _ = 0 to k do
        S.note st c
      done)
    S.
      [
        Scrub; Fallback; Retry; Delta_buffered; Delta_merged; Delta_annihilated;
        Delta_flushed; Catchup_flush; Freshness_degradation; Shed; Timed_out;
        Breaker_open; Stale_epoch_served; Frame_shipped; Frame_applied;
        Frame_dropped; Frame_retried; Shard_grouped; Shard_scatter;
      ];
  Alcotest.(check string)
    "summary JSON"
    {|{"op_reads": 1, "op_writes": 2, "total_reads": 5, "total_writes": 3, "total_accesses": 8, "logical_reads": 5, "logical_writes": 3, "buffer_hits": 1, "buffer_misses": 3, "buffer_evictions": 6, "prefetched": 2, "prefetch_hits": 1, "buffer_hit_ratio": 0.2000, "buffer_capacity": 2, "scrubs": 1, "fallbacks": 2, "retries": 3, "deltas_buffered": 4, "deltas_merged": 5, "deltas_annihilated": 6, "deltas_flushed": 7, "catchup_flushes": 8, "freshness_degradations": 9, "shed": 10, "timed_out": 11, "breaker_open": 12, "stale_epoch_served": 13, "frames_shipped": 14, "frames_applied": 15, "frames_dropped": 16, "frames_retried": 17, "shard_grouped": 18, "shard_scatter": 19, "mode": "x"}|}
    (S.summary_to_json ~extra:[ ("mode", {|"x"|}) ] (S.snapshot st))

(* --- Buffer model equivalence --- *)

(* The pool as it was before the slot arrays: a hash table of frames,
   an O(capacity) scan for the minimum stamp under LRU and a queue of
   keys as the clock ring.  The slot-array pool must agree with it on
   every outcome, on [mem] and on [resident] after every step. *)
module Model = struct
  type frame = {
    mutable stamp : int;
    mutable refbit : bool;
    mutable pins : int;
    mutable prefetched : bool;
  }

  type t = {
    capacity : int;
    pol : B.policy;
    frames : (int, frame) Hashtbl.t;
    ring : int Queue.t;
    mutable clock : int;
  }

  let create pol capacity =
    { capacity; pol; frames = Hashtbl.create 16; ring = Queue.create (); clock = 0 }

  let touch t f =
    t.clock <- t.clock + 1;
    f.stamp <- t.clock;
    f.refbit <- true

  let evict_lru t =
    let victim = ref None in
    Hashtbl.iter
      (fun k f ->
        if f.pins = 0 then
          match !victim with
          | Some (_, s) when s <= f.stamp -> ()
          | _ -> victim := Some (k, f.stamp))
      t.frames;
    match !victim with
    | Some (k, _) ->
      Hashtbl.remove t.frames k;
      true
    | None -> false

  let evict_clock t =
    let budget = ref (2 * (Queue.length t.ring + 1)) in
    let victim = ref None in
    while !victim = None && !budget > 0 && not (Queue.is_empty t.ring) do
      decr budget;
      let k = Queue.pop t.ring in
      match Hashtbl.find_opt t.frames k with
      | None -> ()
      | Some f ->
        if f.pins > 0 then Queue.push k t.ring
        else if f.refbit then begin
          f.refbit <- false;
          Queue.push k t.ring
        end
        else begin
          Hashtbl.remove t.frames k;
          victim := Some k
        end
    done;
    !victim <> None

  let add t k ~prefetched =
    let f = { stamp = 0; refbit = false; pins = 0; prefetched } in
    touch t f;
    Hashtbl.replace t.frames k f;
    if t.pol = B.Clock then Queue.push k t.ring;
    f

  let admit t k ~prefetched =
    let evicted =
      Hashtbl.length t.frames >= t.capacity
      && match t.pol with B.Lru -> evict_lru t | B.Clock -> evict_clock t
    in
    ignore (add t k ~prefetched);
    evicted

  let reference t k =
    match Hashtbl.find_opt t.frames k with
    | Some f ->
      touch t f;
      if f.prefetched then begin
        f.prefetched <- false;
        B.Prefetch_hit
      end
      else B.Hit
    | None -> B.Miss { evicted = admit t k ~prefetched:false }

  let prefetch t k =
    match Hashtbl.find_opt t.frames k with
    | Some f ->
      touch t f;
      `Resident
    | None -> `Admitted (admit t k ~prefetched:true)

  let pin t k =
    let f =
      match Hashtbl.find_opt t.frames k with
      | Some f -> f
      | None -> add t k ~prefetched:false
    in
    f.pins <- f.pins + 1

  let unpin t k =
    match Hashtbl.find_opt t.frames k with
    | Some f when f.pins > 0 -> f.pins <- f.pins - 1
    | Some _ | None -> ()

  let reset t =
    Hashtbl.reset t.frames;
    Queue.clear t.ring;
    t.clock <- 0
end

type pool_op = Reference of int | Prefetch of int | Pin of int | Unpin of int | Reset

let pool_op_to_string = function
  | Reference k -> Printf.sprintf "ref %d" k
  | Prefetch k -> Printf.sprintf "prefetch %d" k
  | Pin k -> Printf.sprintf "pin %d" k
  | Unpin k -> Printf.sprintf "unpin %d" k
  | Reset -> "reset"

(* A stream over capacities {1, 2, 3, 8, 64}, both policies and keys
   drawn from about twice the capacity.  Pin-heavy streams start by
   pinning more distinct pages than there are frames, so every frame is
   pinned and the pool overflows (growing the slot arrays). *)
let pool_stream_gen =
  let open QCheck.Gen in
  let* capacity = oneofl [ 1; 2; 3; 8; 64 ] in
  let* policy = oneofl [ B.Lru; B.Clock ] in
  let* pin_heavy = bool in
  let keys = (2 * capacity) + 2 in
  let key = int_bound (keys - 1) in
  let pin_w = if pin_heavy then 4 else 1 in
  let op =
    frequency
      [
        (8, map (fun k -> Reference k) key);
        (3, map (fun k -> Prefetch k) key);
        (pin_w, map (fun k -> Pin k) key);
        (2, map (fun k -> Unpin k) key);
        (1, return Reset);
      ]
  in
  let* n = int_range 0 300 in
  let* ops = list_repeat n op in
  let saturate = if pin_heavy then List.init (capacity + 3) (fun k -> Pin k) else [] in
  return (capacity, policy, keys, saturate @ ops)

let prop_buffer_matches_model =
  QCheck.Test.make
    ~count:(Test_maintenance_batch.iters_env "ASR_MAINT_COUNT" 200)
    ~name:"Buffer = minimum-stamp LRU / queue clock model"
    (QCheck.make pool_stream_gen ~print:(fun (capacity, policy, _, ops) ->
         Printf.sprintf "capacity %d, %s: %s" capacity
           (match policy with B.Lru -> "lru" | B.Clock -> "clock")
           (String.concat "; " (List.map pool_op_to_string ops))))
    (fun (capacity, policy, keys, ops) ->
      let b = B.create ~policy ~capacity () and m = Model.create policy capacity in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Reference k -> B.reference b k = Model.reference m k
            | Prefetch k -> B.prefetch b k = Model.prefetch m k
            | Pin k ->
              B.pin b k;
              Model.pin m k;
              true
            | Unpin k ->
              B.unpin b k;
              Model.unpin m k;
              true
            | Reset ->
              B.reset b;
              Model.reset m;
              true
          in
          same
          && B.resident b = Hashtbl.length m.Model.frames
          && List.for_all
               (fun k -> B.mem b k = Hashtbl.mem m.Model.frames k)
               (List.init keys Fun.id))
        ops)

let test_stats_reset_in_segment () =
  let st = S.create ~buffer_capacity:4 () in
  let seg = S.segment "reset-in-segment" in
  S.in_segment st seg (fun () ->
      S.begin_op st;
      S.read st 1;
      S.reset st;
      (* The pool is empty again: one miss, then one hit. *)
      S.begin_op st;
      S.read st 1;
      S.begin_op st;
      S.read st 1);
  match S.segment_hit_ratio st seg with
  | Some r -> check "tally restarted at reset" true (abs_float (r -. 0.5) < 1e-9)
  | None -> Alcotest.fail "the active segment lost its tally at reset"

(* --- Allocation --- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_resident_read_allocates_nothing () =
  let st = S.create ~buffer_capacity:8 () in
  S.begin_op st;
  S.read st 1;
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          S.begin_op st;
          S.read st 1
        done)
  in
  check_int "buffer hits" 1000 (S.buffer_hits st);
  check "1000 buffered reads of a resident page allocate nothing" true (words = 0.)

let test_unbuffered_heap_read_allocates_nothing () =
  let store, heap = heap_setup () in
  let o = Gom.Store.new_object store "Big" in
  let st = S.create () in
  (* The first read registers the heap segment's tally. *)
  H.read_object heap st o;
  let words =
    minor_words (fun () ->
        for _ = 1 to 1000 do
          S.begin_op st;
          H.read_object heap st o
        done)
  in
  check_int "every read charged" 1001 (S.total_reads st);
  check "1000 unbuffered object reads allocate nothing" true (words = 0.)

(* Words for 1000 reads of fresh pages into a full pool, each an
   evicting miss. *)
let evicting_miss_words capacity =
  let st = S.create ~buffer_capacity:capacity () in
  for page = 0 to capacity - 1 do
    S.begin_op st;
    S.read st page
  done;
  let words =
    minor_words (fun () ->
        for i = 0 to 999 do
          S.begin_op st;
          S.read st (capacity + i)
        done)
  in
  check_int "every read evicted" 1000 (S.buffer_evictions st);
  words

let test_eviction_cost_flat () =
  let small = evicting_miss_words 16 and large = evicting_miss_words 4096 in
  check
    (Printf.sprintf "evicting misses allocate the same at 16 and 4096 frames (%.0f vs %.0f words)"
       small large)
    true (small = large)

let suite =
  [
    Alcotest.test_case "config" `Quick test_config;
    Alcotest.test_case "stats distinct counting" `Quick test_stats_distinct_counting;
    Alcotest.test_case "buffer pool hits" `Quick test_buffer_pool_hits;
    Alcotest.test_case "buffer LRU order" `Quick test_buffer_lru_order;
    Alcotest.test_case "buffer write-through" `Quick test_buffer_write_through;
    Alcotest.test_case "buffer reset" `Quick test_buffer_reset;
    Alcotest.test_case "no buffer by default" `Quick test_no_buffer_by_default;
    Alcotest.test_case "heap packing" `Quick test_heap_packing;
    Alcotest.test_case "heap type clustering" `Quick test_heap_type_clustering;
    Alcotest.test_case "heap scans and reads" `Quick test_heap_scan_and_read;
    Alcotest.test_case "large objects span pages" `Quick test_heap_large_objects;
    Alcotest.test_case "deep extents" `Quick test_heap_deep_extent;
    Alcotest.test_case "deletion forgets placement" `Quick test_heap_delete_forgets;
    Alcotest.test_case "buffer clock second chance" `Quick test_buffer_clock_second_chance;
    Alcotest.test_case "buffer pin nesting" `Quick test_buffer_pin_nesting;
    Alcotest.test_case "buffer all-pinned overflow" `Quick test_buffer_all_pinned_overflows;
    Alcotest.test_case "buffer prefetch outcomes" `Quick test_buffer_prefetch_outcomes;
    Alcotest.test_case "buffer segment namespacing" `Quick test_buffer_segment_namespacing;
    Alcotest.test_case "stats prefetch accounting" `Quick test_stats_prefetch_accounting;
    Alcotest.test_case "stats segment hit ratio" `Quick test_stats_segment_hit_ratio;
    Alcotest.test_case "stats reset inside a segment" `Quick test_stats_reset_in_segment;
    Qc.to_alcotest prop_buffer_matches_model;
    Alcotest.test_case "resident read allocates nothing" `Quick
      test_resident_read_allocates_nothing;
    Alcotest.test_case "unbuffered heap read allocates nothing" `Quick
      test_unbuffered_heap_read_allocates_nothing;
    Alcotest.test_case "evicting miss cost flat in capacity" `Quick test_eviction_cost_flat;
    Alcotest.test_case "stats summary JSON golden" `Quick test_summary_json_golden;
    Alcotest.test_case "recluster moves and occupancy" `Quick
      test_recluster_moves_and_occupancy;
    Alcotest.test_case "recluster slices and abort" `Quick test_recluster_slices_and_abort;
    Alcotest.test_case "recluster skips deleted" `Quick test_recluster_skips_deleted_and_large;
    Alcotest.test_case "recluster leaves large objects" `Quick
      test_recluster_large_objects_stay;
    Qc.to_alcotest prop_lookup_many_matches_scan;
  ]
