(* Page-access accounting with an optional buffer pool.

   Accounting is split in two ledgers:

   - {e logical} reads/writes: every distinct-per-operation page request,
     counted identically whether or not a pool is attached (capacity 0
     and capacity N agree by construction — the buffered/unbuffered
     oracle in the test suite leans on this);
   - {e physical} reads/writes ([op_reads] / [total_reads] and the write
     twins): the requests the pool could not absorb — what actually hits
     secondary storage.  Without a pool, physical = logical (the paper's
     cold model).

   Frames are keyed by (segment, page): heap pages and every ASR's tree
   pages come from independent pagers whose identifiers collide, so the
   active segment (dynamically scoped via [in_segment]) namespaces the
   pool and carries per-segment hit/miss tallies for buffer-aware plan
   pricing. *)

type seg_counts = { mutable sh : int; mutable sm : int }

type t = {
  mutable op_reads : int;
  mutable op_writes : int;
  mutable total_reads : int;
  mutable total_writes : int;
  mutable op_logical_reads : int;
  mutable op_logical_writes : int;
  mutable logical_reads : int;
  mutable logical_writes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable prefetched : int;
  mutable prefetch_hits : int;
  mutable scrubs : int;
  mutable fallbacks : int;
  mutable retries : int;
  mutable deltas_buffered : int;
  mutable deltas_merged : int;
  mutable deltas_annihilated : int;
  mutable deltas_flushed : int;
  mutable catchup_flushes : int;
  mutable freshness_degradations : int;
  mutable shed : int;
  mutable timed_out : int;
  mutable breaker_open : int;
  mutable stale_epoch_served : int;
  mutable frames_shipped : int;
  mutable frames_applied : int;
  mutable frames_dropped : int;
  mutable frames_retried : int;
  mutable shard_grouped : int;
  mutable shard_scatter : int;
  touched_r : (int, unit) Hashtbl.t;
  touched_w : (int, unit) Hashtbl.t;
  pool : Buffer.t option;
  mutable seg : string;  (* active segment; "" outside any [in_segment] *)
  segs : (string, seg_counts) Hashtbl.t;
}

let create ?(buffer_capacity = 0) ?buffer_policy () =
  {
    op_reads = 0;
    op_writes = 0;
    total_reads = 0;
    total_writes = 0;
    op_logical_reads = 0;
    op_logical_writes = 0;
    logical_reads = 0;
    logical_writes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    prefetched = 0;
    prefetch_hits = 0;
    scrubs = 0;
    fallbacks = 0;
    retries = 0;
    deltas_buffered = 0;
    deltas_merged = 0;
    deltas_annihilated = 0;
    deltas_flushed = 0;
    catchup_flushes = 0;
    freshness_degradations = 0;
    shed = 0;
    timed_out = 0;
    breaker_open = 0;
    stale_epoch_served = 0;
    frames_shipped = 0;
    frames_applied = 0;
    frames_dropped = 0;
    frames_retried = 0;
    shard_grouped = 0;
    shard_scatter = 0;
    touched_r = Hashtbl.create 256;
    touched_w = Hashtbl.create 64;
    pool =
      (if buffer_capacity > 0 then
         Some (Buffer.create ?policy:buffer_policy ~capacity:buffer_capacity ())
       else None);
    seg = "";
    segs = Hashtbl.create 8;
  }

let begin_op t =
  t.op_reads <- 0;
  t.op_writes <- 0;
  t.op_logical_reads <- 0;
  t.op_logical_writes <- 0;
  Hashtbl.reset t.touched_r;
  Hashtbl.reset t.touched_w

let in_segment t seg f =
  let prev = t.seg in
  t.seg <- seg;
  Fun.protect ~finally:(fun () -> t.seg <- prev) f

let seg_counts t seg =
  match Hashtbl.find_opt t.segs seg with
  | Some c -> c
  | None ->
    let c = { sh = 0; sm = 0 } in
    Hashtbl.add t.segs seg c;
    c

let read t page =
  if not (Hashtbl.mem t.touched_r page) then begin
    Hashtbl.add t.touched_r page ();
    t.op_logical_reads <- t.op_logical_reads + 1;
    t.logical_reads <- t.logical_reads + 1;
    match t.pool with
    | None ->
      t.op_reads <- t.op_reads + 1;
      t.total_reads <- t.total_reads + 1
    | Some b -> (
      let c = seg_counts t t.seg in
      match Buffer.reference b (t.seg, page) with
      | Buffer.Hit ->
        t.hits <- t.hits + 1;
        c.sh <- c.sh + 1
      | Buffer.Prefetch_hit ->
        (* The I/O was already paid by the prefetch; warmth-wise this is
           a miss the prefetcher hid, not evidence of a hot page. *)
        t.prefetch_hits <- t.prefetch_hits + 1;
        c.sm <- c.sm + 1
      | Buffer.Miss { evicted } ->
        t.misses <- t.misses + 1;
        t.op_reads <- t.op_reads + 1;
        t.total_reads <- t.total_reads + 1;
        if evicted then t.evictions <- t.evictions + 1;
        c.sm <- c.sm + 1)
  end

let write t page =
  if not (Hashtbl.mem t.touched_w page) then begin
    Hashtbl.add t.touched_w page ();
    t.op_logical_writes <- t.op_logical_writes + 1;
    t.logical_writes <- t.logical_writes + 1;
    (* Write-through: every distinct write reaches storage, pool or not;
       the written page enters the pool so later reads of it hit. *)
    t.op_writes <- t.op_writes + 1;
    t.total_writes <- t.total_writes + 1;
    match t.pool with
    | None -> ()
    | Some b -> (
      match Buffer.reference b (t.seg, page) with
      | Buffer.Miss { evicted = true } -> t.evictions <- t.evictions + 1
      | Buffer.Miss { evicted = false } | Buffer.Hit | Buffer.Prefetch_hit -> ())
  end

let prefetch t pages =
  match t.pool with
  | None -> () (* prefetching into no pool is meaningless *)
  | Some b ->
    (* Two guards keep buffered physical I/O <= the unbuffered run's on
       every workload (property-tested) — speculation must never cost
       more than it saves:
       - skip pages this operation already touched: their upcoming
         demand reads are suppressed by distinct-page accounting (the
         touched set is raw-id keyed, preserving unbuffered op counts),
         so a staged frame could never be referenced;
       - bound the staging by the pool size: more pages than frames
         exist would evict prefetched-but-unread frames (a 1-frame pool
         would thrash). *)
    let pages = List.filter (fun p -> not (Hashtbl.mem t.touched_r p)) pages in
    let rec take n = function
      | p :: tl when n > 0 -> p :: take (n - 1) tl
      | _ -> []
    in
    let pages = take (Buffer.capacity b) pages in
    List.iter
      (fun page ->
        match Buffer.prefetch b (t.seg, page) with
        | `Resident -> ()
        | `Admitted evicted ->
          (* Speculative fetch: physical I/O paid now, charged to the
             operation that issued the prefetch. *)
          t.prefetched <- t.prefetched + 1;
          t.op_reads <- t.op_reads + 1;
          t.total_reads <- t.total_reads + 1;
          if evicted then t.evictions <- t.evictions + 1)
      pages

let pin_page t page =
  match t.pool with Some b -> Buffer.pin b (t.seg, page) | None -> ()

let unpin_page t page =
  match t.pool with Some b -> Buffer.unpin b (t.seg, page) | None -> ()

let op_reads t = t.op_reads
let op_writes t = t.op_writes
let op_accesses t = t.op_reads + t.op_writes
let total_reads t = t.total_reads
let total_writes t = t.total_writes
let total_accesses t = t.total_reads + t.total_writes
let op_logical_reads t = t.op_logical_reads
let op_logical_writes t = t.op_logical_writes
let logical_reads t = t.logical_reads
let logical_writes t = t.logical_writes
let buffer_hits t = t.hits
let buffer_misses t = t.misses
let buffer_evictions t = t.evictions
let prefetched t = t.prefetched
let prefetch_hits t = t.prefetch_hits
let buffer_capacity t = match t.pool with Some b -> Buffer.capacity b | None -> 0
let has_buffer t = t.pool <> None

let hit_ratio t =
  let denom = t.hits + t.misses + t.prefetch_hits in
  if t.pool = None || denom = 0 then None
  else Some (float_of_int t.hits /. float_of_int denom)

let segment_hit_ratio t seg =
  if t.pool = None then None
  else
    match Hashtbl.find_opt t.segs seg with
    | Some c when c.sh + c.sm > 0 ->
      Some (float_of_int c.sh /. float_of_int (c.sh + c.sm))
    | Some _ | None -> None

let note_scrub t = t.scrubs <- t.scrubs + 1
let note_fallback t = t.fallbacks <- t.fallbacks + 1
let note_retry t = t.retries <- t.retries + 1
let scrubs t = t.scrubs
let fallbacks t = t.fallbacks
let retries t = t.retries

let note_delta_buffered t = t.deltas_buffered <- t.deltas_buffered + 1
let note_delta_merged t = t.deltas_merged <- t.deltas_merged + 1
let note_delta_annihilated t = t.deltas_annihilated <- t.deltas_annihilated + 1
let note_deltas_flushed t n = t.deltas_flushed <- t.deltas_flushed + n
let note_catchup_flush t = t.catchup_flushes <- t.catchup_flushes + 1
let note_freshness_degradation t =
  t.freshness_degradations <- t.freshness_degradations + 1

let note_shed t = t.shed <- t.shed + 1
let note_timed_out t = t.timed_out <- t.timed_out + 1
let note_breaker_open t = t.breaker_open <- t.breaker_open + 1
let note_stale_epoch_served t = t.stale_epoch_served <- t.stale_epoch_served + 1
let note_frame_shipped t = t.frames_shipped <- t.frames_shipped + 1
let note_frame_applied t = t.frames_applied <- t.frames_applied + 1
let note_frame_dropped t = t.frames_dropped <- t.frames_dropped + 1
let note_frame_retried t = t.frames_retried <- t.frames_retried + 1
let frames_shipped t = t.frames_shipped
let frames_applied t = t.frames_applied
let frames_dropped t = t.frames_dropped
let frames_retried t = t.frames_retried

let note_shard_grouped t = t.shard_grouped <- t.shard_grouped + 1
let note_shard_scatter t = t.shard_scatter <- t.shard_scatter + 1

let shed t = t.shed
let timed_out t = t.timed_out
let breaker_open t = t.breaker_open
let stale_epoch_served t = t.stale_epoch_served

let deltas_buffered t = t.deltas_buffered
let deltas_merged t = t.deltas_merged
let deltas_annihilated t = t.deltas_annihilated
let deltas_flushed t = t.deltas_flushed
let catchup_flushes t = t.catchup_flushes
let freshness_degradations t = t.freshness_degradations

type summary = {
  s_op_reads : int;
  s_op_writes : int;
  s_total_reads : int;
  s_total_writes : int;
  s_logical_reads : int;
  s_logical_writes : int;
  s_buffer_hits : int;
  s_buffer_misses : int;
  s_buffer_evictions : int;
  s_prefetched : int;
  s_prefetch_hits : int;
  s_buffer_capacity : int;
  s_scrubs : int;
  s_fallbacks : int;
  s_retries : int;
  s_deltas_buffered : int;
  s_deltas_merged : int;
  s_deltas_annihilated : int;
  s_deltas_flushed : int;
  s_catchup_flushes : int;
  s_freshness_degradations : int;
  s_shed : int;
  s_timed_out : int;
  s_breaker_open : int;
  s_stale_epoch_served : int;
  s_frames_shipped : int;
  s_frames_applied : int;
  s_frames_dropped : int;
  s_frames_retried : int;
  s_shard_grouped : int;
  s_shard_scatter : int;
}

let snapshot t =
  {
    s_op_reads = t.op_reads;
    s_op_writes = t.op_writes;
    s_total_reads = t.total_reads;
    s_total_writes = t.total_writes;
    s_logical_reads = t.logical_reads;
    s_logical_writes = t.logical_writes;
    s_buffer_hits = t.hits;
    s_buffer_misses = t.misses;
    s_buffer_evictions = t.evictions;
    s_prefetched = t.prefetched;
    s_prefetch_hits = t.prefetch_hits;
    s_buffer_capacity = buffer_capacity t;
    s_scrubs = t.scrubs;
    s_fallbacks = t.fallbacks;
    s_retries = t.retries;
    s_deltas_buffered = t.deltas_buffered;
    s_deltas_merged = t.deltas_merged;
    s_deltas_annihilated = t.deltas_annihilated;
    s_deltas_flushed = t.deltas_flushed;
    s_catchup_flushes = t.catchup_flushes;
    s_freshness_degradations = t.freshness_degradations;
    s_shed = t.shed;
    s_timed_out = t.timed_out;
    s_breaker_open = t.breaker_open;
    s_stale_epoch_served = t.stale_epoch_served;
    s_frames_shipped = t.frames_shipped;
    s_frames_applied = t.frames_applied;
    s_frames_dropped = t.frames_dropped;
    s_frames_retried = t.frames_retried;
    s_shard_grouped = t.shard_grouped;
    s_shard_scatter = t.shard_scatter;
  }

let zero =
  {
    s_op_reads = 0;
    s_op_writes = 0;
    s_total_reads = 0;
    s_total_writes = 0;
    s_logical_reads = 0;
    s_logical_writes = 0;
    s_buffer_hits = 0;
    s_buffer_misses = 0;
    s_buffer_evictions = 0;
    s_prefetched = 0;
    s_prefetch_hits = 0;
    s_buffer_capacity = 0;
    s_scrubs = 0;
    s_fallbacks = 0;
    s_retries = 0;
    s_deltas_buffered = 0;
    s_deltas_merged = 0;
    s_deltas_annihilated = 0;
    s_deltas_flushed = 0;
    s_catchup_flushes = 0;
    s_freshness_degradations = 0;
    s_shed = 0;
    s_timed_out = 0;
    s_breaker_open = 0;
    s_stale_epoch_served = 0;
    s_frames_shipped = 0;
    s_frames_applied = 0;
    s_frames_dropped = 0;
    s_frames_retried = 0;
    s_shard_grouped = 0;
    s_shard_scatter = 0;
  }

let merge a b =
  {
    s_op_reads = a.s_op_reads + b.s_op_reads;
    s_op_writes = a.s_op_writes + b.s_op_writes;
    s_total_reads = a.s_total_reads + b.s_total_reads;
    s_total_writes = a.s_total_writes + b.s_total_writes;
    s_logical_reads = a.s_logical_reads + b.s_logical_reads;
    s_logical_writes = a.s_logical_writes + b.s_logical_writes;
    s_buffer_hits = a.s_buffer_hits + b.s_buffer_hits;
    s_buffer_misses = a.s_buffer_misses + b.s_buffer_misses;
    s_buffer_evictions = a.s_buffer_evictions + b.s_buffer_evictions;
    s_prefetched = a.s_prefetched + b.s_prefetched;
    s_prefetch_hits = a.s_prefetch_hits + b.s_prefetch_hits;
    s_buffer_capacity = max a.s_buffer_capacity b.s_buffer_capacity;
    s_scrubs = a.s_scrubs + b.s_scrubs;
    s_fallbacks = a.s_fallbacks + b.s_fallbacks;
    s_retries = a.s_retries + b.s_retries;
    s_deltas_buffered = a.s_deltas_buffered + b.s_deltas_buffered;
    s_deltas_merged = a.s_deltas_merged + b.s_deltas_merged;
    s_deltas_annihilated = a.s_deltas_annihilated + b.s_deltas_annihilated;
    s_deltas_flushed = a.s_deltas_flushed + b.s_deltas_flushed;
    s_catchup_flushes = a.s_catchup_flushes + b.s_catchup_flushes;
    s_freshness_degradations = a.s_freshness_degradations + b.s_freshness_degradations;
    s_shed = a.s_shed + b.s_shed;
    s_timed_out = a.s_timed_out + b.s_timed_out;
    s_breaker_open = a.s_breaker_open + b.s_breaker_open;
    s_stale_epoch_served = a.s_stale_epoch_served + b.s_stale_epoch_served;
    s_frames_shipped = a.s_frames_shipped + b.s_frames_shipped;
    s_frames_applied = a.s_frames_applied + b.s_frames_applied;
    s_frames_dropped = a.s_frames_dropped + b.s_frames_dropped;
    s_frames_retried = a.s_frames_retried + b.s_frames_retried;
    s_shard_grouped = a.s_shard_grouped + b.s_shard_grouped;
    s_shard_scatter = a.s_shard_scatter + b.s_shard_scatter;
  }

let absorb t s =
  t.total_reads <- t.total_reads + s.s_total_reads;
  t.total_writes <- t.total_writes + s.s_total_writes;
  t.logical_reads <- t.logical_reads + s.s_logical_reads;
  t.logical_writes <- t.logical_writes + s.s_logical_writes;
  t.hits <- t.hits + s.s_buffer_hits;
  t.misses <- t.misses + s.s_buffer_misses;
  t.evictions <- t.evictions + s.s_buffer_evictions;
  t.prefetched <- t.prefetched + s.s_prefetched;
  t.prefetch_hits <- t.prefetch_hits + s.s_prefetch_hits;
  t.scrubs <- t.scrubs + s.s_scrubs;
  t.fallbacks <- t.fallbacks + s.s_fallbacks;
  t.retries <- t.retries + s.s_retries;
  t.deltas_buffered <- t.deltas_buffered + s.s_deltas_buffered;
  t.deltas_merged <- t.deltas_merged + s.s_deltas_merged;
  t.deltas_annihilated <- t.deltas_annihilated + s.s_deltas_annihilated;
  t.deltas_flushed <- t.deltas_flushed + s.s_deltas_flushed;
  t.catchup_flushes <- t.catchup_flushes + s.s_catchup_flushes;
  t.freshness_degradations <- t.freshness_degradations + s.s_freshness_degradations;
  t.shed <- t.shed + s.s_shed;
  t.timed_out <- t.timed_out + s.s_timed_out;
  t.breaker_open <- t.breaker_open + s.s_breaker_open;
  t.stale_epoch_served <- t.stale_epoch_served + s.s_stale_epoch_served;
  t.frames_shipped <- t.frames_shipped + s.s_frames_shipped;
  t.frames_applied <- t.frames_applied + s.s_frames_applied;
  t.frames_dropped <- t.frames_dropped + s.s_frames_dropped;
  t.frames_retried <- t.frames_retried + s.s_frames_retried;
  t.shard_grouped <- t.shard_grouped + s.s_shard_grouped;
  t.shard_scatter <- t.shard_scatter + s.s_shard_scatter

let summary_hit_ratio s =
  let denom = s.s_buffer_hits + s.s_buffer_misses + s.s_prefetch_hits in
  if denom = 0 then 0. else float_of_int s.s_buffer_hits /. float_of_int denom

let summary_to_json ?(extra = []) s =
  let fields =
    [
      ("op_reads", string_of_int s.s_op_reads);
      ("op_writes", string_of_int s.s_op_writes);
      ("total_reads", string_of_int s.s_total_reads);
      ("total_writes", string_of_int s.s_total_writes);
      ("total_accesses", string_of_int (s.s_total_reads + s.s_total_writes));
      ("logical_reads", string_of_int s.s_logical_reads);
      ("logical_writes", string_of_int s.s_logical_writes);
      ("buffer_hits", string_of_int s.s_buffer_hits);
      ("buffer_misses", string_of_int s.s_buffer_misses);
      ("buffer_evictions", string_of_int s.s_buffer_evictions);
      ("prefetched", string_of_int s.s_prefetched);
      ("prefetch_hits", string_of_int s.s_prefetch_hits);
      ("buffer_hit_ratio", Printf.sprintf "%.4f" (summary_hit_ratio s));
      ("buffer_capacity", string_of_int s.s_buffer_capacity);
      ("scrubs", string_of_int s.s_scrubs);
      ("fallbacks", string_of_int s.s_fallbacks);
      ("retries", string_of_int s.s_retries);
      ("deltas_buffered", string_of_int s.s_deltas_buffered);
      ("deltas_merged", string_of_int s.s_deltas_merged);
      ("deltas_annihilated", string_of_int s.s_deltas_annihilated);
      ("deltas_flushed", string_of_int s.s_deltas_flushed);
      ("catchup_flushes", string_of_int s.s_catchup_flushes);
      ("freshness_degradations", string_of_int s.s_freshness_degradations);
      ("shed", string_of_int s.s_shed);
      ("timed_out", string_of_int s.s_timed_out);
      ("breaker_open", string_of_int s.s_breaker_open);
      ("stale_epoch_served", string_of_int s.s_stale_epoch_served);
      ("frames_shipped", string_of_int s.s_frames_shipped);
      ("frames_applied", string_of_int s.s_frames_applied);
      ("frames_dropped", string_of_int s.s_frames_dropped);
      ("frames_retried", string_of_int s.s_frames_retried);
      ("shard_grouped", string_of_int s.s_shard_grouped);
      ("shard_scatter", string_of_int s.s_shard_scatter);
    ]
    @ extra
  in
  let buf = Stdlib.Buffer.create 256 in
  Stdlib.Buffer.add_string buf "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Stdlib.Buffer.add_string buf ", ";
      Stdlib.Buffer.add_string buf (Printf.sprintf "%S: %s" k v))
    fields;
  Stdlib.Buffer.add_string buf "}";
  Stdlib.Buffer.contents buf

let reset t =
  begin_op t;
  t.total_reads <- 0;
  t.total_writes <- 0;
  t.logical_reads <- 0;
  t.logical_writes <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.evictions <- 0;
  t.prefetched <- 0;
  t.prefetch_hits <- 0;
  t.scrubs <- 0;
  t.fallbacks <- 0;
  t.retries <- 0;
  t.deltas_buffered <- 0;
  t.deltas_merged <- 0;
  t.deltas_annihilated <- 0;
  t.deltas_flushed <- 0;
  t.catchup_flushes <- 0;
  t.freshness_degradations <- 0;
  t.shed <- 0;
  t.timed_out <- 0;
  t.breaker_open <- 0;
  t.stale_epoch_served <- 0;
  t.frames_shipped <- 0;
  t.frames_applied <- 0;
  t.frames_dropped <- 0;
  t.frames_retried <- 0;
  t.shard_grouped <- 0;
  t.shard_scatter <- 0;
  Hashtbl.reset t.segs;
  match t.pool with Some b -> Buffer.reset b | None -> ()
