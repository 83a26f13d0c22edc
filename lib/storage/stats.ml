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

   Frames are keyed by (segment, page) packed into one int: heap pages
   and every ASR's tree pages come from independent pagers whose
   identifiers collide, so the active segment (dynamically scoped via
   [in_segment]) namespaces the pool and carries per-segment hit/miss
   tallies for buffer-aware plan pricing.  Segment names are interned
   once, process-wide; each accountant caches the active segment's
   tally, so a read does no table lookup. *)

type segment = int

let interned : (string, segment) Hashtbl.t = Hashtbl.create 64
let intern_lock = Mutex.create ()

let segment name =
  Mutex.protect intern_lock (fun () ->
      match Hashtbl.find_opt interned name with
      | Some s -> s
      | None ->
        let s = Hashtbl.length interned in
        Hashtbl.add interned name s;
        s)

let no_segment = segment ""

type tally = { sid : segment; mutable sh : int; mutable sm : int }

module Tallies = Hashtbl.Make (struct
  type t = segment

  let equal = Int.equal
  let hash s = s
end)

(* A per-operation distinct-page set: open addressing over page ids,
   cleared in O(1) by bumping an epoch — a cell is occupied iff its mark
   equals the current epoch.  Insert-only between clears, so no
   deletion is needed, and nothing allocates until the table doubles. *)
module Touched = struct
  type t = {
    mutable keys : int array;
    mutable marks : int array;
    mutable bits : int;
    mutable epoch : int;
    mutable size : int;
  }

  let create bits =
    { keys = Array.make (1 lsl bits) 0; marks = Array.make (1 lsl bits) 0; bits; epoch = 1; size = 0 }

  let clear s =
    s.epoch <- s.epoch + 1;
    s.size <- 0

  let home s k = (k * 0x9E3779B97F4A7C1) lsr (63 - s.bits)
  let next_cell s i = (i + 1) land (Array.length s.keys - 1)

  (* Top-level probes, not local closures: a lookup allocates nothing. *)
  let rec probe_mem s k i = s.marks.(i) = s.epoch && (s.keys.(i) = k || probe_mem s k (next_cell s i))
  let mem s k = probe_mem s k (home s k)

  (* [true] when [k] was absent (and is now present). *)
  let rec probe_add s k i =
    if s.marks.(i) <> s.epoch then begin
      s.keys.(i) <- k;
      s.marks.(i) <- s.epoch;
      s.size <- s.size + 1;
      if 2 * s.size > Array.length s.keys then grow s;
      true
    end
    else s.keys.(i) <> k && probe_add s k (next_cell s i)

  and add s k = probe_add s k (home s k)

  and grow s =
    let keys = s.keys and marks = s.marks in
    s.bits <- s.bits + 1;
    s.keys <- Array.make (1 lsl s.bits) 0;
    s.marks <- Array.make (1 lsl s.bits) 0;
    s.size <- 0;
    Array.iteri (fun i k -> if marks.(i) = s.epoch then ignore (add s k : bool)) keys
end

type counter =
  | Scrub
  | Fallback
  | Retry
  | Delta_buffered
  | Delta_merged
  | Delta_annihilated
  | Delta_flushed
  | Catchup_flush
  | Freshness_degradation
  | Shed
  | Timed_out
  | Breaker_open
  | Stale_epoch_served
  | Frame_shipped
  | Frame_applied
  | Frame_dropped
  | Frame_retried
  | Shard_grouped
  | Shard_scatter

(* The one counter table: a counter's slot is its row, and the rows are
   in the order [summary_to_json] emits their keys. *)
let table =
  [|
    (Scrub, "scrubs");
    (Fallback, "fallbacks");
    (Retry, "retries");
    (Delta_buffered, "deltas_buffered");
    (Delta_merged, "deltas_merged");
    (Delta_annihilated, "deltas_annihilated");
    (Delta_flushed, "deltas_flushed");
    (Catchup_flush, "catchup_flushes");
    (Freshness_degradation, "freshness_degradations");
    (Shed, "shed");
    (Timed_out, "timed_out");
    (Breaker_open, "breaker_open");
    (Stale_epoch_served, "stale_epoch_served");
    (Frame_shipped, "frames_shipped");
    (Frame_applied, "frames_applied");
    (Frame_dropped, "frames_dropped");
    (Frame_retried, "frames_retried");
    (Shard_grouped, "shard_grouped");
    (Shard_scatter, "shard_scatter");
  |]

let slot c =
  let rec go i = if fst table.(i) = c then i else go (i + 1) in
  go 0

type counts = int array

type t = {
  mutable op_reads : int;
  mutable op_writes : int;
  mutable total_reads : int;
  mutable total_writes : int;
  mutable op_logical_reads : int;
  mutable logical_reads : int;
  mutable logical_writes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable prefetched : int;
  mutable prefetch_hits : int;
  counts : counts;
  touched_r : Touched.t;
  touched_w : Touched.t;
  pool : Buffer.t option;
  mutable cur : tally;  (* the active segment's; [no_segment] outside any *)
  tallies : tally Tallies.t;
}

let create ?(buffer_capacity = 0) ?buffer_policy () =
  let none = { sid = no_segment; sh = 0; sm = 0 } in
  let tallies = Tallies.create 8 in
  Tallies.add tallies no_segment none;
  {
    op_reads = 0;
    op_writes = 0;
    total_reads = 0;
    total_writes = 0;
    op_logical_reads = 0;
    logical_reads = 0;
    logical_writes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    prefetched = 0;
    prefetch_hits = 0;
    counts = Array.make (Array.length table) 0;
    touched_r = Touched.create 9;
    touched_w = Touched.create 7;
    pool =
      (if buffer_capacity > 0 then
         Some (Buffer.create ?policy:buffer_policy ~capacity:buffer_capacity ())
       else None);
    cur = none;
    tallies;
  }

let begin_op t =
  t.op_reads <- 0;
  t.op_writes <- 0;
  t.op_logical_reads <- 0;
  Touched.clear t.touched_r;
  Touched.clear t.touched_w

let tally t seg =
  match Tallies.find t.tallies seg with
  | c -> c
  | exception Not_found ->
    let c = { sid = seg; sh = 0; sm = 0 } in
    Tallies.add t.tallies seg c;
    c

let in_segment t seg f =
  let prev = t.cur in
  t.cur <- tally t seg;
  match f () with
  | v ->
    t.cur <- prev;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.cur <- prev;
    Printexc.raise_with_backtrace e bt

let frame t page = Buffer.key ~segment:t.cur.sid page

let read t page =
  if Touched.add t.touched_r page then begin
    t.op_logical_reads <- t.op_logical_reads + 1;
    t.logical_reads <- t.logical_reads + 1;
    match t.pool with
    | None ->
      t.op_reads <- t.op_reads + 1;
      t.total_reads <- t.total_reads + 1
    | Some b -> (
      let c = t.cur in
      match Buffer.reference b (frame t page) with
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

let read_in t seg page =
  let prev = t.cur in
  t.cur <- tally t seg;
  read t page;
  t.cur <- prev

let write t page =
  if Touched.add t.touched_w page then begin
    t.logical_writes <- t.logical_writes + 1;
    (* Write-through: every distinct write reaches storage, pool or not;
       the written page enters the pool so later reads of it hit. *)
    t.op_writes <- t.op_writes + 1;
    t.total_writes <- t.total_writes + 1;
    match t.pool with
    | None -> ()
    | Some b -> (
      match Buffer.reference b (frame t page) with
      | Buffer.Miss { evicted = true } -> t.evictions <- t.evictions + 1
      | Buffer.Miss { evicted = false } | Buffer.Hit | Buffer.Prefetch_hit -> ())
  end

(* Stage [pages] not yet touched by this operation, at most [budget]
   of them. *)
let rec stage t b budget = function
  | [] -> ()
  | _ when budget = 0 -> ()
  | page :: rest when Touched.mem t.touched_r page -> stage t b budget rest
  | page :: rest ->
    (match Buffer.prefetch b (frame t page) with
    | `Resident -> ()
    | `Admitted evicted ->
      (* Speculative fetch: physical I/O paid now, charged to the
         operation that issued the prefetch. *)
      t.prefetched <- t.prefetched + 1;
      t.op_reads <- t.op_reads + 1;
      t.total_reads <- t.total_reads + 1;
      if evicted then t.evictions <- t.evictions + 1);
    stage t b (budget - 1) rest

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
    stage t b (Buffer.capacity b) pages

let pin_page t page =
  match t.pool with Some b -> Buffer.pin b (frame t page) | None -> ()

let unpin_page t page =
  match t.pool with Some b -> Buffer.unpin b (frame t page) | None -> ()

let op_reads t = t.op_reads
let op_writes t = t.op_writes
let op_accesses t = t.op_reads + t.op_writes
let total_reads t = t.total_reads
let total_writes t = t.total_writes
let op_logical_reads t = t.op_logical_reads
let logical_reads t = t.logical_reads
let logical_writes t = t.logical_writes
let buffer_hits t = t.hits
let buffer_misses t = t.misses
let buffer_evictions t = t.evictions
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
    match Tallies.find_opt t.tallies seg with
    | Some c when c.sh + c.sm > 0 ->
      Some (float_of_int c.sh /. float_of_int (c.sh + c.sm))
    | Some _ | None -> None

let note ?(n = 1) t c =
  let i = slot c in
  t.counts.(i) <- t.counts.(i) + n

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
  s_counts : counts;
}

let count s c = s.s_counts.(slot c)

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
    s_counts = Array.copy t.counts;
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
    s_counts = Array.make (Array.length table) 0;
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
    s_counts = Array.map2 ( + ) a.s_counts b.s_counts;
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
  Array.iteri (fun i n -> t.counts.(i) <- t.counts.(i) + n) s.s_counts

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
    ]
    @ Array.to_list
        (Array.map2 (fun (_, key) n -> (key, string_of_int n)) table s.s_counts)
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
  Array.fill t.counts 0 (Array.length t.counts) 0;
  (* Zero the tallies in place: the active segment's stays cached. *)
  Tallies.iter
    (fun _ c ->
      c.sh <- 0;
      c.sm <- 0)
    t.tallies;
  match t.pool with Some b -> Buffer.reset b | None -> ()
