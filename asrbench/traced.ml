(* The traced run: kept apart from the measured runs.  It replays one
   round of the workload's stream twice — untraced, then with a span
   around every call into a layer — and attributes time from outside
   the libraries:

   - each op is decomposed into the public calls it makes (plan, then
     execute; parse, check, then run; update; serve), so the traced pass
     does the same work as the untraced one and their difference is the
     tracing overhead;
   - layers reached only inside another call are driven directly on the
     workload's own inputs: the plan's Stitch steps are replayed through
     Core.Asr, the touched objects through Storage.Heap, and the write
     stream through Core.Maintenance and Durability.Wal on a replica of
     the base (both are otherwise reached only through store
     subscriptions);
   - the read workloads end with a short write tail on their own base
     (a Durability.Db and a Parallel.Server over it), so every layer is
     measured on every workload. *)

open Util
open Inputs

(* Per-layer metrics, in the order BENCHMARK.json lists them. *)
let metric_units =
  [
    ("gql.parse_us", "us"); ("gql.check_us", "us");
    ("engine.plan_us", "us"); ("engine.plan_cache_hit_ratio", "ratio");
    ("costmodel.profile_us", "us");
    ("engine.exec_self_us", "us");
    ("engine.batch_us_per_probe", "us"); ("engine.batch_words_per_probe", "words");
    ("asr.lookup_us", "us"); ("asr.lookup_many_us_per_key", "us"); ("asr.scan_partition_us", "us");
    ("bptree.pages_per_lookup", "pages");
    ("heap.read_object_ns", "ns");
    ("buffer.hit_ratio", "ratio"); ("buffer.evictions_per_op", "count"); ("buffer.overhead_us_per_op", "us");
    ("maintenance.apply_us_per_event", "us"); ("maintenance.pages_per_event", "pages"); ("asr.flush_us", "us");
    ("wal.append_us", "us"); ("wal.records_per_txn", "count"); ("db.recover_s", "s");
    ("parallel.publish_us", "us"); ("parallel.copied_per_publish", "count"); ("parallel.serve_overhead_us", "us");
    ("trace.overhead_us_per_op", "us");
  ]

type acc = {
  values : (string, float) Hashtbl.t;
  bases : (string, string) Hashtbl.t;  (** what each ratio or mean is taken over *)
  fails : Failures.t;
  lookup_pages : Samples.t;
  exec_self : Samples.t;
  serve_overhead : Samples.t;
  lookup_many : Samples.t;
  heap_seq : Gom.Oid.t list ref;
  mutable batch_ns : float;
  mutable batch_words : float;
  mutable batch_probes : int;
}

let set acc name ?base v =
  Hashtbl.replace acc.values name v;
  Option.iter (Hashtbl.replace acc.bases name) base

let key_of = function `Src o -> Gom.Value.Ref o | `Tgt v -> v
let dir_of = function `Src _ -> Engine.Plan.Fwd | `Tgt _ -> Engine.Plan.Bwd

(* ---------- attribution of reads ---------- *)

(* Replay a Stitch plan's steps through Core.Asr for one probe, on an
   unbuffered ledger; returns the nanoseconds spent inside Core.Asr. *)
let replay_stitch acc ~stats plan key =
  match plan with
  | Engine.Plan.Stitch { index; dir; steps; _ } ->
    let asr_ns = ref 0. and frontier = ref [ key ] in
    List.iter
      (fun step ->
        let part, enter, scan =
          match step with
          | Engine.Plan.Lookup { part; enter } -> (part, enter, false)
          | Engine.Plan.Scan { part; enter } -> (part, enter, true)
        in
        let lo, hi = Core.Asr.partition_bounds index part in
        let out = match dir with Engine.Plan.Fwd -> hi - lo | Engine.Plan.Bwd -> 0 in
        let tuples =
          if scan then begin
            let all, ns = Trace.timed "asr.scan_partition" (fun () -> Core.Asr.scan_partition ~stats index part) in
            asr_ns := !asr_ns +. ns;
            let live = Hashtbl.create 64 in
            List.iter (fun v -> Hashtbl.replace live v ()) !frontier;
            List.filter (fun (t : Relation.Tuple.t) -> Hashtbl.mem live t.(enter - lo)) all
          end
          else
            List.concat_map
              (fun k ->
                Storage.Stats.begin_op stats;
                let lookup = match dir with Engine.Plan.Fwd -> Core.Asr.lookup_fwd | Engine.Plan.Bwd -> Core.Asr.lookup_bwd in
                let r, ns = Trace.timed "asr.lookup" (fun () -> lookup ~stats index part k) in
                asr_ns := !asr_ns +. ns;
                Samples.add acc.lookup_pages (float_of_int (Storage.Stats.op_logical_reads stats));
                r)
              !frontier
        in
        frontier :=
          sorted_vals
            (List.filter_map
               (fun (t : Relation.Tuple.t) -> if Gom.Value.is_null t.(out) then None else Some t.(out))
               tuples))
      steps;
    !asr_ns
  | _ -> 0.

(* The first partition a batch of probes enters, and the many-key
   lookup the batched executor makes there. *)
let replay_lookup_many ~stats ~env engine path dir keys =
  let n = Gom.Path.length path in
  match (Engine.choose ~env engine path ~i:0 ~j:n ~dir).Engine.chosen with
  | Engine.Plan.Stitch { index; steps = Engine.Plan.Lookup { part; _ } :: _; _ } ->
    let many = match dir with Engine.Plan.Fwd -> Core.Asr.lookup_fwd_many | Engine.Plan.Bwd -> Core.Asr.lookup_bwd_many in
    let keys = sorted_vals keys in
    let _, ns = Trace.timed "asr.lookup_many" (fun () -> many ~stats index part keys) in
    Some (ns /. 1e3 /. float_of_int (max 1 (List.length keys)))
  | _ -> None

(* One engine batch call under a span, counted into the batch metrics,
   followed (outside the span) by its first-step many-key lookup. *)
let traced_batch acc ~count ~env engine path dir probes =
  let n = Gom.Path.length path in
  let w0 = Gc.minor_words () in
  let r, ns =
    Trace.timed "engine.batch" (fun () ->
        match dir with
        | Engine.Plan.Fwd ->
          `Fwd (Engine.forward_batch ~env engine path ~i:0 ~j:n (List.map Gom.Value.oid_exn probes))
        | Engine.Plan.Bwd -> `Bwd (Engine.backward_batch ~env engine path ~i:0 ~j:n ~targets:probes))
  in
  if count then begin
    acc.batch_words <- acc.batch_words +. (Gc.minor_words () -. w0);
    acc.batch_ns <- acc.batch_ns +. ns;
    acc.batch_probes <- acc.batch_probes + List.length probes
  end;
  (r, ns)

let attribute_lookup_many acc ~env engine path dir probes =
  let stats = Storage.Stats.create () in
  Option.iter (Samples.add acc.lookup_many)
    (Trace.span "bench.replay" (fun () -> replay_lookup_many ~stats ~env engine path dir probes))

(* Per-probe attribution: plan, execute, then replay the plan's steps
   through Core.Asr; engine self time is execution minus the replayed
   Core.Asr time.  Objects touched feed the heap sequence. *)
let attribute_probes acc ~env engine path probes =
  let n = Gom.Path.length path in
  let stats = Storage.Stats.create () in
  List.iter
    (fun p ->
      let ch = Trace.span "engine.plan" (fun () -> Engine.choose ~env engine path ~i:0 ~j:n ~dir:(dir_of p)) in
      Storage.Stats.begin_op env.Core.Exec.stats;
      let answer, exec_ns =
        Trace.timed "engine.exec" (fun () ->
            match p with
            | `Src o -> `Vals (Engine.run_forward ~env engine ch.Engine.chosen o)
            | `Tgt v -> `Oids (Engine.run_backward ~env engine ch.Engine.chosen ~target:v))
      in
      let touched =
        Option.to_list (Gom.Value.oid (key_of p))
        @ (match answer with `Vals vs -> List.filter_map Gom.Value.oid vs | `Oids os -> os)
      in
      acc.heap_seq := List.rev_append touched !(acc.heap_seq);
      let asr_ns = Trace.span "bench.replay" (fun () -> replay_stitch acc ~stats ch.Engine.chosen (key_of p)) in
      Samples.add acc.exec_self ((exec_ns -. asr_ns) /. 1e3))
    probes

(* Engine batches over the probe sample, 64 probes each, for workloads
   whose own stream makes no such calls. *)
let attribute_batches acc ~env engine path probes =
  let rec chunks l = match l with [] -> [] | _ ->
    let c = List.filteri (fun i _ -> i < 64) l in
    c :: chunks (List.filteri (fun i _ -> i >= 64) l)
  in
  List.iter
    (fun dir ->
      let mine = List.filter_map (fun p -> if dir_of p = dir then Some (key_of p) else None) probes in
      List.iter
        (fun c ->
          ignore (traced_batch acc ~count:true ~env engine path dir c);
          attribute_lookup_many acc ~env engine path dir c)
        (chunks mine))
    [ Engine.Plan.Fwd; Engine.Plan.Bwd ]

let attribute_heap acc heap =
  let stats = Storage.Stats.create ~buffer_capacity:pool_pages () in
  let seq = Array.of_list (List.rev !(acc.heap_seq)) in
  let per_call = Samples.create () in
  let chunk = 256 in
  let k = ref 0 in
  while !k < Array.length seq do
    let hi = min (Array.length seq) (!k + chunk) in
    let _, ns =
      Trace.timed "heap.read_object" (fun () ->
          for i = !k to hi - 1 do
            Storage.Heap.read_object heap stats seq.(i)
          done)
    in
    Samples.add per_call (ns /. float_of_int (hi - !k));
    k := hi
  done;
  set acc "heap.read_object_ns" (Samples.median per_call)
    ~base:(Printf.sprintf "median over %d chunks of %d calls, %d-page pool" (Samples.count per_call) chunk pool_pages)

let attribute_static ~view ~sizes ~indexes path =
  for _ = 1 to 8 do
    ignore (Trace.span "costmodel.profile" (fun () -> Engine.measure_profile_view ~sizes view path))
  done;
  let stats = Storage.Stats.create () in
  List.iter
    (fun index ->
      for p = 0 to Core.Asr.partition_count index - 1 do
        for _ = 1 to 2 do
          ignore (Trace.span "asr.scan_partition" (fun () -> Core.Asr.scan_partition ~stats index p))
        done
      done)
    indexes

let attribute_gql ~view targets =
  List.iter
    (fun v ->
      match Gom.Value.oid v with
      | Some o ->
        let q = Trace.span "gql.parse" (fun () -> Gql.Parser.parse (gql_text (tag_of view o))) in
        ignore (Trace.span "gql.check" (fun () -> Gql.Typecheck.check_view view q))
      | None -> ())
    targets

(* ---------- the write side ---------- *)

(* A traced pass of update_mixed-style ops against a durable base.
   Returns the summed op-span nanoseconds, the writes that committed (in
   order) and the served read queries.  [own] says whether the reads are
   the workload's own, so their batch calls count in the batch metrics. *)
let durable_pass acc ~own d ops =
  let wal0 = Durability.Db.wal_appended d.Measured.db in
  let pub0 = Parallel.Server.publish_info d.Measured.server in
  let copied = ref 0 and writes = ref [] and reads = ref [] and total = ref 0. and nreads = ref 0 in
  Array.iter
    (function
      | Write w ->
        let before = Parallel.Server.publish_info d.Measured.server in
        let r, ns =
          Trace.timed "op" (fun () ->
              Trace.span "parallel.update" (fun () ->
                  Parallel.Server.update d.Measured.server (fun st ->
                      Trace.span "gom.txn" (fun () -> toggle st w))))
        in
        total := !total +. ns;
        Failures.check acc.fails ~what:"write txn" (fun () -> Measured.toggle_ok r);
        if Result.is_ok r then writes := w :: !writes;
        let after = Parallel.Server.publish_info d.Measured.server in
        if Measured.publish_delta before after > 0 then copied := !copied + after.Parallel.Server.last_copied
      | Read q ->
        incr nreads;
        let snap = Parallel.Server.pin d.Measured.server in
        let a, ns =
          Trace.timed "op" (fun () ->
              Trace.span "parallel.serve" (fun () -> Parallel.Server.serve ~snapshot:snap d.Measured.server [ q ]))
        in
        total := !total +. ns;
        Failures.check acc.fails ~what:"served read" (fun () ->
            if !nreads mod 16 = 1 then Measured.check_served snap q a else Measured.check_shape q a);
        reads := q :: !reads;
        (* Serve overhead: the same query served again, against the
           pinned snapshot engine's own batch call. *)
        let env = Parallel.Snapshot.env snap and engine = Parallel.Snapshot.engine snap in
        let _, serve_ns =
          Trace.timed "parallel.serve" (fun () -> Parallel.Server.serve ~snapshot:snap d.Measured.server [ q ])
        in
        let probes, dir, path =
          match q with
          | Parallel.Server.Forward { q_path; q_sources; _ } ->
            (List.map (fun o -> Gom.Value.Ref o) q_sources, Engine.Plan.Fwd, q_path)
          | Parallel.Server.Backward { q_path; q_targets; _ } -> (q_targets, Engine.Plan.Bwd, q_path)
        in
        let _, batch_ns = traced_batch acc ~count:own ~env engine path dir probes in
        Samples.add acc.serve_overhead ((serve_ns -. batch_ns) /. 1e3);
        if own then attribute_lookup_many acc ~env engine path dir probes)
    ops;
  let pub = Parallel.Server.publish_info d.Measured.server in
  let publishes = Measured.publish_delta pub0 pub in
  let nwrites = List.length !writes in
  set acc "wal.records_per_txn"
    (float_of_int (Durability.Db.wal_appended d.Measured.db - wal0) /. float_of_int (max 1 nwrites))
    ~base:(Printf.sprintf "%d committed write txns" nwrites);
  set acc "parallel.publish_us"
    ((pub.Parallel.Server.total_latency_s -. pub0.Parallel.Server.total_latency_s) *. 1e6
     /. float_of_int (max 1 publishes))
    ~base:(Printf.sprintf "mean over %d publishes (Server.publish_info)" publishes);
  set acc "parallel.copied_per_publish"
    (float_of_int !copied /. float_of_int (max 1 publishes))
    ~base:(Printf.sprintf "%d publishes" publishes);
  set acc "parallel.serve_overhead_us" (Samples.median acc.serve_overhead)
    ~base:(Printf.sprintf "median over %d reads: Server.serve minus the snapshot engine's batch call"
             (Samples.count acc.serve_overhead));
  (!total, List.rev !writes, List.rev !reads)

(* Maintenance and WAL are reached only through store subscriptions, so
   the recorded writes are replayed on a replica of the initial base:
   each event goes through Core.Maintenance.apply_event (the replica's
   manager has the ASR suspended, so nothing is applied twice), then
   Core.Asr.flush as a publish does, then Durability.Wal.append of its
   log image. *)
let replay_writes acc ~dir ~rebuild writes =
  let store, path = rebuild () in
  (* Durability.Db lays its heap out at 100 bytes per object. *)
  let heap = Storage.Heap.create ~size_of:(fun _ -> 100) store in
  let env = Core.Exec.make store heap in
  let index = Core.Asr.create store path Core.Extension.Full (binary path) in
  let m = Core.Maintenance.create env in
  Core.Maintenance.register m index;
  Core.Maintenance.suspend m index;
  let events = Queue.create () in
  ignore (Gom.Store.subscribe store (fun ev -> Queue.push ev events));
  mkdir_p dir;
  let wal_file = Filename.concat dir "replay.log" in
  let wal = Durability.Wal.open_append ~policy:Measured.wal_policy wal_file in
  let pages = Samples.create () in
  let stats = Core.Maintenance.stats m in
  List.iter
    (fun w ->
      (match toggle store w with Ok _ -> () | Error e -> Failures.fail acc.fails ("replica toggle: " ^ Printexc.to_string e));
      Trace.span "wal.append" (fun () -> Durability.Wal.append wal Durability.Wal.Begin);
      Queue.iter
        (fun ev ->
          Storage.Stats.begin_op stats;
          Trace.span "maintenance.apply" (fun () -> Core.Maintenance.apply_event m index ev);
          Samples.add pages (float_of_int (Core.Maintenance.last_event_cost m));
          ignore (Trace.span "asr.flush" (fun () -> Core.Asr.flush ~stats index));
          let r = Durability.Wal.record_of_event store ev in
          Trace.span "wal.append" (fun () -> Durability.Wal.append wal r))
        events;
      Queue.clear events;
      Trace.span "wal.append" (fun () -> Durability.Wal.append wal Durability.Wal.Commit))
    writes;
  Durability.Wal.close wal;
  set acc "maintenance.pages_per_event" (Samples.sum pages /. float_of_int (max 1 (Samples.count pages)))
    ~base:(Printf.sprintf "mean over %d events (Maintenance.last_event_cost)" (Samples.count pages));
  rm_rf dir;
  (store, heap, path)

(* The durable half of a traced run: a traced pass, the replica replay,
   then close and a timed recovery that must verify. *)
let write_side acc ~own ~work ~rebuild d ops =
  let total, writes, reads = durable_pass acc ~own d ops in
  let snap = Parallel.Server.pin d.Measured.server in
  let final =
    scan_oracle (Gom.Store_view.live d.Measured.d_store)
      (Durability.Db.env d.Measured.db).Core.Exec.heap d.Measured.d_path
  in
  let replica_store, replica_heap, path =
    replay_writes acc ~dir:(Filename.concat work "replica") ~rebuild writes
  in
  (* The replica must end where the served base ended. *)
  let replica = scan_oracle (Gom.Store_view.live replica_store) replica_heap path in
  Failures.check acc.fails ~what:"replica replay" (fun () ->
      if Oid_tbl.length replica.fwd = Oid_tbl.length final.fwd
         && Oid_tbl.fold (fun o vs ok -> ok && Oid_tbl.find_opt final.fwd o = Some vs) replica.fwd true
      then None
      else Some "replica diverged from the served base");
  let recover_s = Measured.final_check acc.fails d in
  set acc "db.recover_s" recover_s ~base:"one Durability.Db.open_ after Db.close";
  (total, snap, reads)

(* ---------- per-workload traced runs ---------- *)

let set_cache_ratio acc (c0 : Engine.cache_info) (c1 : Engine.cache_info) =
  let hits = c1.Engine.hits - c0.Engine.hits in
  let lookups = hits + c1.Engine.misses - c0.Engine.misses in
  set acc "engine.plan_cache_hit_ratio"
    (float_of_int hits /. float_of_int (max 1 lookups))
    ~base:(Printf.sprintf "%d plan-cache lookups in the traced pass" lookups)

type result = { fails : Failures.t; metrics : (string * float * string) list; lines : string list }

let new_acc () =
  {
    values = Hashtbl.create 32; bases = Hashtbl.create 32; fails = Failures.create ();
    lookup_pages = Samples.create (); lookup_many = Samples.create (); exec_self = Samples.create (); serve_overhead = Samples.create ();
    heap_seq = ref []; batch_ns = 0.; batch_words = 0.; batch_probes = 0;
  }

let finish acc ~workload ~ops ~untraced_ns ~traced_ns =
  let set_med name span what =
    let s = Trace.durations_us span in
    set acc name (Samples.median s) ~base:(Printf.sprintf "median over %d %s calls" (Samples.count s) what)
  in
  set_med "gql.parse_us" "gql.parse" "Gql.Parser.parse";
  set_med "gql.check_us" "gql.check" "Gql.Typecheck.check";
  set_med "engine.plan_us" "engine.plan" "Engine.choose";
  set_med "costmodel.profile_us" "costmodel.profile" "Engine.measure_profile_view";
  set_med "asr.lookup_us" "asr.lookup" "Core.Asr.lookup_fwd/lookup_bwd";
  set_med "asr.scan_partition_us" "asr.scan_partition" "Core.Asr.scan_partition";
  set_med "asr.flush_us" "asr.flush" "Core.Asr.flush";
  set_med "wal.append_us" "wal.append" "Durability.Wal.append";
  set_med "maintenance.apply_us_per_event" "maintenance.apply" "Core.Maintenance.apply_event";
  set acc "engine.exec_self_us" (Samples.median acc.exec_self)
    ~base:(Printf.sprintf "median over %d probes: run_* minus replayed Core.Asr time" (Samples.count acc.exec_self));
  set acc "asr.lookup_many_us_per_key" (Samples.median acc.lookup_many)
    ~base:(Printf.sprintf "median over %d batches" (Samples.count acc.lookup_many));
  set acc "bptree.pages_per_lookup"
    (Samples.sum acc.lookup_pages /. float_of_int (max 1 (Samples.count acc.lookup_pages)))
    ~base:(Printf.sprintf "logical pages, mean over %d lookups" (Samples.count acc.lookup_pages));
  set acc "engine.batch_us_per_probe" (acc.batch_ns /. 1e3 /. float_of_int (max 1 acc.batch_probes))
    ~base:(Printf.sprintf "%d probes in engine batch calls" acc.batch_probes);
  set acc "engine.batch_words_per_probe" (acc.batch_words /. float_of_int (max 1 acc.batch_probes))
    ~base:(Printf.sprintf "%d probes in engine batch calls" acc.batch_probes);
  set acc "trace.overhead_us_per_op" ((traced_ns -. untraced_ns) /. 1e3 /. float_of_int ops)
    ~base:(Printf.sprintf "traced minus untraced pass over the same %d ops" ops);
  let metrics =
    List.map
      (fun (name, unit) ->
        match Hashtbl.find_opt acc.values name with
        | Some v -> (name, v, unit)
        | None ->
          Failures.fail acc.fails ("per-layer metric not measured: " ^ name);
          (name, nan, unit))
      metric_units
  in
  let self = Trace.self_ms_by_layer () in
  let file = Filename.concat work_root (Printf.sprintf "trace-%s.jsonl" workload) in
  mkdir_p work_root;
  Trace.write file;
  let lines =
    [ Printf.sprintf "traced run     %d ops; untraced %.1f ms, traced %.1f ms; %d spans written to %s"
        ops (untraced_ns /. 1e6) (traced_ns /. 1e6) (Trace.count ()) file;
      "self time by layer (ms): "
      ^ String.concat ", " (List.map (fun (l, ms) -> Printf.sprintf "%s %.1f" l ms) self) ]
    @ List.map
        (fun (name, v, unit) ->
          Printf.sprintf "  %-32s %14.4f %-6s %s" name v unit
            (Option.value ~default:"" (Hashtbl.find_opt acc.bases name)))
        metrics
  in
  { fails = acc.fails; metrics; lines }

(* Buffer metrics for the read workloads come from the traced pass's own
   256-page pools; the overhead compares the untraced pass against the
   same stream on unbuffered ledgers. *)
let read_buffer acc ~ledgers ~ops ~untraced_ns ~unbuffered_ns =
  let sum f = Measured.sum_ledgers f ledgers in
  let hits = sum Storage.Stats.buffer_hits in
  let accesses = hits + sum Storage.Stats.buffer_misses + sum Storage.Stats.prefetch_hits in
  set acc "buffer.hit_ratio"
    (float_of_int hits /. float_of_int (max 1 accesses))
    ~base:(Printf.sprintf "%d buffered page reads" accesses);
  set acc "buffer.evictions_per_op"
    (float_of_int (sum Storage.Stats.buffer_evictions) /. float_of_int ops)
    ~base:(Printf.sprintf "%d ops" ops);
  set acc "buffer.overhead_us_per_op" ((untraced_ns -. unbuffered_ns) /. 1e3 /. float_of_int ops)
    ~base:(Printf.sprintf "%d-page pool minus unbuffered, same %d ops" pool_pages ops)

(* The write tail of a read workload: a short update_mixed-style stream
   against a Db and a Server over the workload's own base. *)
let read_write_tail acc ~seed rb =
  let work = Filename.concat run_dir "write-tail" in
  let d = Measured.open_durable ~dir:(Filename.concat work "db") ~sizes:rb.sizes rb.store rb.path in
  let ops = mixed_ops ~seed ~ops:256 rb.store rb.path in
  let rebuild () = Workload.Generator.build rb.spec in
  ignore (write_side acc ~own:false ~work ~rebuild d ops);
  rm_rf work

let probe_sample ops k = List.filteri (fun i _ -> i < k) ops

let point_zipf ~seed =
  let rb = build_read_base ~seed in
  let acc = new_acc () in
  let view = Gom.Store_view.live rb.store in
  let oracle = scan_oracle view rb.heap rb.path and tag_oracle = scan_oracle view rb.heap rb.tag_path in
  let ops = point_ops ~seed rb in
  let n = Gom.Path.length rb.path in
  let pass ?buffer_pages () =
    let _, engine = read_engine rb in
    fst
      (Measured.point_pass ~fails:acc.fails ~lat:(Samples.create ()) ~words:(ref 0.) ~oracle ~tag_oracle
         ?buffer_pages rb engine ops)
  in
  ignore (pass ()) (* warm-up *);
  let untraced_ns = pass () in
  let unbuffered_ns = pass ~buffer_pages:0 () in
  let _, engine = read_engine rb in
  let c0 = Engine.cache_info engine in
  let traced_ns = ref 0. and ledgers = ref [] and session = ref None in
  Array.iteri
    (fun k op ->
      let env = session_env ~buffer_pages:pool_pages rb ~session ~ledgers k in
      let check, ns =
        Trace.timed "op" (fun () ->
            match op with
            | P_fwd o ->
              let ch = Trace.span "engine.plan" (fun () -> Engine.choose ~env engine rb.path ~i:0 ~j:n ~dir:Engine.Plan.Fwd) in
              Storage.Stats.begin_op env.Core.Exec.stats;
              let vs = Trace.span "engine.exec" (fun () -> Engine.run_forward ~env engine ch.Engine.chosen o) in
              fun () -> same_vals vs (oracle_fwd oracle o)
            | P_bwd t ->
              let target = Gom.Value.Ref t in
              let ch = Trace.span "engine.plan" (fun () -> Engine.choose ~env engine rb.path ~i:0 ~j:n ~dir:Engine.Plan.Bwd) in
              Storage.Stats.begin_op env.Core.Exec.stats;
              let os = Trace.span "engine.exec" (fun () -> Engine.run_backward ~env engine ch.Engine.chosen ~target) in
              fun () -> same_oids os (oracle_bwd oracle target)
            | P_gql { tag; text } ->
              let q = Trace.span "gql.parse" (fun () -> Gql.Parser.parse text) in
              let tq = Trace.span "gql.check" (fun () -> Gql.Typecheck.check rb.store q) in
              let r = Trace.span "gql.run" (fun () -> Gql.Eval.run ~env ~engine tq) in
              fun () -> same_oids (rows_oids r.Gql.Eval.rows) (oracle_bwd tag_oracle (Gom.Value.Str tag)))
      in
      traced_ns := !traced_ns +. ns;
      Failures.check acc.fails ~what:"traced point op" check)
    ops;
  let c1 = Engine.cache_info engine in
  set_cache_ratio acc c0 c1;
  read_buffer acc ~ledgers:!ledgers ~ops:(Array.length ops) ~untraced_ns ~unbuffered_ns;
  let probes =
    probe_sample
      (List.filter_map
         (function P_fwd o -> Some (`Src o) | P_bwd t -> Some (`Tgt (Gom.Value.Ref t)) | P_gql _ -> None)
         (Array.to_list ops))
      256
  in
  let aenv, aengine = read_engine rb in
  attribute_probes acc ~env:aenv aengine rb.path probes;
  attribute_batches acc ~env:aenv aengine rb.path probes;
  attribute_heap acc rb.heap;
  attribute_static ~view ~sizes:rb.sizes ~indexes:[ rb.index; rb.tag_index ] rb.path;
  read_write_tail acc ~seed rb;
  finish acc ~workload:"point_zipf" ~ops:(Array.length ops) ~untraced_ns ~traced_ns:!traced_ns

let batch_uniform ~seed =
  let rb = build_read_base ~seed in
  let acc = new_acc () in
  let view = Gom.Store_view.live rb.store in
  let oracle = scan_oracle view rb.heap rb.path in
  let _, oengine = read_engine ~buffer_pages:0 rb in
  let ops = batch_ops ~seed rb in
  let nprobes = Array.fold_left (fun a op -> a + batch_size op) 0 ops in
  let pass ?buffer_pages () =
    let _, engine = read_engine ?buffer_pages rb in
    Measured.batch_pass ~fails:acc.fails ~lat:(Samples.create ()) ~words:(ref 0.) ~oracle ~oengine
      ~per_probe:(fun _ -> false) rb engine ops
  in
  ignore (pass ()) (* warm-up *);
  let untraced_ns = pass () in
  let unbuffered_ns = pass ~buffer_pages:0 () in
  let env, engine = read_engine rb in
  let c0 = Engine.cache_info engine in
  let traced_ns = ref 0. in
  Array.iter
    (fun op ->
      let dir, probes =
        match op with
        | B_fwd l -> (Engine.Plan.Fwd, List.map (fun o -> Gom.Value.Ref o) l)
        | B_bwd l -> (Engine.Plan.Bwd, l)
      in
      let (r, _), ns = Trace.timed "op" (fun () -> traced_batch acc ~count:true ~env engine rb.path dir probes) in
      traced_ns := !traced_ns +. ns;
      Failures.check acc.fails ~what:"traced batch" (fun () ->
          match (r, op) with
          | `Fwd a, B_fwd l -> check_fwd_batch oracle l a
          | `Bwd a, B_bwd l -> check_bwd_batch oracle l a
          | _ -> Some "batch answer has the wrong direction");
      attribute_lookup_many acc ~env engine rb.path dir probes)
    ops;
  let c1 = Engine.cache_info engine in
  set_cache_ratio acc c0 c1;
  read_buffer acc ~ledgers:[ env.Core.Exec.stats ] ~ops:nprobes ~untraced_ns ~unbuffered_ns;
  let probes =
    probe_sample
      (List.concat_map
         (function
           | B_fwd l -> List.map (fun o -> `Src o) (probe_sample l 32)
           | B_bwd l -> List.map (fun v -> `Tgt v) (probe_sample l 32))
         (Array.to_list ops))
      256
  in
  let aenv, aengine = read_engine rb in
  attribute_probes acc ~env:aenv aengine rb.path probes;
  attribute_heap acc rb.heap;
  attribute_gql ~view (List.filter_map (function `Tgt v -> Some v | `Src _ -> None) probes);
  attribute_static ~view ~sizes:rb.sizes ~indexes:[ rb.index ] rb.path;
  read_write_tail acc ~seed rb;
  finish acc ~workload:"batch_uniform" ~ops:nprobes ~untraced_ns ~traced_ns:!traced_ns

let update_mixed ~seed =
  let acc = new_acc () in
  let work = Filename.concat run_dir "traced" in
  let macc = { Measured.rlat = Samples.create (); wlat = Samples.create (); words = ref 0.; setup = Samples.create () } in
  let untraced_ns, _, d0 = Measured.mixed_round ~seed ~fails:acc.fails ~acc:macc 0 in
  Measured.close_durable d0;
  let d = Measured.build_durable ~seed ~dir:(Filename.concat work "db") () in
  let ops = mixed_ops ~seed ~ops:mixed_round_ops d.Measured.d_store d.Measured.d_path in
  let engine0 = Parallel.Snapshot.engine (Parallel.Server.pin d.Measured.server) in
  let c0 = Engine.cache_info engine0 in
  let rebuild () = Workload.Generator.build (spec ~seed update_counts) in
  let traced_ns, snap, reads = write_side acc ~own:true ~work ~rebuild d ops in
  let c1 = Engine.cache_info (Parallel.Snapshot.engine snap) in
  set_cache_ratio acc c0 c1;
  (* Reads re-run on the last published snapshot, with a 256-page pool
     and unbuffered, for the buffer metrics. *)
  let engine = Parallel.Snapshot.engine snap in
  let rerun env =
    snd
      (timed (fun () ->
           List.iter
             (function
               | Parallel.Server.Forward { q_path; q_j; q_sources; _ } ->
                 ignore (Engine.forward_batch ~env engine q_path ~i:0 ~j:q_j q_sources)
               | Parallel.Server.Backward { q_path; q_j; q_targets; _ } ->
                 ignore (Engine.backward_batch ~env engine q_path ~i:0 ~j:q_j ~targets:q_targets))
             reads))
  in
  let benv = Parallel.Snapshot.env ~buffer_pages:pool_pages snap in
  let buffered_ns = rerun benv in
  let unbuffered_ns = rerun (Parallel.Snapshot.env snap) in
  let st = benv.Core.Exec.stats in
  let nreads = List.length reads in
  set acc "buffer.hit_ratio"
    (Option.value ~default:0. (Storage.Stats.hit_ratio st))
    ~base:(Printf.sprintf "%d buffered page reads re-running %d served reads" (Storage.Stats.buffer_hits st + Storage.Stats.buffer_misses st) nreads);
  set acc "buffer.evictions_per_op"
    (float_of_int (Storage.Stats.buffer_evictions st) /. float_of_int (max 1 nreads))
    ~base:(Printf.sprintf "%d re-run reads" nreads);
  set acc "buffer.overhead_us_per_op" ((buffered_ns -. unbuffered_ns) /. 1e3 /. float_of_int (max 1 nreads))
    ~base:(Printf.sprintf "%d-page pool minus unbuffered, %d re-run reads" pool_pages nreads);
  let probes =
    probe_sample
      (List.concat_map
         (function
           | Parallel.Server.Forward { q_sources; _ } -> List.map (fun o -> `Src o) q_sources
           | Parallel.Server.Backward { q_targets; _ } -> List.map (fun v -> `Tgt v) q_targets)
         reads)
      256
  in
  let view = Parallel.Snapshot.store snap in
  let aenv = Parallel.Snapshot.env snap in
  attribute_probes acc ~env:aenv engine d.Measured.d_path probes;
  attribute_heap acc aenv.Core.Exec.heap;
  attribute_gql ~view (List.filter_map (function `Tgt v -> Some v | `Src _ -> None) probes);
  attribute_static ~view ~sizes:d.Measured.d_sizes ~indexes:(Parallel.Snapshot.indexes snap) d.Measured.d_path;
  rm_rf work;
  finish acc ~workload:"update_mixed" ~ops:(Array.length ops) ~untraced_ns ~traced_ns
