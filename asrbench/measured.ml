(* The measured (untraced) runs: each workload replays a fixed op stream
   in rounds until the timed region has lasted the requested seconds
   (and the latency samples are large enough for their p99), checks
   every answer, and verifies that the exact counts of every round are
   identical. *)

open Util
open Inputs

type result = {
  fails : Failures.t;
  metrics : (string * float * string) list;  (** the end-to-end metrics, in order *)
  report : (string * string) list;  (** extra fields of the report line *)
  lines : string list;  (** human-readable summary *)
}

(* Time one op; exceptions count as failures and are never swallowed
   silently.  Returns the op's wall time in nanoseconds. *)
let run_op fails ~what ~lat ~words f check =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  match f () with
  | r ->
    let dt = ns_between t0 (now_ns ()) in
    words := !words +. (Gc.minor_words () -. w0);
    Samples.add lat (dt /. 1e3);
    Failures.check fails ~what (fun () -> check r);
    dt
  | exception e ->
    let dt = ns_between t0 (now_ns ()) in
    Failures.attempt fails;
    Failures.fail fails (what ^ ": " ^ Printexc.to_string e);
    dt

(* Set up [n] times from scratch (collecting garbage first so each
   build starts from the same heap) and keep the last result. *)
let repeated_setup ~n build =
  let samples = Samples.create () in
  let rec go k =
    Gc.compact ();
    let x, ns = timed build in
    Samples.add samples (ns /. 1e9);
    if k >= n then x else go (k + 1)
  in
  let x = go 1 in
  (x, samples)

(* Rounds until [seconds] of timed region and [enough ()], with at least
   two rounds (so drift between rounds can show) and a wall-clock cap
   that keeps a run well inside its time limit.  Besides the totals it
   keeps each round's throughput and median read latency: the box these
   numbers come from slows down for seconds at a time, and the median
   over rounds is not moved by a few slow rounds. *)
let wall_cap_s = 100.

type rounds = { n : int; timed_s : float; rates : Samples.t; p50s : Samples.t }

let rounds ~seconds ~enough ~rlat ~round_ops round =
  let start = now_ns () in
  let timed_s = ref 0. and k = ref 0 in
  let rates = Samples.create () and p50s = Samples.create () in
  while
    !k < 2
    || ((!timed_s < seconds || not (enough ()))
       && ns_between start (now_ns ()) /. 1e9 < wall_cap_s)
  do
    let from = Samples.count rlat in
    Gc.compact ();
    let ns = round !k in
    timed_s := !timed_s +. (ns /. 1e9);
    Samples.add rates (float_of_int round_ops /. (ns /. 1e9));
    Samples.add p50s (Samples.median_from rlat from);
    incr k
  done;
  { n = !k; timed_s = !timed_s; rates; p50s }

(* Exact counts must repeat bit-for-bit across rounds of one seed. *)
type drift = { mutable first : (string * float) list option; mutable drifted : string list }

let new_drift () = { first = None; drifted = [] }

let note_exact d fails counts =
  match d.first with
  | None -> d.first <- Some counts
  | Some first ->
    List.iter2
      (fun (name, a) (_, b) ->
        if a <> b && not (List.mem name d.drifted) then begin
          d.drifted <- name :: d.drifted;
          Failures.attempt fails;
          Failures.fail fails (Printf.sprintf "exact count %s drifted: %g then %g" name a b)
        end)
      first counts

let exact_value d name = match d.first with Some l -> List.assoc name l | None -> nan

let cache_ratio (c : Engine.cache_info) =
  float_of_int c.Engine.hits /. float_of_int (max 1 (c.Engine.hits + c.Engine.misses))

let sum_ledgers f ledgers = List.fold_left (fun acc st -> acc + f st) 0 ledgers

(* Physical and logical page accesses (reads + writes) over ledgers. *)
let ledgers_counts ledgers =
  let sum f = float_of_int (sum_ledgers f ledgers) in
  ( sum Storage.Stats.total_reads +. sum Storage.Stats.total_writes,
    sum Storage.Stats.logical_reads +. sum Storage.Stats.logical_writes )

(* ---------- shared reporting ---------- *)

let finish ~fails ~setup ~(rounds : rounds) ~rlat ~words ~exact ~report ~lines =
  let ops = int_of_float (exact_value exact "ops") * rounds.n and timed_s = rounds.timed_s in
  let pages = exact_value exact "pages" and logical = exact_value exact "logical_pages" in
  let round_ops = exact_value exact "ops" in
  let rl = Samples.sorted rlat in
  (* The end-to-end metrics BENCHMARK.json gates on.  Wall-clock
     throughput and latency are reported beside them but not gated: on
     the box the benchmark was sized on the CPU runs up to 2x slower for
     minutes at a time, so their spread over ten runs (0.15-0.30 of the
     median) exceeds any bound the contract allows. *)
  let metrics =
    [
      ("pages_per_op", pages /. round_ops, "pages");
      ("logical_pages_per_op", logical /. round_ops, "pages");
      ("minor_words_per_op", words /. float_of_int ops, "words");
      ("top_heap_mb", top_heap_mb (), "MB");
      ("setup_s", Samples.median setup, "s");
    ]
  in
  let ops_per_s = Samples.median rounds.rates and read_p50 = Samples.median rounds.p50s in
  let read_p99 = Samples.pct_sorted rl 0.99 in
  let fl = fails.Failures.failed and at = fails.Failures.attempted in
  let error_rate = float_of_int fl /. float_of_int (max 1 at) in
  let lines =
    lines
    @ [
        describe_latency "read" rlat;
        Printf.sprintf "per round      median %.1f ops/s (pooled %.1f), median read p50 %.1f us (pooled %.1f), over %d rounds"
          (Samples.median rounds.rates) (float_of_int ops /. timed_s) (Samples.median rounds.p50s)
          (Samples.pct_sorted rl 0.5) rounds.n;
        Printf.sprintf "setup          median %.3f s over %d set-ups" (Samples.median setup)
          (Samples.count setup);
        Printf.sprintf "pages          %.3f physical, %.3f logical per op (exact, per round of %.0f ops)"
          (pages /. round_ops) (logical /. round_ops) round_ops;
        Printf.sprintf "error_rate     %g (%d failed of %d attempted ops and checks)" error_rate fl at;
        (if exact.drifted = [] then "exact counts   identical in every round"
         else "exact counts   DRIFTED: " ^ String.concat ", " exact.drifted);
      ]
    @ List.map
        (fun (name, v, unit) -> Printf.sprintf "  %-22s %14.4f %s" name v unit)
        ([ ("ops_per_s", ops_per_s, "1/s"); ("read_p50_us", read_p50, "us"); ("read_p99_us", read_p99, "us") ]
        @ metrics)
  in
  let report =
    [
      ("ops_per_s", json_obj [ ("value", json_float ops_per_s); ("unit", json_string "1/s"); ("stat", json_string "median over rounds") ]);
      ("read_p50_us", json_obj [ ("value", json_float read_p50); ("unit", json_string "us"); ("stat", json_string "median over rounds of the round median") ]);
      ("read_p99_us", json_obj [ ("value", json_float read_p99); ("unit", json_string "us"); ("samples", string_of_int (Samples.count rlat)) ]);
      ("error_rate", json_obj [ ("value", json_float error_rate); ("base", json_string "attempted ops and checks"); ("failed", string_of_int fl); ("attempted", string_of_int at) ]);
      ("read_samples", string_of_int (Samples.count rlat));
      ("setup_samples", string_of_int (Samples.count setup));
      ("timed_ops", string_of_int ops);
      ("timed_s", json_float timed_s);
      ("rounds", string_of_int rounds.n);
      ("round_ops_per_s", "[" ^ String.concat ", " (List.init rounds.n (fun i -> Printf.sprintf "%.1f" rounds.rates.Samples.a.(i))) ^ "]");
      ("ops_per_s_pooled", json_float (float_of_int ops /. timed_s));
      ("read_p50_us_pooled", json_float (Samples.pct_sorted rl 0.5));
      ("exact_counts_per_round", json_obj (List.map (fun (k, v) -> (k, json_float v)) (Option.value ~default:[] exact.first)));
      ("exact_drift", "[" ^ String.concat ", " (List.map json_string exact.drifted) ^ "]");
    ]
    @ report
  in
  { fails; metrics; report; lines }

(* ---------- point_zipf ---------- *)

let read_setup ~seed () =
  let rb = build_read_base ~seed in
  (rb, read_engine rb)

(* One pass of the point_zipf stream through [engine], each session on
   a fresh environment with a [buffer_pages] pool; every answer is
   checked against the scan oracles.  Returns the timed nanoseconds and
   the sessions' ledgers. *)
let point_pass ~fails ~lat ~words ~oracle ~tag_oracle ?(buffer_pages = pool_pages) rb engine ops =
  let n = Gom.Path.length rb.path in
  let total = ref 0. and ledgers = ref [] in
  let session = ref None in
  Array.iteri
    (fun k op ->
      let env = session_env ~buffer_pages rb ~session ~ledgers k in
      let what, f, check =
        match op with
        | P_fwd o ->
          ( "point forward",
            (fun () -> `Vals (Engine.forward ~env engine rb.path ~i:0 ~j:n o)),
            function `Vals vs -> same_vals vs (oracle_fwd oracle o) | _ -> None )
        | P_bwd t ->
          ( "point backward",
            (fun () -> `Oids (Engine.backward ~env engine rb.path ~i:0 ~j:n ~target:(Gom.Value.Ref t))),
            function `Oids os -> same_oids os (oracle_bwd oracle (Gom.Value.Ref t)) | _ -> None )
        | P_gql { tag; text } ->
          ( "point gql",
            (fun () -> `Oids (rows_oids (Gql.Eval.query ~env ~engine text).Gql.Eval.rows)),
            function
            | `Oids os -> same_oids os (oracle_bwd tag_oracle (Gom.Value.Str tag))
            | _ -> None )
      in
      total := !total +. run_op fails ~what ~lat ~words f check)
    ops;
  (!total, !ledgers)

let point_zipf ~seed ~seconds =
  let (rb, first), setup = repeated_setup ~n:3 (read_setup ~seed) in
  let fails = Failures.create () in
  let view = Gom.Store_view.live rb.store in
  let oracle = scan_oracle view rb.heap rb.path in
  let tag_oracle = scan_oracle view rb.heap rb.tag_path in
  let ops = point_ops ~seed rb in
  let rlat = Samples.create () and words = ref 0. and exact = new_drift () in
  let n = Gom.Path.length rb.path in
  let round k =
    let _, engine = if k = 0 then first else read_engine rb in
    let total, ledgers = point_pass ~fails ~lat:rlat ~words ~oracle ~tag_oracle rb engine ops in
    let pages, logical = ledgers_counts ledgers in
    let c = Engine.cache_info engine in
    note_exact exact fails
      [ ("ops", float_of_int (Array.length ops)); ("pages", pages); ("logical_pages", logical);
        ("plan_cache_hit_ratio", cache_ratio c);
        ("buffer_hits", float_of_int (sum_ledgers Storage.Stats.buffer_hits ledgers)) ];
    total
  in
  (* Cross-check the inverted oracle itself against the literal
     backward scan on a few targets. *)
  let scan_env = Core.Exec.make rb.store rb.heap in
  Array.iteri
    (fun k op ->
      match op with
      | P_bwd t when k < 16 ->
        Failures.check fails ~what:"oracle cross-check" (fun () ->
            same_oids (Core.Exec.backward_scan scan_env rb.path ~i:0 ~j:n ~target:(Gom.Value.Ref t))
              (oracle_bwd oracle (Gom.Value.Ref t)))
      | _ -> ())
    ops;
  let enough () = Samples.count rlat >= 1000 in
  let r = rounds ~seconds ~enough ~rlat ~round_ops:(Array.length ops) round in
  finish ~fails ~setup ~rounds:r ~rlat ~words:!words ~exact
    ~report:
      [
        ("config", json_obj [
          ("objects", "[" ^ String.concat ", " (List.map string_of_int read_counts) ^ "]");
          ("fan", string_of_int fan); ("defined_pct", "90"); ("pool_pages", string_of_int pool_pages);
          ("asrs", json_string "full/binary on T0.A1.A2.A3 and T0.A1.A2.A3.Tag");
          ("mix", json_string "3/8 Engine.forward, 3/8 Engine.backward, 1/4 GQL; Zipf(1) anchors");
          ("sessions_per_round", string_of_int point_segments);
          ("session", json_string "own Zipf ranking and own cold pool; one engine per round");
          ("round_ops", string_of_int (Array.length ops)) ]);
        ("buffer_hits_per_op", json_float (exact_value exact "buffer_hits" /. float_of_int (Array.length ops)));
      ]
    ~lines:[ Printf.sprintf "point_zipf     %d rounds x %d ops, %.2f s timed" r.n (Array.length ops) r.timed_s ]

(* ---------- batch_uniform ---------- *)

(* Batch answers against per-probe Engine answers for the same probes,
   on a separate unbuffered engine. *)
let check_per_probe ~path ~n oengine = function
  | `Fwd answer ->
    List.find_map (fun (o, vs) -> same_vals vs (sorted_vals (Engine.forward oengine path ~i:0 ~j:n o))) answer
  | `Bwd answer ->
    List.find_map
      (fun (v, os) -> same_oids os (sorted_oids (Engine.backward oengine path ~i:0 ~j:n ~target:v)))
      answer

(* One pass of the batch_uniform stream; [per_probe] batches are also
   checked probe by probe against [oengine]. *)
let batch_pass ~fails ~lat ~words ~oracle ~oengine ~per_probe rb engine ops =
  let n = Gom.Path.length rb.path in
  let total = ref 0. in
  Array.iteri
    (fun b op ->
      let per_probe = per_probe b in
      let what, f, check =
        match op with
        | B_fwd probes ->
          ( "forward batch",
            (fun () -> `Fwd (Engine.forward_batch engine rb.path ~i:0 ~j:n probes)),
            function
            | `Fwd answer as a -> (
              match check_fwd_batch oracle probes answer with
              | None when per_probe -> check_per_probe ~path:rb.path ~n oengine a
              | r -> r)
            | `Bwd _ -> None )
        | B_bwd targets ->
          ( "backward batch",
            (fun () -> `Bwd (Engine.backward_batch engine rb.path ~i:0 ~j:n ~targets)),
            function
            | `Bwd answer as a -> (
              match check_bwd_batch oracle targets answer with
              | None when per_probe -> check_per_probe ~path:rb.path ~n oengine a
              | r -> r)
            | `Fwd _ -> None )
      in
      total := !total +. run_op fails ~what ~lat ~words f check)
    ops;
  !total

let batch_uniform ~seed ~seconds =
  let (rb, first), setup = repeated_setup ~n:3 (read_setup ~seed) in
  let fails = Failures.create () in
  let oracle = scan_oracle (Gom.Store_view.live rb.store) rb.heap rb.path in
  let _, oengine = read_engine ~buffer_pages:0 rb in
  let ops = batch_ops ~seed rb in
  let round_probes = Array.fold_left (fun acc op -> acc + batch_size op) 0 ops in
  let rlat = Samples.create () and words = ref 0. and exact = new_drift () in
  let round k =
    let env, engine = if k = 0 then first else read_engine rb in
    let per_probe b = k = 0 && (b mod 16 = 0 || is_large b) in
    let total = batch_pass ~fails ~lat:rlat ~words ~oracle ~oengine ~per_probe rb engine ops in
    let pages, logical = ledgers_counts [ env.Core.Exec.stats ] in
    note_exact exact fails
      [ ("ops", float_of_int round_probes); ("pages", pages); ("logical_pages", logical);
        ("plan_cache_hit_ratio", cache_ratio (Engine.cache_info engine));
        ("buffer_hits", float_of_int (Storage.Stats.buffer_hits env.Core.Exec.stats)) ];
    total
  in
  let enough () = Samples.count rlat >= 1000 in
  let r = rounds ~seconds ~enough ~rlat ~round_ops:round_probes round in
  finish ~fails ~setup ~rounds:r ~rlat ~words:!words ~exact
    ~report:
      [
        ("config", json_obj [
          ("objects", "[" ^ String.concat ", " (List.map string_of_int read_counts) ^ "]");
          ("fan", string_of_int fan); ("defined_pct", "90"); ("pool_pages", string_of_int pool_pages);
          ("batch_sizes", Printf.sprintf "[%d, %d]" small_batch large_batch);
          ("round_batches", string_of_int batch_round);
          ("large_batches_per_round", "2");
          ("op", json_string "one probe; read latency is per batch call");
          ("round_probes", string_of_int round_probes) ]);
        ("buffer_hits_per_op", json_float (exact_value exact "buffer_hits" /. float_of_int round_probes));
      ]
    ~lines:[ Printf.sprintf "batch_uniform  %d rounds x %d batches (%d probes), %.2f s timed" r.n batch_round round_probes r.timed_s ]

(* ---------- update_mixed ---------- *)

type durable = {
  d_store : Gom.Store.t;
  d_path : Gom.Path.t;
  d_sizes : Gom.Schema.type_name -> int;
  db : Durability.Db.t;
  server : Parallel.Server.t;
  dir : string;
}

let wal_policy = Durability.Wal.Sync_never
let wal_policy_name = "Sync_never"

(* A durable base over [store] with the path's ASR registered (so
   recovery rebuilds and verifies it), served by a one-job server whose
   relations the Db's Immediate-policy maintenance manager keeps fresh. *)
let open_durable ~dir ~sizes store path =
  rm_rf dir;
  mkdir_p (Filename.dirname dir);
  let db = Durability.Db.create ~policy:wal_policy ~dir store in
  ignore (Durability.Db.register_asr db ~path:(Gom.Path.to_string path) ~kind:Core.Extension.Full ());
  let specs =
    [ { Parallel.Snapshot.sp_path = path; sp_kind = Core.Extension.Full; sp_decomposition = binary path } ]
  in
  let server =
    Parallel.Server.create ~jobs:1 ~sizes ~maintenance:(Durability.Db.maintenance db) ~specs store
  in
  { d_store = store; d_path = path; d_sizes = sizes; db; server; dir }

let build_durable ~seed ~dir () =
  let spec = spec ~seed update_counts in
  let store, path = Workload.Generator.build spec in
  open_durable ~dir ~sizes:(Workload.Generator.size_of spec) store path

let close_durable d =
  Parallel.Server.shutdown d.server;
  Durability.Db.close d.db;
  rm_rf d.dir

(* A served read against the scan oracle over the very snapshot it was
   served from. *)
let check_served snap q answers =
  let view = Parallel.Snapshot.store snap in
  let env = Parallel.Snapshot.env snap in
  match (q, answers) with
  | Parallel.Server.Forward { q_path; q_j; q_sources; _ }, [ Parallel.Server.Forward_answer a ] ->
    if List.map fst a <> sorted_oids q_sources then Some "served forward probe set differs"
    else
      List.find_map
        (fun (o, vs) -> same_vals vs (sorted_vals (Core.Exec.forward_scan env q_path ~i:0 ~j:q_j o)))
        a
  | Parallel.Server.Backward { q_path; q_targets; _ }, [ Parallel.Server.Backward_answer a ] ->
    check_bwd_batch (scan_oracle view env.Core.Exec.heap q_path) q_targets a
  | _ -> Some "served answer has the wrong shape"

let check_shape q answers =
  match (q, answers) with
  | Parallel.Server.Forward _, [ Parallel.Server.Forward_answer _ ]
  | Parallel.Server.Backward _, [ Parallel.Server.Backward_answer _ ] -> None
  | _ -> Some "served answer has the wrong shape"

let toggle_ok = function Ok _ -> None | Error e -> Some ("write txn failed: " ^ Printexc.to_string e)

(* The end of a run: close, recover, require the recovered ASRs to be
   verified, and check final reads on the recovered store against the
   scan oracle — which must also equal the oracle before the close.
   Returns how long recovery ([Durability.Db.open_]) took, in seconds. *)
let final_check fails d =
  let heap = (Durability.Db.env d.db).Core.Exec.heap in
  let before = scan_oracle (Gom.Store_view.live d.d_store) heap d.d_path in
  Parallel.Server.shutdown d.server;
  Durability.Db.close d.db;
  let db, open_ns = timed (fun () -> Durability.Db.open_ ~policy:wal_policy ~dir:d.dir ()) in
  Fun.protect
    ~finally:(fun () -> Durability.Db.close db; rm_rf d.dir)
    (fun () ->
      Failures.check fails ~what:"recovery" (fun () ->
          match Durability.Db.last_recovery db with
          | Some r when Durability.Db.verified r -> None
          | _ -> Some "recovered ASRs not verified");
      let env = Durability.Db.env db in
      let after = scan_oracle (Gom.Store_view.live (Durability.Db.store db)) env.Core.Exec.heap d.d_path in
      let engine = Engine.create ~sizes:d.d_sizes env in
      List.iter (Engine.register engine) (Durability.Db.asrs db);
      let n = Gom.Path.length d.d_path in
      Oid_tbl.iter
        (fun o want ->
          Failures.check fails ~what:"final forward read" (fun () ->
              match Oid_tbl.find_opt before.fwd o with
              | Some pre when pre <> want -> Some "recovered store differs from the pre-close store"
              | None -> Some "source lost in recovery"
              | Some _ -> same_vals (Engine.forward engine d.d_path ~i:0 ~j:n o) want))
        after.fwd;
      let t3 = extent (Durability.Db.store db) "T3" in
      Array.iteri
        (fun k t ->
          if k mod 100 = 0 then
            Failures.check fails ~what:"final backward read" (fun () ->
                let v = Gom.Value.Ref t in
                same_oids (Engine.backward engine d.d_path ~i:0 ~j:n ~target:v) (oracle_bwd after v)))
        t3;
      open_ns /. 1e9)

(* One round of update_mixed on a fresh durable base.  Returns the timed
   nanoseconds and the round's exact counts. *)
type mixed_acc = {
  rlat : Samples.t;
  wlat : Samples.t;
  words : float ref;
  setup : Samples.t;
}

let publish_delta before after =
  after.Parallel.Server.publishes - before.Parallel.Server.publishes

let mixed_round ~seed ~fails ~acc k =
  Gc.compact ();
  let dir = Filename.concat run_dir (Printf.sprintf "round-%d" k) in
  let d, setup_ns = timed (build_durable ~seed ~dir) in
  Samples.add acc.setup (setup_ns /. 1e9);
  let ops = mixed_ops ~seed ~ops:mixed_round_ops d.d_store d.d_path in
  let mstats = Core.Maintenance.stats (Durability.Db.maintenance d.db) in
  let m_pages0, m_logical0 = ledgers_counts [ mstats ] in
  let wal0 = Durability.Db.wal_appended d.db in
  let pub0 = Parallel.Server.publish_info d.server in
  let copied = ref 0 and writes = ref 0 and reads = ref 0 and total = ref 0. in
  Array.iter
    (function
      | Write w ->
        incr writes;
        let before = Parallel.Server.publish_info d.server in
        total :=
          !total
          +. run_op fails ~what:"write txn" ~lat:acc.wlat ~words:acc.words
               (fun () -> Parallel.Server.update d.server (fun st -> toggle st w))
               toggle_ok;
        let after = Parallel.Server.publish_info d.server in
        if publish_delta before after > 0 then copied := !copied + after.Parallel.Server.last_copied
      | Read q ->
        incr reads;
        let snap = Parallel.Server.pin d.server in
        let sampled = !reads mod 64 = 1 in
        total :=
          !total
          +. run_op fails ~what:"served read" ~lat:acc.rlat ~words:acc.words
               (fun () -> Parallel.Server.serve ~snapshot:snap d.server [ q ])
               (fun a -> if sampled then check_served snap q a else check_shape q a))
    ops;
  let s = Parallel.Server.stats d.server in
  let m_pages, m_logical = ledgers_counts [ mstats ] in
  let pub = Parallel.Server.publish_info d.server in
  let cache = Engine.cache_info (Parallel.Snapshot.engine (Parallel.Server.pin d.server)) in
  let publishes = publish_delta pub0 pub in
  let counts =
    [
      ("ops", float_of_int (Array.length ops));
      ("pages", float_of_int (s.Storage.Stats.s_total_reads + s.Storage.Stats.s_total_writes) +. m_pages -. m_pages0);
      ("logical_pages", float_of_int (s.Storage.Stats.s_logical_reads + s.Storage.Stats.s_logical_writes) +. m_logical -. m_logical0);
      ("writes", float_of_int !writes);
      ("wal_records_per_txn", float_of_int (Durability.Db.wal_appended d.db - wal0) /. float_of_int (max 1 !writes));
      ("publishes", float_of_int publishes);
      ("copied_per_publish", float_of_int !copied /. float_of_int (max 1 publishes));
      ("plan_cache_hit_ratio", cache_ratio cache);
    ]
  in
  (!total, counts, d)

let update_mixed ~seed ~seconds =
  let fails = Failures.create () in
  let acc = { rlat = Samples.create (); wlat = Samples.create (); words = ref 0.; setup = Samples.create () } in
  let exact = new_drift () in
  let enough () = Samples.count acc.rlat >= 1000 && Samples.count acc.wlat >= 1000 in
  (* Each round's base stays open until the next round starts, so the
     last one can end in the close/recover check. *)
  let pending = ref None in
  let round k =
    Option.iter close_durable !pending;
    let ns, counts, d = mixed_round ~seed ~fails ~acc k in
    pending := Some d;
    note_exact exact fails counts;
    ns
  in
  let r = rounds ~seconds ~enough ~rlat:acc.rlat ~round_ops:mixed_round_ops round in
  Option.iter (fun d -> ignore (final_check fails d)) !pending;
  let wl = Samples.sorted acc.wlat in
  finish ~fails ~setup:acc.setup ~rounds:r ~rlat:acc.rlat ~words:!(acc.words) ~exact
    ~report:
      [
        ("config", json_obj [
          ("objects", "[" ^ String.concat ", " (List.map string_of_int update_counts) ^ "]");
          ("fan", string_of_int fan); ("defined_pct", "90");
          ("wal_sync_policy", json_string wal_policy_name);
          ("maintenance_flush_policy", json_string "immediate");
          ("server_jobs", "1"); ("read_probes", string_of_int read_probes);
          ("write_positions", "[\"A1\", \"A2\", \"A3\"]");
          ("mix", json_string "1 write txn (set-membership toggle) per 3 Server.serve reads");
          ("round_ops", string_of_int mixed_round_ops) ]);
        ("write_p50_us", json_obj [ ("value", json_float (Samples.pct_sorted wl 0.5)); ("unit", json_string "us"); ("samples", string_of_int (Samples.count acc.wlat)) ]);
        ("write_p99_us", json_obj [ ("value", json_float (Samples.pct_sorted wl 0.99)); ("unit", json_string "us"); ("samples", string_of_int (Samples.count acc.wlat)) ]);
      ]
    ~lines:
      [
        Printf.sprintf "update_mixed   %d rounds x %d ops, %.2f s timed, WAL %s, maintenance immediate; the last round ends in close + recovery"
          r.n mixed_round_ops r.timed_s wal_policy_name;
        describe_latency "write" acc.wlat;
      ]
