(* Deterministic inputs: the object bases, the op streams drawn from the
   workload seed, and the scan oracles answers are checked against.

   Every base comes from the chain generator (T0 -A1-> T1 -A2-> T2 -A3->
   T3, set-valued attributes of fan 2, 90 % of each level's objects
   defined).  The program under test only ever sees these generated
   inputs. *)

let pool_pages = 256
let read_counts = [ 3200; 6400; 12800; 25600 ]
let update_counts = [ 800; 1600; 3200; 6400 ]
let fan = 2

let spec ~seed counts =
  let defined = List.map (fun c -> c * 9 / 10) (List.filteri (fun i _ -> i < 3) counts) in
  Workload.Generator.spec ~seed ~counts ~defined ~fan:[ fan; fan; fan ] ()

let binary path = Core.Decomposition.binary ~m:(Gom.Path.arity path - 1)
let extent store ty = Array.of_list (Gom.Store.extent store ty)

let tag_of view o =
  match Gom.Store_view.get_attr view o "Tag" with Gom.Value.Str s -> s | _ -> ""

let gql_text tag = Printf.sprintf {|select t from t in T0 where t.A1.A2.A3.Tag = "%s"|} tag

(* ---------- the read base (point_zipf, batch_uniform) ---------- *)

type read_base = {
  spec : Workload.Generator.spec;
  store : Gom.Store.t;
  path : Gom.Path.t;  (** T0.A1.A2.A3 *)
  tag_path : Gom.Path.t;  (** T0.A1.A2.A3.Tag *)
  sizes : Gom.Schema.type_name -> int;
  heap : Storage.Heap.t;
  index : Core.Asr.t;
  tag_index : Core.Asr.t;
  t0 : Gom.Oid.t array;
  t3 : Gom.Oid.t array;
}

let build_read_base ~seed =
  let spec = spec ~seed read_counts in
  let store, path = Workload.Generator.build spec in
  let sizes = Workload.Generator.size_of spec in
  let heap = Storage.Heap.create ~size_of:sizes store in
  let tag_path = Gom.Path.parse (Gom.Store.schema store) "T0.A1.A2.A3.Tag" in
  let index = Core.Asr.create store path Core.Extension.Full (binary path) in
  let tag_index = Core.Asr.create store tag_path Core.Extension.Full (binary tag_path) in
  { spec; store; path; tag_path; sizes; heap; index; tag_index;
    t0 = extent store "T0"; t3 = extent store "T3" }

(* A fresh engine over the read base with both ASRs registered and the
   path profiles measured, so the timed region starts warm-planned but
   with a cold pool.  [buffer_pages = 0] gives an unbuffered ledger. *)
let read_engine ?(buffer_pages = pool_pages) rb =
  let env = Core.Exec.make ~buffer_pages rb.store rb.heap in
  let engine = Engine.create ~sizes:rb.sizes env in
  Engine.register engine rb.index;
  Engine.register engine rb.tag_index;
  ignore (Engine.profile engine rb.path);
  ignore (Engine.profile engine rb.tag_path);
  (env, engine)

(* ---------- scan oracles ---------- *)

module Oid_tbl = Hashtbl.Make (struct
  type t = Gom.Oid.t
  let equal = Gom.Oid.equal
  let hash = Gom.Oid.hash
end)

type oracle = {
  fwd : Gom.Value.t list Oid_tbl.t;  (** T0 source -> sorted path values *)
  bwd : (Gom.Value.t, Gom.Oid.t list) Hashtbl.t;  (** path value -> sorted T0 sources *)
}

(* The navigational scan oracle over one view: [Core.Exec.forward_scan]
   from every T0 object, inverted for the backward direction — the same
   answer [Core.Exec.backward_scan] computes one target at a time. *)
let scan_oracle view heap path =
  let env = Core.Exec.make_view view heap in
  let n = Gom.Path.length path in
  let fwd = Oid_tbl.create 4096 and bwd = Hashtbl.create 16384 in
  List.iter
    (fun o ->
      let vs = List.sort_uniq Gom.Value.compare (Core.Exec.forward_scan env path ~i:0 ~j:n o) in
      Oid_tbl.replace fwd o vs;
      List.iter
        (fun v -> Hashtbl.replace bwd v (o :: Option.value ~default:[] (Hashtbl.find_opt bwd v)))
        vs)
    (Gom.Store_view.extent view "T0");
  Hashtbl.filter_map_inplace (fun _ os -> Some (List.sort_uniq Gom.Oid.compare os)) bwd;
  { fwd; bwd }

let oracle_fwd oracle o =
  match Oid_tbl.find_opt oracle.fwd o with
  | Some vs -> vs
  | None -> invalid_arg (Printf.sprintf "no oracle entry for source %d" (Gom.Oid.to_int o))
let oracle_bwd oracle v = Option.value ~default:[] (Hashtbl.find_opt oracle.bwd v)

let sorted_vals vs = List.sort_uniq Gom.Value.compare vs
let sorted_oids os = List.sort_uniq Gom.Oid.compare os

let same_vals got want = if sorted_vals got = want then None else Some "forward answer differs"
let same_oids got want = if sorted_oids got = want then None else Some "backward answer differs"

(* GQL rows of [select t ...] are one-column rows of T0 references. *)
let rows_oids rows =
  List.map (function [ Gom.Value.Ref o ] -> o | _ -> invalid_arg "unexpected GQL row") rows

(* A batch answer must cover exactly the probe set, each probe with the
   oracle's answer. *)
let check_fwd_batch oracle probes answer =
  if List.map fst answer <> sorted_oids probes then Some "forward batch probe set differs"
  else
    List.find_map (fun (o, vs) -> same_vals vs (oracle_fwd oracle o)) answer

let check_bwd_batch oracle targets answer =
  if List.map fst answer <> sorted_vals targets then Some "backward batch probe set differs"
  else List.find_map (fun (v, os) -> same_oids os (oracle_bwd oracle v)) answer

(* ---------- samplers ---------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Zipf(1) over a seed-shuffled ranking of the array: rank r is drawn
   with probability proportional to 1/r. *)
let zipf rng arr =
  let ranked = Array.copy arr in
  shuffle rng ranked;
  let k = Array.length ranked in
  let cum = Array.make k 0. in
  let acc = ref 0. in
  for i = 0 to k - 1 do
    acc := !acc +. (1. /. float_of_int (i + 1));
    cum.(i) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng cum.(k - 1) in
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < u then bisect (mid + 1) hi else bisect lo mid
    in
    ranked.(bisect 0 (k - 1))

let uniform rng arr () = arr.(Random.State.int rng (Array.length arr))

(* ---------- op streams ---------- *)

type point_op =
  | P_fwd of Gom.Oid.t
  | P_bwd of Gom.Oid.t
  | P_gql of { tag : string; text : string }

(* point_zipf: 3/8 forward, 3/8 backward, 1/4 GQL text, Zipf(1) anchors.
   A round is 16 client sessions of 512 ops.  Each session draws from
   its own Zipf ranking and starts with its own cold 256-page pool (one
   engine, and so one plan cache, serves the whole round).  With a
   single ranking and pool, the cost per op would hang on which few
   objects the seed makes hot, and on which of the two ASRs the
   warmth-aware planner happens to warm first for backward queries on
   T0.A1.A2.A3 (either one embeds the path, and the warmer one keeps
   winning); 16 sessions average over both. *)
let point_segments = 16
let point_round_ops = 8192
let session_ops = point_round_ops / point_segments

(* The environment of the session op [k] belongs to: a fresh one, with
   a [buffer_pages] pool, at each session start; every session's ledger
   is collected in [ledgers]. *)
let session_env ~buffer_pages rb ~session ~ledgers k =
  match !session with
  | Some env when k mod session_ops <> 0 -> env
  | _ ->
    let env = Core.Exec.make ~buffer_pages rb.store rb.heap in
    session := Some env;
    ledgers := env.Core.Exec.stats :: !ledgers;
    env

let point_ops ~seed rb =
  let view = Gom.Store_view.live rb.store in
  Array.concat
    (List.init point_segments (fun segment ->
         let rng = Random.State.make [| seed; 1; segment |] in
         let src = zipf rng rb.t0 and tgt = zipf rng rb.t3 and tagged = zipf rng rb.t3 in
         Array.init session_ops (fun k ->
             match k mod 8 with
             | 0 | 1 | 2 -> P_fwd (src ())
             | 3 | 4 | 5 -> P_bwd (tgt ())
             | _ ->
               let tag = tag_of view (tagged ()) in
               P_gql { tag; text = gql_text tag })))

type batch_op = B_fwd of Gom.Oid.t list | B_bwd of Gom.Value.t list

(* batch_uniform: alternating forward/backward batches of uniform
   probes.  Of 128 batches per round, 126 hold 64 probes and two (one
   per direction) hold 2048, so a round is dominated in probes by the
   big batches while the 64-probe batches give the latency sample. *)
let batch_round = 128
let small_batch = 64
let large_batch = 2048
let is_large b = b = 62 || b = 127

let batch_ops ~seed rb =
  let rng = Random.State.make [| seed; 2 |] in
  let src = uniform rng rb.t0 and tgt = uniform rng rb.t3 in
  Array.init batch_round (fun b ->
      let size = if is_large b then large_batch else small_batch in
      if b mod 2 = 0 then B_fwd (List.init size (fun _ -> src ()))
      else B_bwd (List.init size (fun _ -> Gom.Value.Ref (tgt ()))))

let batch_size = function B_fwd l -> List.length l | B_bwd l -> List.length l

(* ---------- the durable base (update_mixed) ---------- *)

(* One write: toggle [elem]'s membership in the set [set] held by an
   object at path position [pos - 1]. *)
type write = { pos : int; set : Gom.Oid.t; elem : Gom.Value.t }

type mixed_op = Write of write | Read of Parallel.Server.query

let read_probes = 8
let mixed_round_ops = 512
let write_positions = [ 1; 2; 3 ]

(* Set instances behind A[pos] of every defined T[pos-1] object, and the
   T[pos] objects a toggle may insert. *)
let write_targets store =
  List.map
    (fun pos ->
      let holders =
        Array.of_list
          (List.filter_map
             (fun o ->
               match Gom.Store.get_attr store o (Printf.sprintf "A%d" pos) with
               | Gom.Value.Ref s -> Some s
               | _ -> None)
             (Gom.Store.extent store (Printf.sprintf "T%d" (pos - 1))))
      in
      (pos, (holders, extent store (Printf.sprintf "T%d" pos))))
    write_positions

(* update_mixed: one write txn for every three reads; writes cycle over
   path positions A1/A2/A3; reads alternate forward/backward batches of
   8 uniform probes.  Inputs depend only on the seed and the initial
   base, so every round replays the same stream on a fresh base. *)
let mixed_ops ~seed ~ops store path =
  let rng = Random.State.make [| seed; 3 |] in
  let targets = write_targets store in
  let t0 = extent store "T0" and t3 = extent store "T3" in
  let n = Gom.Path.length path in
  let writes = ref 0 and reads = ref 0 in
  Array.init ops (fun k ->
      if k mod 4 = 0 then begin
        let pos = List.nth write_positions (!writes mod 3) in
        incr writes;
        let holders, elems = List.assoc pos targets in
        let set = uniform rng holders () in
        Write { pos; set; elem = Gom.Value.Ref (uniform rng elems ()) }
      end
      else begin
        incr reads;
        if !reads mod 2 = 1 then
          Read
            (Parallel.Server.Forward
               { q_path = path; q_i = 0; q_j = n;
                 q_sources = List.init read_probes (fun _ -> uniform rng t0 ()) })
        else
          Read
            (Parallel.Server.Backward
               { q_path = path; q_i = 0; q_j = n;
                 q_targets = List.init read_probes (fun _ -> Gom.Value.Ref (uniform rng t3 ())) })
      end)

(* Apply one toggle inside a transaction; returns whether it inserted. *)
let toggle store w =
  Gom.Txn.with_txn store (fun () ->
      if List.exists (Gom.Value.equal w.elem) (Gom.Store.elements store w.set) then begin
        Gom.Store.remove_elem store w.set w.elem;
        false
      end
      else begin
        Gom.Store.insert_elem store w.set w.elem;
        true
      end)
