(* Audit the physical partitions of an access support relation against
   the object graph.

   Ground truth is a fresh [Extension.compute] over the live store —
   the relation every partition ought to be a projection of (paper,
   Defs. 3.4-3.7).  Each partition's B+ tree contents are compared
   against the expected projection multiset; reference counts make the
   comparison exact for exclusively owned trees.  Divergences are
   classified as missing references, phantom references, or — when a
   missing and a phantom projection differ only where exactly one of
   them is NULL — a wrong NULL marker (the shape of a maintenance
   update that recorded the wrong maximal partial path). *)

type divergence =
  | Missing of { part : int; proj : Relation.Tuple.t; count : int }
  | Phantom of { part : int; proj : Relation.Tuple.t; count : int }
  | Null_marker of {
      part : int;
      expected : Relation.Tuple.t;
      actual : Relation.Tuple.t;
      count : int;
    }

type report = {
  r_path : string;
  r_kind : string;
  r_cardinality : int;
  r_partitions : int;
  r_shared_partitions : int;
  r_sample : int option;
  r_divergences : divergence list;
}

let clean r = r.r_divergences = []

let divergence_part = function
  | Missing { part; _ } | Phantom { part; _ } | Null_marker { part; _ } -> part

let divergence_to_string = function
  | Missing { part; proj; count } ->
    Printf.sprintf "missing   p%d x%d %s" part count (Relation.Tuple.to_string proj)
  | Phantom { part; proj; count } ->
    Printf.sprintf "phantom   p%d x%d %s" part count (Relation.Tuple.to_string proj)
  | Null_marker { part; expected; actual; count } ->
    Printf.sprintf "null-mark p%d x%d %s (stored %s)" part count
      (Relation.Tuple.to_string expected)
      (Relation.Tuple.to_string actual)

(* Deterministic OID sample: a tuple is audited iff the Knuth hash of
   its leading defined reference lands in residue 0 mod [k].  The same
   extension always yields the same sample, so repeated doctor runs are
   comparable. *)
let in_sample k (tup : Relation.Tuple.t) =
  let rec leading_oid i =
    if i >= Array.length tup then None
    else
      match Gom.Value.oid tup.(i) with Some o -> Some o | None -> leading_oid (i + 1)
  in
  match leading_oid 0 with
  | None -> true
  | Some o -> Gom.Oid.to_int o * 2654435761 land max_int mod k = 0

(* One side of a NULL-marker divergence: equal width, every column
   either equal or NULL on exactly one side, at least one of the
   latter. *)
let null_mismatch (a : Relation.Tuple.t) (b : Relation.Tuple.t) =
  Array.length a = Array.length b
  &&
  let swapped = ref false in
  let ok = ref true in
  Array.iteri
    (fun c va ->
      let vb = b.(c) in
      if Gom.Value.equal va vb then ()
      else if Gom.Value.is_null va <> Gom.Value.is_null vb then swapped := true
      else ok := false)
    a;
  !ok && !swapped

(* Fold the missing/phantom lists of one partition, pairing NULL-marker
   counterparts greedily. *)
let classify ~part missing phantom =
  let phantom = ref phantom in
  let paired = ref [] in
  let missing =
    List.filter_map
      (fun (proj, want) ->
        match List.find_opt (fun (p, _) -> null_mismatch proj p) !phantom with
        | Some ((p, have) as entry) ->
          phantom := List.filter (fun e -> not (e == entry)) !phantom;
          let n = min want have in
          paired :=
            Null_marker { part; expected = proj; actual = p; count = n } :: !paired;
          if want > n then Some (proj, want - n) else None
        | None -> Some (proj, want))
      missing
  in
  List.map (fun (proj, count) -> Missing { part; proj; count }) missing
  @ List.map (fun (proj, count) -> Phantom { part; proj; count }) !phantom
  @ List.rev !paired

let audit_partition ?stats index truth ~part ~sample =
  (match stats with Some st -> Storage.Stats.note st Scrub | None -> ());
  let lo, hi = Core.Asr.partition_bounds index part in
  let cols = List.init (hi - lo + 1) (fun k -> lo + k) in
  let shared = Core.Asr.partition_shared index part in
  (* Expected multiset of projections, keyed by printed form. *)
  let want : (string, int * Relation.Tuple.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun tup ->
      if sample = None || Option.fold ~none:true ~some:(fun k -> in_sample k tup) sample
      then begin
        let proj = Relation.Tuple.project tup cols in
        let key = Relation.Tuple.to_string proj in
        let n = match Hashtbl.find_opt want key with Some (n, _) -> n | None -> 0 in
        Hashtbl.replace want key (n + 1, proj)
      end)
    truth;
  let present = Hashtbl.create 64 in
  List.iter
    (fun proj -> Hashtbl.replace present (Relation.Tuple.to_string proj) proj)
    (Core.Asr.scan_partition ?stats index part);
  let missing = ref [] in
  let phantom = ref [] in
  Hashtbl.iter
    (fun key (n, proj) ->
      Hashtbl.remove present key;
      let have = Core.Asr.partition_refcount index part proj in
      match sample with
      | Some _ ->
        (* Sampled audits check presence only: multiplicities cannot be
           compared against a partial expected multiset. *)
        if have = 0 then missing := (proj, n) :: !missing
      | None -> if have < n then missing := (proj, n - have) :: !missing)
    want;
  (* Surviving [present] entries are wanted by nobody — but only an
     exhaustive audit of an exclusively owned tree can call them
     phantoms (a sample misses expecteds; a co-sharer owns extras). *)
  if sample = None && not shared then
    Hashtbl.iter
      (fun _ proj ->
        let have = Core.Asr.partition_refcount index part proj in
        if have > 0 then phantom := (proj, have) :: !phantom)
      present;
  let order = List.sort (fun (a, _) (b, _) -> Relation.Tuple.compare a b) in
  classify ~part (order !missing) (order !phantom)

let run ?deadline ?fault ?sample ?stats index =
  (match sample with
  | Some k when k < 1 -> invalid_arg "Scrub.run: sample must be >= 1"
  | _ -> ());
  (* Partition audits are the scrub's whole steps: a budget expires
     between audits (never inside one), so a cancelled scrub has simply
     audited a prefix of the partitions. *)
  let checkpoint () =
    match deadline with Some d -> Core.Deadline.check d | None -> ()
  in
  (* Pending deferred-maintenance deltas are scheduled work, not
     divergence: flush them (a catch-up, counted as such) before
     auditing, so the comparison sees only genuine corruption. *)
  if Core.Asr.pending_deltas index > 0 then begin
    ignore (Core.Asr.flush ?stats index);
    match stats with
    | Some st -> Storage.Stats.note st Catchup_flush
    | None -> ()
  end;
  let truth =
    Relation.to_list
      (Core.Asr.restrict index
         (Core.Extension.compute (Core.Asr.store index) (Core.Asr.path index)
            (Core.Asr.kind index)))
  in
  let parts = Core.Asr.partition_count index in
  let audit part =
    checkpoint ();
    match fault with
    | None -> audit_partition ?stats index truth ~part ~sample
    | Some f ->
      (* Each partition audit counts as one logical read against the
         fault plan; transient failures are retried with deterministic
         backoff. *)
      Durability.Fault.with_retry ?stats f (fun () ->
          Durability.Fault.observe_read f;
          audit_partition ?stats index truth ~part ~sample)
  in
  let divergences = List.concat_map audit (List.init parts Fun.id) in
  {
    r_path = Gom.Path.to_string (Core.Asr.path index);
    r_kind = Core.Extension.name (Core.Asr.kind index);
    r_cardinality = List.length truth;
    r_partitions = parts;
    r_shared_partitions = Core.Asr.shared_partition_count index;
    r_sample = sample;
    r_divergences = divergences;
  }

let report_to_string r =
  let b = Buffer.create 256 in
  Printf.bprintf b "scrub %s over %s: %d partition(s), %d tuple(s)%s — %s\n" r.r_kind
    r.r_path r.r_partitions r.r_cardinality
    (match r.r_sample with
    | None -> ""
    | Some k -> Printf.sprintf " (1/%d sample)" k)
    (if clean r then "clean" else Printf.sprintf "%d divergence(s)" (List.length r.r_divergences));
  List.iter (fun d -> Printf.bprintf b "  %s\n" (divergence_to_string d)) r.r_divergences;
  Buffer.contents b

let divergence_to_json d =
  let field cls part count rest =
    Printf.sprintf "{\"class\": %S, \"part\": %d, \"count\": %d%s}" cls part count rest
  in
  match d with
  | Missing { part; proj; count } ->
    field "missing" part count
      (Printf.sprintf ", \"tuple\": %S" (Relation.Tuple.to_string proj))
  | Phantom { part; proj; count } ->
    field "phantom" part count
      (Printf.sprintf ", \"tuple\": %S" (Relation.Tuple.to_string proj))
  | Null_marker { part; expected; actual; count } ->
    field "null_marker" part count
      (Printf.sprintf ", \"expected\": %S, \"actual\": %S"
         (Relation.Tuple.to_string expected)
         (Relation.Tuple.to_string actual))

let report_to_json r =
  Printf.sprintf
    "{\"path\": %S, \"kind\": %S, \"cardinality\": %d, \"partitions\": %d, \
     \"shared_partitions\": %d, \"sample\": %s, \"clean\": %b, \"divergences\": [%s]}"
    r.r_path r.r_kind r.r_cardinality r.r_partitions r.r_shared_partitions
    (match r.r_sample with None -> "null" | Some k -> string_of_int k)
    (clean r)
    (String.concat ", " (List.map divergence_to_json r.r_divergences))
