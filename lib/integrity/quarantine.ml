(* Quarantine registry: the record of which access support relations
   (or single partitions) are currently distrusted, and the bridge that
   makes the engine's planner respect it.

   The registry is the single writer of the engine's health oracle:
   [attach] installs a callback closing over this registry, and every
   quarantine state change bumps each attached engine's plan-cache
   generation so no cached plan survives a health transition. *)

type entry = { q_asr : Core.Asr.t; q_part : int option; q_reason : string }

(* The lock covers [entries] and [engines]: the health oracle installed
   into engines is read from query domains while scrub/repair mutate the
   registry, so both sides go through it.  Engine generation bumps happen
   OUTSIDE the lock — the engine has its own mutex and its health oracle
   calls back into this registry, so nesting the two would deadlock. *)
type t = {
  lock : Mutex.t;
  mutable entries : entry list;
  mutable engines : Engine.t list;
}

let create () = { lock = Mutex.create (); entries = []; engines = [] }

let is_quarantined t index ~part =
  Mutex.protect t.lock (fun () ->
      List.exists
        (fun e -> e.q_asr == index && (e.q_part = None || e.q_part = Some part))
        t.entries)

let asr_quarantined t index =
  Mutex.protect t.lock (fun () -> List.exists (fun e -> e.q_asr == index) t.entries)

let bump engines = List.iter Engine.invalidate_plans engines

let attach t engine =
  let fresh =
    Mutex.protect t.lock (fun () ->
        if List.memq engine t.engines then false
        else begin
          t.engines <- engine :: t.engines;
          true
        end)
  in
  if fresh then
    Engine.set_health engine (fun index ~part ->
        not (is_quarantined t index ~part))

let quarantine ?(reason = "manual") ?part t index =
  let engines =
    Mutex.protect t.lock (fun () ->
        let covered =
          List.exists
            (fun e -> e.q_asr == index && (e.q_part = None || e.q_part = part))
            t.entries
        in
        if covered then []
        else begin
          (* A whole-relation quarantine subsumes its partition entries. *)
          let entries =
            if part = None then
              List.filter (fun e -> not (e.q_asr == index)) t.entries
            else t.entries
          in
          t.entries <- { q_asr = index; q_part = part; q_reason = reason } :: entries;
          t.engines
        end)
  in
  bump engines

let lift ?part t index =
  let engines =
    Mutex.protect t.lock (fun () ->
        let keep e =
          if not (e.q_asr == index) then true
          else match part with None -> false | Some p -> e.q_part <> Some p
        in
        let entries = List.filter keep t.entries in
        if List.length entries = List.length t.entries then []
        else begin
          t.entries <- entries;
          t.engines
        end)
  in
  bump engines

let apply_report t index (report : Scrub.report) =
  let parts =
    List.sort_uniq Int.compare
      (List.map Scrub.divergence_part report.Scrub.r_divergences)
  in
  List.iter
    (fun p ->
      quarantine ~reason:(Printf.sprintf "scrub: divergence in partition %d" p)
        ~part:p t index)
    parts;
  parts
