exception Stalled of string

type t = {
  primary : Primary.t;
  channel : Channel.t;
  replica : Replica.t;
  breaker : Resilience.Breaker.t;
  stats : Storage.Stats.t option;
  stop_after_sends : int option;
  mutable killed : bool;
  mutable attached : bool;
  mutable steps : int;
}

let create ?config ?seed ?clock ?stats ?stop_after_sends ~primary ~channel
    ~replica () =
  let clock =
    match clock with
    | Some c -> c
    | None ->
      (* Deterministic session time: one tick per observation.  Real
         deployments inject a wall clock; tests get replayable breaker
         backoff schedules for free. *)
      let now = ref 0.0 in
      fun () ->
        now := !now +. 1.0;
        !now
  in
  let breaker = Resilience.Breaker.create ?config ?seed ~clock () in
  {
    primary;
    channel;
    replica;
    breaker;
    stats;
    stop_after_sends;
    killed = false;
    attached = false;
    steps = 0;
  }

let steps t = t.steps

let primary_dead t =
  t.killed
  ||
  match t.stop_after_sends with
  | Some k -> Channel.sends t.channel >= k
  | None -> false

let attach_once t =
  if not t.attached then begin
    (* Catch-up negotiation: a resumed replica already holds a byte
       prefix of some generation; if the primary still lives in that
       generation it continues from there instead of re-seeding. *)
    (* With a generation in hand this resumes shipping at the replica's
       byte offset; at gen 0 it still clears any stale resend buffer a
       previous connection left on the primary. *)
    Primary.attach t.primary
      ~gen:(Replica.generation t.replica)
      ~off:(Replica.wal_bytes t.replica);
    Replica.expect t.replica ~seq:(Primary.next_seq t.primary);
    t.attached <- true
  end

(* One pump round: ship (breaker-guarded), then drain every delivered
   frame into the replica, acking applied frames and rewinding on the
   rejects that mean frames were lost or damaged.  Duplicates and
   post-divergence refusals trigger no rewind — resending cannot help
   either. *)
let step t =
  t.steps <- t.steps + 1;
  attach_once t;
  if not (primary_dead t) then
    (match
       Resilience.Breaker.call ?stats:t.stats t.breaker (fun () ->
           Primary.ship t.primary t.channel)
     with
    | Ok _ | Error `Open -> ()
    | Error (`Failed _) -> ());
  let applied = ref 0 in
  let rec pump () =
    match Channel.recv t.channel with
    | None -> ()
    | Some encoded ->
      (match Replica.offer t.replica encoded with
      | Replica.Applied _ ->
        incr applied;
        Primary.ack t.primary ~seq:(Replica.expected_seq t.replica - 1)
      | Replica.Rejected (Replica.Stale _) | Replica.Rejected (Replica.Diverged _)
        ->
        ()
      | Replica.Rejected _ ->
        Primary.rewind t.primary ~seq:(Replica.expected_seq t.replica));
      pump ()
  in
  pump ();
  Replica.note_watermark t.replica (Primary.committed_bytes t.primary);
  (* Retransmission timeout, collapsed to one idle round: a frame lost
     at the very tail produces no later frame to expose the gap, so an
     idle step with unacknowledged frames re-arms them from the
     replica's expected sequence. *)
  if
    !applied = 0
    && Channel.in_flight t.channel = 0
    && Primary.unacked t.primary > 0
    && (not (primary_dead t))
    && Option.is_none (Replica.diverged t.replica)
  then Primary.rewind t.primary ~seq:(Replica.expected_seq t.replica);
  !applied

let quiescent t =
  Channel.in_flight t.channel = 0
  && (primary_dead t
     || ((not (Primary.resending t.primary))
        && Primary.lag t.primary = 0
        && Primary.unacked t.primary = 0))

let drain ?(max_steps = 10_000) t =
  let rec go n =
    if n > max_steps then
      raise
        (Stalled
           (Printf.sprintf "no quiescence after %d steps (lag %d, in flight %d)"
              max_steps (Primary.lag t.primary)
              (Channel.in_flight t.channel)));
    let applied = step t in
    if Option.is_some (Replica.diverged t.replica) then n
    else if applied = 0 && quiescent t then n
    else go (n + 1)
  in
  go 1

let kill t =
  t.killed <- true;
  Channel.discard t.channel
