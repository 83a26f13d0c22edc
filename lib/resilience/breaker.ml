(* Circuit breaker: Closed / Open / Half-open with trip-after-k
   consecutive failures and jittered exponential backoff.

   The protected call runs outside the breaker's lock; only state
   transitions are serialised.  While open, calls short-circuit to
   [Error `Open] (recorded as [breaker_open] when handed a stats sheaf)
   until the backoff elapses; the first call after that is the
   half-open probe — exactly one in-flight probe is admitted, and its
   outcome either closes the circuit or re-opens it with a doubled
   backoff.  Jitter is drawn from a seeded [Random.State], so a given
   (seed, clock, outcome) history replays the same trip schedule. *)

type config = {
  trip_after : int;  (* consecutive failures that open the circuit *)
  base_backoff_s : float;
  max_backoff_s : float;
  jitter : float;  (* +/- fraction of the backoff, in [0, 1] *)
}

let default_config =
  { trip_after = 3; base_backoff_s = 0.1; max_backoff_s = 30.; jitter = 0.2 }

type state = Closed | Open | Half_open

type t = {
  config : config;
  clock : unit -> float;
  failure : exn -> bool;
  rng : Random.State.t;
  lock : Mutex.t;
  mutable failures : int;  (* consecutive, while closed *)
  mutable consecutive_trips : int;  (* backoff exponent *)
  mutable open_until : float option;  (* Some = circuit open *)
  mutable probing : bool;  (* the single half-open probe is in flight *)
  mutable trips_total : int;
}

(* Transient faults injected by the durability layer are the default
   failure class; anything else is a logic error and propagates. *)
let default_failure = function Durability.Fault.Retryable _ -> true | _ -> false

let create ?(config = default_config) ?(failure = default_failure) ?(seed = 0x5eed)
    ~clock () =
  if config.trip_after < 1 then invalid_arg "Breaker.create: trip_after must be >= 1";
  if config.base_backoff_s <= 0. then
    invalid_arg "Breaker.create: base_backoff_s must be positive";
  if not (config.jitter >= 0. && config.jitter <= 1.) then
    invalid_arg "Breaker.create: jitter must be in [0, 1]";
  {
    config;
    clock;
    failure;
    rng = Random.State.make [| seed |];
    lock = Mutex.create ();
    failures = 0;
    consecutive_trips = 0;
    open_until = None;
    probing = false;
    trips_total = 0;
  }

let state t =
  Mutex.protect t.lock (fun () ->
      match t.open_until with
      | None -> Closed
      | Some u -> if t.clock () >= u && not t.probing then Half_open else Open)

let trips t = Mutex.protect t.lock (fun () -> t.trips_total)

let trip t =
  t.consecutive_trips <- t.consecutive_trips + 1;
  t.trips_total <- t.trips_total + 1;
  t.failures <- 0;
  let backoff =
    Float.min t.config.max_backoff_s
      (t.config.base_backoff_s *. Float.pow 2. (float_of_int (t.consecutive_trips - 1)))
  in
  let jittered =
    backoff *. (1. +. (t.config.jitter *. ((2. *. Random.State.float t.rng 1.) -. 1.)))
  in
  t.open_until <- Some (t.clock () +. jittered)

let call ?stats t f =
  let admitted =
    Mutex.protect t.lock (fun () ->
        match t.open_until with
        | None -> true
        | Some u when t.clock () >= u && not t.probing ->
          (* Backoff elapsed: admit this call as the half-open probe. *)
          t.probing <- true;
          true
        | Some _ -> false)
  in
  if not admitted then begin
    (match stats with Some s -> Storage.Stats.note s Breaker_open | None -> ());
    Error `Open
  end
  else begin
    match f () with
    | v ->
      Mutex.protect t.lock (fun () ->
          t.failures <- 0;
          t.consecutive_trips <- 0;
          t.open_until <- None;
          t.probing <- false);
      Ok v
    | exception e when t.failure e ->
      Mutex.protect t.lock (fun () ->
          if t.probing || Option.is_some t.open_until then begin
            (* Failed half-open probe: re-open with doubled backoff. *)
            t.probing <- false;
            trip t
          end
          else begin
            t.failures <- t.failures + 1;
            if t.failures >= t.config.trip_after then trip t
          end);
      Error (`Failed e)
    | exception e ->
      (* Not a breaker-class failure: release the probe slot and let the
         caller see the raw exception. *)
      Mutex.protect t.lock (fun () -> t.probing <- false);
      raise e
  end
