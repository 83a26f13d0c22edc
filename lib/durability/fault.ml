exception Crash
exception Retryable of string

type plan = {
  crash_at_write : int;
  survive_bytes : int;
  corrupt_bytes : int;
}

type read_fault =
  | Flip_tail of int
  | Drop_tail of int
  | Transient of int
  | Crash_read

type read_plan = { fail_at_read : int; fault : read_fault }

type channel_fault =
  | Drop_frame
  | Dup_frame
  | Reorder_frames
  | Corrupt_frame of int
  | Partition of int

type channel_plan = { fail_at_frame : int; channel_fault : channel_fault }

type t = {
  mutable writes : int;
  plan : plan option;
  mutable reads : int;
  read_plan : read_plan option;
  mutable transient_left : int;
  mutable retries : int;
  mutable backoff_ticks : int;
  channel_plans : channel_plan list;
  mutable frames : int;
  mutable partition_left : int;
}

let make ?(channel_plans = []) ~plan ~read_plan () =
  {
    writes = 0;
    plan;
    reads = 0;
    read_plan;
    transient_left = 0;
    retries = 0;
    backoff_ticks = 0;
    channel_plans;
    frames = 0;
    partition_left = 0;
  }

let real () = make ~plan:None ~read_plan:None ()
let faulty plan = make ~plan:(Some plan) ~read_plan:None ()

let faulty_reads ?writes read_plan =
  make ~plan:writes ~read_plan:(Some read_plan) ()

let faulty_channel ?writes plans =
  make ~channel_plans:plans ~plan:writes ~read_plan:None ()

let writes t = t.writes
let reads t = t.reads
let retries t = t.retries
let backoff_ticks t = t.backoff_ticks
let frames t = t.frames

type sim = {
  path : string;
  mutable durable : string;    (* what an fsynced disk holds *)
  pending : Buffer.t;          (* handed to the OS, not yet synced *)
}

type chan = { oc : out_channel; fd : Unix.file_descr }

type file =
  | Real_file of t * chan
  | Sim_file of t * sim

let overwrite path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let read_all path =
  if not (Sys.file_exists path) then ""
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let open_append t path =
  match t.plan with
  | None ->
    let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
    Real_file (t, { oc; fd = Unix.descr_of_out_channel oc })
  | Some _ ->
    let durable = read_all path in
    if not (Sys.file_exists path) then overwrite path durable;
    Sim_file (t, { path; durable; pending = Buffer.create 256 })

(* Bitwise-not the last [k] bytes, the shape of a torn sector. *)
let corrupt_tail s k =
  if k <= 0 || s = "" then s
  else begin
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    for i = max 0 (n - k) to n - 1 do
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF))
    done;
    Bytes.to_string b
  end

let write file payload =
  match file with
  | Real_file (t, c) ->
    t.writes <- t.writes + 1;
    output_string c.oc payload;
    flush c.oc
  | Sim_file (t, s) ->
    t.writes <- t.writes + 1;
    (match t.plan with
    | Some p when t.writes = p.crash_at_write ->
      Buffer.add_string s.pending payload;
      let tail = Buffer.contents s.pending in
      let keep = min (max 0 p.survive_bytes) (String.length tail) in
      let survived = corrupt_tail (String.sub tail 0 keep) p.corrupt_bytes in
      overwrite s.path (s.durable ^ survived);
      raise Crash
    | _ -> Buffer.add_string s.pending payload)

let sync = function
  | Real_file (_, c) ->
    flush c.oc;
    Unix.fsync c.fd
  | Sim_file (_, s) ->
    s.durable <- s.durable ^ Buffer.contents s.pending;
    Buffer.clear s.pending;
    overwrite s.path s.durable

let close = function
  | Real_file (_, c) ->
    flush c.oc;
    (try Unix.fsync c.fd with Unix.Unix_error _ -> ());
    close_out c.oc
  | Sim_file (_, s) ->
    (* An orderly shutdown: the OS flushes its buffers. *)
    overwrite s.path (s.durable ^ Buffer.contents s.pending);
    s.durable <- s.durable ^ Buffer.contents s.pending;
    Buffer.clear s.pending

(* ------------------------------------------------------------------ *)
(* Read-side injection                                                 *)
(* ------------------------------------------------------------------ *)

(* Count one logical read against the plan; returns the transformation
   to apply to any data this read produced.  Transient faults arm a
   failure budget at the fault point and keep raising [Retryable] until
   it is spent, so a bounded-retry loop eventually succeeds. *)
let tick t =
  t.reads <- t.reads + 1;
  match t.read_plan with
  | None -> Fun.id
  | Some { fail_at_read; fault } ->
    let firing = t.reads = fail_at_read in
    (match fault with
    | Transient n when firing -> t.transient_left <- max t.transient_left n
    | _ -> ());
    if t.transient_left > 0 then begin
      t.transient_left <- t.transient_left - 1;
      raise
        (Retryable
           (Printf.sprintf "transient read failure (%d more)" t.transient_left))
    end;
    if not firing then Fun.id
    else
      match fault with
      | Crash_read -> raise Crash
      | Flip_tail k -> fun s -> corrupt_tail s k
      | Drop_tail k ->
        fun s -> if String.length s <= k then "" else String.sub s 0 (String.length s - k)
      | Transient _ -> Fun.id

let observe_read t =
  let (_ : string -> string) = tick t in
  ()

let read_through t path =
  let transform = tick t in
  transform (read_all path)

(* ------------------------------------------------------------------ *)
(* Channel (frame-level) injection                                     *)
(* ------------------------------------------------------------------ *)

type channel_action =
  | Deliver
  | Drop
  | Duplicate
  | Reorder
  | Corrupt of int

(* Count one frame send against the channel plans; returns what the
   transport should do with the frame.  [Partition n] arms a failure
   budget, like [Transient]: this send and the next [n - 1] raise
   [Retryable] — the same class [with_retry] and the circuit breaker
   absorb — and the link heals once the budget is spent. *)
let channel_action t =
  t.frames <- t.frames + 1;
  let firing =
    List.find_opt (fun p -> p.fail_at_frame = t.frames) t.channel_plans
  in
  (match firing with
  | Some { channel_fault = Partition n; _ } ->
    t.partition_left <- max t.partition_left n
  | _ -> ());
  if t.partition_left > 0 then begin
    t.partition_left <- t.partition_left - 1;
    raise
      (Retryable
         (Printf.sprintf "network partition (%d more)" t.partition_left))
  end;
  match firing with
  | None -> Deliver
  | Some { channel_fault; _ } -> (
    match channel_fault with
    | Drop_frame -> Drop
    | Dup_frame -> Duplicate
    | Reorder_frames -> Reorder
    | Corrupt_frame k -> Corrupt k
    | Partition _ -> Deliver)

let with_retry ?(attempts = 3) ?stats t f =
  let rec go k =
    try f ()
    with Retryable _ when k < attempts ->
      t.retries <- t.retries + 1;
      (match stats with Some st -> Storage.Stats.note st Retry | None -> ());
      (* Deterministic exponential backoff, recorded rather than slept:
         tests stay instant and the schedule is reproducible. *)
      t.backoff_ticks <- t.backoff_ticks + (1 lsl (k - 1));
      go (k + 1)
  in
  go 1
