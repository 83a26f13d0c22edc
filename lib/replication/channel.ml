type t = {
  fault : Durability.Fault.t;
  stats : Storage.Stats.t option;
  q : string Queue.t;
  mutable held : string option;  (* reorder hold-back *)
  mutable sends : int;
}

let create ?fault ?stats () =
  let fault = match fault with Some f -> f | None -> Durability.Fault.real () in
  { fault; stats; q = Queue.create (); held = None; sends = 0 }

let note t c = match t.stats with Some s -> Storage.Stats.note s c | None -> ()

(* Enqueue one delivery; a held-back frame rides out right after it,
   which is exactly the adjacent swap [Reorder_frames] models. *)
let enqueue t s =
  Queue.add s t.q;
  match t.held with
  | Some h ->
    t.held <- None;
    Queue.add h t.q
  | None -> ()

let send t frame =
  let encoded = Frame.encode frame in
  (* A partition raises [Retryable] out of [channel_action] before the
     frame enters the wire: nothing shipped, nothing counted — the
     sender's breaker/retry machinery owns the failure. *)
  let action = Durability.Fault.channel_action t.fault in
  t.sends <- t.sends + 1;
  match action with
  | Durability.Fault.Deliver ->
    note t Frame_shipped;
    enqueue t encoded
  | Durability.Fault.Drop ->
    note t Frame_shipped;
    note t Frame_dropped
  | Durability.Fault.Duplicate ->
    (* Two copies travelled: both count as shipped, and the receiver
       will apply one and reject the other. *)
    note t Frame_shipped;
    note t Frame_shipped;
    enqueue t encoded;
    enqueue t encoded
  | Durability.Fault.Reorder ->
    note t Frame_shipped;
    (match t.held with
    | Some h ->
      t.held <- None;
      Queue.add h t.q
    | None -> ());
    t.held <- Some encoded
  | Durability.Fault.Corrupt k ->
    note t Frame_shipped;
    enqueue t (Durability.Fault.corrupt_tail encoded k)

let recv t =
  if not (Queue.is_empty t.q) then Some (Queue.pop t.q)
  else
    match t.held with
    | Some h ->
      (* Nothing ever followed the held frame; the network delivers it
         late rather than never. *)
      t.held <- None;
      Some h
    | None -> None

let in_flight t = Queue.length t.q + match t.held with Some _ -> 1 | None -> 0
let sends t = t.sends

let discard t =
  let n = in_flight t in
  for _ = 1 to n do
    note t Frame_dropped
  done;
  Queue.clear t.q;
  t.held <- None;
  n

let chaos ~seed ~upto =
  let rng = Random.State.make [| seed; 0x5ebc1ca |] in
  List.filter_map
    (fun i ->
      if Random.State.int rng 6 <> 0 then None
      else
        let channel_fault =
          match Random.State.int rng 5 with
          | 0 -> Durability.Fault.Drop_frame
          | 1 -> Durability.Fault.Dup_frame
          | 2 -> Durability.Fault.Reorder_frames
          | 3 -> Durability.Fault.Corrupt_frame (1 + Random.State.int rng 8)
          | _ -> Durability.Fault.Partition (1 + Random.State.int rng 3)
        in
        Some { Durability.Fault.fail_at_frame = i; channel_fault })
    (List.init upto (fun i -> i + 1))
