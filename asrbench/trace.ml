(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code around each call
   into a layer's public functions; nothing inside the libraries is
   instrumented.  A span's name is "<layer>.<call>"; its parent is the
   span that was open when it started.  Spans stay in memory and are
   written out once, when the run ends. *)

type span = { id : int; parent : int; name : string; start : int64; stop : int64 }

let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let dur_ns s = Util.ns_between s.start s.stop

(* Run [f] under a span; returns its result and the span's duration in
   nanoseconds. *)
let timed name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let start = Util.now_ns () in
  let finish () =
    let stop = Util.now_ns () in
    stack := List.tl !stack;
    let s = { id; parent; name; start; stop } in
    spans := s :: !spans;
    dur_ns s
  in
  match f () with
  | r -> (r, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let span name f = fst (timed name f)

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Durations (in microseconds) of every span with this name. *)
let durations_us name =
  let s = Util.Samples.create () in
  List.iter (fun sp -> if sp.name = name then Util.Samples.add s (dur_ns sp /. 1e3)) !spans;
  s

(* Self time per layer, in milliseconds: each span's duration minus the
   part its child spans cover, summed by layer. *)
let self_ms_by_layer () =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace children sp.parent
          (dur_ns sp +. Option.value ~default:0. (Hashtbl.find_opt children sp.parent)))
    !spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let self = dur_ns sp -. Option.value ~default:0. (Hashtbl.find_opt children sp.id) in
      let l = layer sp.name in
      Hashtbl.replace by_layer l
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_layer l)))
    !spans;
  Hashtbl.fold (fun l ns acc -> (l, ns /. 1e6) :: acc) by_layer []
  |> List.sort compare

(* Write every span, one JSON object per line, oldest first; times are
   nanoseconds relative to the first span. *)
let write file =
  let all = List.rev !spans in
  let origin = match all with [] -> 0L | s :: _ -> s.start in
  let origin = List.fold_left (fun m s -> if s.start < m then s.start else m) origin all in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start\": %Ld, \"end\": %Ld}\n"
            s.id s.parent s.name (Int64.sub s.start origin) (Int64.sub s.stop origin))
        all)

let count () = List.length !spans
