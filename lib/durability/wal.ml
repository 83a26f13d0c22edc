type sync_policy = Sync_always | Sync_on_commit | Sync_never

type record =
  | Begin
  | Commit
  | Abort
  | Create of Gom.Oid.t * Gom.Schema.type_name
  | Set of Gom.Oid.t * Gom.Schema.attr_name * Gom.Value.t
  | Insert of Gom.Oid.t * Gom.Value.t
  | Remove of Gom.Oid.t * Gom.Value.t
  | Delete of Gom.Oid.t * Gom.Schema.type_name
  | Bind of string * Gom.Oid.t
  | Flush of int

let record_of_event store : Gom.Store.event -> record = function
  | Gom.Store.Created oid -> Create (oid, Gom.Store.type_of store oid)
  | Gom.Store.Attr_set { obj; attr; new_value; _ } -> Set (obj, attr, new_value)
  | Gom.Store.Set_inserted { set; elem } -> Insert (set, elem)
  | Gom.Store.Set_removed { set; elem } -> Remove (set, elem)
  | Gom.Store.Deleted { obj; ty } -> Delete (obj, ty)

(* ---------------- payload syntax ---------------- *)

let payload_of_record = function
  | Begin -> "begin"
  | Commit -> "commit"
  | Abort -> "abort"
  | Create (o, ty) -> Printf.sprintf "new %d %s" (Gom.Oid.to_int o) ty
  | Set (o, a, v) ->
    Printf.sprintf "set %d %s %s" (Gom.Oid.to_int o) a (Gom.Serial.value_to_string v)
  | Insert (o, v) ->
    Printf.sprintf "ins %d %s" (Gom.Oid.to_int o) (Gom.Serial.value_to_string v)
  | Remove (o, v) ->
    Printf.sprintf "rem %d %s" (Gom.Oid.to_int o) (Gom.Serial.value_to_string v)
  | Delete (o, ty) -> Printf.sprintf "del %d %s" (Gom.Oid.to_int o) ty
  | Bind (name, o) -> Printf.sprintf "name %S %d" name (Gom.Oid.to_int o)
  | Flush n -> Printf.sprintf "flush %d" n

(* Tokenise the first [count] space-separated fields, keeping the
   remainder verbatim (string payloads may contain spaces). *)
let fields ~count s =
  let len = String.length s in
  let rec go start acc remaining =
    if remaining = 0 then
      if start <= len then Some (List.rev (String.sub s start (len - start) :: acc))
      else None
    else
      match String.index_from_opt s start ' ' with
      | Some i -> go (i + 1) (String.sub s start (i - start) :: acc) (remaining - 1)
      | None -> None
  in
  go 0 [] count

let record_of_payload ~recno s =
  let oid s = Option.map Gom.Oid.of_int (int_of_string_opt s) in
  let value s = try Some (Gom.Serial.value_of_string ~line:recno s) with Gom.Serial.Corrupt _ -> None in
  match s with
  | "begin" -> Some Begin
  | "commit" -> Some Commit
  | "abort" -> Some Abort
  | _ -> (
    match fields ~count:1 s with
    | Some [ "new"; rest ] | Some [ "del"; rest ] -> (
      match String.split_on_char ' ' rest with
      | [ o; ty ] -> (
        match oid o with
        | Some o when ty <> "" ->
          Some (if String.length s >= 3 && s.[0] = 'n' then Create (o, ty) else Delete (o, ty))
        | _ -> None)
      | _ -> None)
    | Some [ "set"; rest ] -> (
      match fields ~count:2 rest with
      | Some [ o; a; v ] -> (
        match (oid o, value v) with
        | Some o, Some v when a <> "" -> Some (Set (o, a, v))
        | _ -> None)
      | _ -> None)
    | Some [ "ins"; rest ] | Some [ "rem"; rest ] -> (
      match fields ~count:1 rest with
      | Some [ o; v ] -> (
        match (oid o, value v) with
        | Some o, Some v ->
          Some (if s.[0] = 'i' then Insert (o, v) else Remove (o, v))
        | _ -> None)
      | _ -> None)
    | Some [ "name"; _ ] -> (
      try Scanf.sscanf s "name %S %d%!" (fun n o -> Some (Bind (n, Gom.Oid.of_int o)))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    | Some [ "flush"; rest ] -> (
      match int_of_string_opt rest with
      | Some n when n >= 0 -> Some (Flush n)
      | _ -> None)
    | _ -> None)

(* ---------------- appending ---------------- *)

type t = {
  file : Fault.file;
  policy : sync_policy;
  mutable appended : int;
}

let open_append ?fault ~policy path =
  let fault = match fault with Some f -> f | None -> Fault.real () in
  { file = Fault.open_append fault path; policy; appended = 0 }

let sync t = Fault.sync t.file

let append t record =
  let payload = payload_of_record record in
  let line =
    Printf.sprintf "%s %d %s\n"
      (Gom.Crc32.to_hex (Gom.Crc32.string payload))
      (String.length payload) payload
  in
  Fault.write t.file line;
  t.appended <- t.appended + 1;
  match (t.policy, record) with
  | Sync_always, _ -> sync t
  | Sync_on_commit, (Commit | Abort) -> sync t
  | (Sync_on_commit | Sync_never), _ -> ()

let close t = Fault.close t.file
let appended t = t.appended

(* ---------------- reading ---------------- *)

let parse_frame ~recno line =
  match fields ~count:2 line with
  | Some [ crc_hex; len_s; payload ] -> (
    match (Gom.Crc32.of_hex crc_hex, int_of_string_opt len_s) with
    | Some crc, Some len
      when len = String.length payload
           && Int32.equal crc (Gom.Crc32.string payload) ->
      record_of_payload ~recno payload
    | _ -> None)
  | _ -> None

module Scanner = struct
  exception Bad_record of { recno : int; off : int }

  type group = { g_records : record list; g_end : int }

  type t = {
    mutable buf : string;  (* fed bytes; [buf.[pos..]] is unconsumed *)
    mutable pos : int;
    mutable base : int;  (* absolute offset of [buf]'s first byte *)
    mutable recno : int;
    mutable in_txn : bool;
    mutable open_group : record list;  (* reversed, since last boundary *)
    mutable committed : int;
    mutable committed_records : int;
    mutable ready : group list;  (* reversed *)
  }

  let create () =
    {
      buf = "";
      pos = 0;
      base = 0;
      recno = 0;
      in_txn = false;
      open_group = [];
      committed = 0;
      committed_records = 0;
      ready = [];
    }

  (* Absolute offset just past the last whole record parsed. *)
  let consumed t = t.base + t.pos

  let seal t =
    t.in_txn <- false;
    t.committed <- consumed t;
    t.committed_records <- t.recno;
    t.ready <-
      { g_records = List.rev t.open_group; g_end = consumed t } :: t.ready;
    t.open_group <- []

  (* The commit-boundary rule: a record outside any
     begin..commit/abort span commits by itself; a span commits (or
     nets out) wholesale at its closing marker.  Each line is parsed in
     place and [pos] advances past it, so draining is linear in the
     bytes fed. *)
  let rec drain t =
    match String.index_from_opt t.buf t.pos '\n' with
    | None -> ()
    | Some nl ->
      let recno = t.recno + 1 in
      (match parse_frame ~recno (String.sub t.buf t.pos (nl - t.pos)) with
      | None -> raise (Bad_record { recno; off = consumed t })
      | Some record ->
        t.pos <- nl + 1;
        t.recno <- recno;
        t.open_group <- record :: t.open_group;
        (match record with
        | Begin -> t.in_txn <- true
        | Commit | Abort -> seal t
        | _ when t.in_txn -> ()
        | _ -> seal t));
      drain t

  let feed t s =
    let rest = String.length t.buf - t.pos in
    t.base <- consumed t;
    t.buf <- (if rest = 0 then s else String.sub t.buf t.pos rest ^ s);
    t.pos <- 0;
    drain t

  let take_groups t =
    let gs = List.rev t.ready in
    t.ready <- [];
    gs

  let committed_bytes t = t.committed
  let committed_records t = t.committed_records
  let pending_records t = List.length t.open_group
end

type scanned = {
  records : record list;
  committed : int;
  committed_bytes : int;
  valid_bytes : int;
  total_bytes : int;
  scanner : Scanner.t;
}

let scan path =
  let text = Fault.read_all path in
  let sc = Scanner.create () in
  (* Recovery is tolerant where a transport is not: a damaged record
     ends the valid prefix (everything after it is untrusted tail), and
     so does a final record with no terminator. *)
  (try Scanner.feed sc text with Scanner.Bad_record _ -> ());
  let valid_bytes = Scanner.consumed sc in
  sc.buf <- "";
  sc.pos <- 0;
  sc.base <- valid_bytes;
  let groups = Scanner.take_groups sc in
  {
    records =
      List.concat_map (fun g -> g.Scanner.g_records) groups
      @ List.rev sc.open_group;
    committed = sc.committed_records;
    committed_bytes = sc.committed;
    valid_bytes;
    total_bytes = String.length text;
    scanner = sc;
  }

exception Replay_error of string

let replay store records =
  let applied = ref 0 in
  List.iteri
    (fun i record ->
      let apply f =
        (try f ()
         with Gom.Store.Type_error m ->
           raise (Replay_error (Printf.sprintf "record %d: %s" (i + 1) m)));
        incr applied
      in
      match record with
      | Begin | Commit | Abort -> ()
      | Flush _ ->
        (* Maintenance flush barrier: the store carries no trace of it —
           recovery rebuilds every access support relation from scratch,
           so a replayed flush group is a (counted) no-op and a dropped
           one loses nothing. *)
        ()
      | Create (o, ty) -> apply (fun () -> Gom.Store.restore_object store o ty)
      | Set (o, a, v) -> apply (fun () -> Gom.Store.set_attr store o a v)
      | Insert (o, v) -> apply (fun () -> Gom.Store.insert_elem store o v)
      | Remove (o, v) -> apply (fun () -> Gom.Store.remove_elem store o v)
      | Delete (o, _) -> apply (fun () -> Gom.Store.delete store o)
      | Bind (name, o) -> apply (fun () -> Gom.Store.bind_name store name o))
    records;
  !applied
