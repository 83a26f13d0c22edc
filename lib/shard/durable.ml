exception Shard_error of string

let shard_error fmt = Format.kasprintf (fun s -> raise (Shard_error s)) fmt

(* ---------------- layout ---------------- *)

let shards_file dir = Filename.concat dir "SHARDS"

(* The Db keeps the directory earlier layouts gave shard 0, the write
   endpoint, so their bases still open. *)
let db_dir dir = Filename.concat dir "shard-0"

let shards_header = "asr-shards v1"

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let write_shards_manifest dir ~placement specs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (shards_header ^ "\n");
  Buffer.add_string buf (Printf.sprintf "shards %d\n" (Placement.shards placement));
  Buffer.add_string buf
    (Printf.sprintf "placement %s\n" (Placement.to_string placement));
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "asr %s\n" (Durability.Db.spec_to_string s)))
    specs;
  Durability.Fault.atomic_write (shards_file dir) (Buffer.contents buf)

let read_shards_manifest dir =
  let path = shards_file dir in
  let text =
    try Durability.Fault.read_all path
    with Sys_error m -> shard_error "cannot read shards manifest: %s" m
  in
  let lines =
    String.split_on_char '\n' text |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match lines with
  | h :: rest when h = shards_header ->
    let shards = ref None and placement = ref None and specs = ref [] in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "shards"; n ] -> shards := int_of_string_opt n
        | [ "placement"; p ] -> placement := Some p
        | "asr" :: spec_parts -> (
          match Durability.Db.spec_of_string (String.concat " " spec_parts) with
          | Some s -> specs := s :: !specs
          | None -> shard_error "shards manifest: malformed spec %S" line)
        | _ -> shard_error "shards manifest: malformed line %S" line)
      rest;
    let n =
      match !shards with
      | Some n when n >= 1 -> n
      | Some _ | None -> shard_error "shards manifest: missing shard count"
    in
    let placement =
      match !placement with
      | Some p -> (
        match Placement.of_string ~shards:n p with
        | Some pl -> pl
        | None -> shard_error "shards manifest: bad placement %S" p)
      | None -> shard_error "shards manifest: missing placement"
    in
    (placement, List.rev !specs)
  | h :: _ -> shard_error "shards manifest: unknown header %S" h
  | [] -> shard_error "shards manifest %s: missing or empty" path

(* ---------------- the handle ---------------- *)

type t = {
  t_dir : string;
  db : Durability.Db.t;
  grp : Group.t;
  mutable specs : Durability.Db.spec list;
}

let group t = t.grp
let db t = t.db
let specs t = t.specs

(* Fragments go to the Db's maintenance manager (through the group), so
   the Db's flush framing covers them, but never through
   [Db.register_asr]: the Db's manifest must stay empty of them, or its
   recovery would rebuild each fragment unfiltered. *)
let register_fragments grp spec =
  let path, kind, dec =
    try Durability.Db.spec_components (Group.store grp) spec
    with Durability.Db.Recovery_error m -> shard_error "%s" m
  in
  Group.register grp ~path ~kind ~dec

let assemble ?jobs ~dir ~placement ~specs db =
  let grp =
    Group.create_on ?jobs ~placement ~manager:(Durability.Db.maintenance db)
      (Durability.Db.env db)
  in
  List.iter (register_fragments grp) specs;
  { t_dir = dir; db; grp; specs }

let create ?policy ?fault ?jobs ?(placement = Placement.make 1) ~dir store =
  if Sys.file_exists (shards_file dir) then
    shard_error "%s already holds a shard group" dir;
  mkdir_p dir;
  let db = Durability.Db.create ?fault ?policy ~dir:(db_dir dir) store in
  write_shards_manifest dir ~placement [];
  assemble ?jobs ~dir ~placement ~specs:[] db

let open_ ?policy ?fault ?jobs ~dir () =
  let placement, specs = read_shards_manifest dir in
  let db = Durability.Db.open_ ?fault ?policy ~dir:(db_dir dir) () in
  assemble ?jobs ~dir ~placement ~specs db

let register t ~path ~kind ?dec () =
  let spec = { Durability.Db.s_kind = kind; s_dec = dec; s_path = path } in
  let dup =
    List.exists
      (fun s -> String.equal (Durability.Db.spec_to_string s)
          (Durability.Db.spec_to_string spec))
      t.specs
  in
  if dup then shard_error "duplicate registration: %s" (Durability.Db.spec_to_string spec);
  register_fragments t.grp spec;
  t.specs <- t.specs @ [ spec ];
  write_shards_manifest t.t_dir ~placement:(Group.placement t.grp) t.specs

let close t =
  Group.close t.grp;
  Durability.Db.close t.db
