type payload =
  | Wal_slice of { gen : int; off : int; bytes : string }
  | Reset of { gen : int; snapshot : string; specs : string list }
  | Digest_frame of {
      gen : int;
      off : int;
      store_crc : int32;
      asr_crcs : (string * int32) list;
    }

type t = { seq : int; payload : payload }
type error = { at : int; reason : string }

(* ---------------- encoding ---------------- *)

let body_of_payload = function
  | Wal_slice { gen; off; bytes } ->
    Printf.sprintf "wal %d %d\n%s" gen off bytes
  | Reset { gen; snapshot; specs } ->
    let b = Buffer.create (String.length snapshot + 64) in
    Buffer.add_string b (Printf.sprintf "reset %d %d\n" gen (List.length specs));
    List.iter (fun s -> Buffer.add_string b (s ^ "\n")) specs;
    Buffer.add_string b snapshot;
    Buffer.contents b
  | Digest_frame { gen; off; store_crc; asr_crcs } ->
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf "digest %d %d %s %d\n" gen off
         (Gom.Crc32.to_hex store_crc)
         (List.length asr_crcs));
    List.iter
      (fun (spec, crc) ->
        Buffer.add_string b (Printf.sprintf "%s %s\n" (Gom.Crc32.to_hex crc) spec))
      asr_crcs;
    Buffer.contents b

let encode { seq; payload } =
  let body = body_of_payload payload in
  Printf.sprintf "frame %d %d %s\n%s" seq (String.length body)
    (Gom.Crc32.to_hex (Gom.Crc32.string body))
    body

(* ---------------- decoding ---------------- *)

let err at fmt = Format.kasprintf (fun reason -> Error { at; reason }) fmt

(* Split off the first line of [s] starting at [from]. *)
let first_line s from =
  match String.index_from_opt s from '\n' with
  | None -> None
  | Some nl -> Some (String.sub s from (nl - from), nl + 1)

let parse_body ~at seq body =
  match first_line body 0 with
  | None -> err at "frame body: missing kind line"
  | Some (kind_line, rest_off) -> (
    let rest () = String.sub body rest_off (String.length body - rest_off) in
    match String.split_on_char ' ' kind_line with
    | [ "wal"; gen_s; off_s ] -> (
      match (int_of_string_opt gen_s, int_of_string_opt off_s) with
      | Some gen, Some off when gen > 0 && off >= 0 ->
        Ok { seq; payload = Wal_slice { gen; off; bytes = rest () } }
      | _ -> err at "wal frame: malformed generation/offset")
    | [ "reset"; gen_s; n_s ] -> (
      match (int_of_string_opt gen_s, int_of_string_opt n_s) with
      | Some gen, Some n when gen > 0 && n >= 0 ->
        let rec specs acc k off =
          if k = 0 then Ok (List.rev acc, off)
          else
            match first_line body off with
            | None -> err (at + off) "reset frame: truncated spec list"
            | Some (line, off') -> specs (line :: acc) (k - 1) off'
        in
        (match specs [] n rest_off with
        | Error e -> Error e
        | Ok (specs, snap_off) ->
          let snapshot =
            String.sub body snap_off (String.length body - snap_off)
          in
          Ok { seq; payload = Reset { gen; snapshot; specs } })
      | _ -> err at "reset frame: malformed generation/count")
    | [ "digest"; gen_s; off_s; crc_s; n_s ] -> (
      match
        ( int_of_string_opt gen_s,
          int_of_string_opt off_s,
          Gom.Crc32.of_hex crc_s,
          int_of_string_opt n_s )
      with
      | Some gen, Some off, Some store_crc, Some n when gen > 0 && n >= 0 ->
        let rec crcs acc k off =
          if k = 0 then Ok (List.rev acc)
          else
            match first_line body off with
            | None -> err (at + off) "digest frame: truncated digest list"
            | Some (line, off') -> (
              match String.index_opt line ' ' with
              | None -> err (at + off) "digest frame: malformed digest line"
              | Some sp -> (
                let crc_hex = String.sub line 0 sp in
                let spec =
                  String.sub line (sp + 1) (String.length line - sp - 1)
                in
                match Gom.Crc32.of_hex crc_hex with
                | Some crc -> crcs ((spec, crc) :: acc) (k - 1) off'
                | None -> err (at + off) "digest frame: bad CRC %S" crc_hex))
        in
        (match crcs [] n rest_off with
        | Error e -> Error e
        | Ok asr_crcs ->
          Ok { seq; payload = Digest_frame { gen; off; store_crc; asr_crcs } })
      | _ -> err at "digest frame: malformed header fields")
    | kind :: _ -> err at "unknown frame kind %S" kind
    | [] -> err at "frame body: empty kind line")

let decode s =
  match first_line s 0 with
  | None -> err 0 "missing frame header terminator"
  | Some (header, body_start) -> (
    match String.split_on_char ' ' header with
    | [ "frame"; seq_s; len_s; crc_s ] -> (
      match
        (int_of_string_opt seq_s, int_of_string_opt len_s, Gom.Crc32.of_hex crc_s)
      with
      | Some seq, Some len, Some crc when seq >= 0 && len >= 0 ->
        let have = String.length s - body_start in
        if have <> len then
          err body_start "frame body: %d bytes, header declares %d" have len
        else
          let body = String.sub s body_start len in
          if not (Int32.equal (Gom.Crc32.string body) crc) then
            err body_start "frame CRC mismatch over %d-byte body" len
          else parse_body ~at:body_start seq body
      | _ -> err 0 "malformed frame header %S" header)
    | _ -> err 0 "malformed frame header %S" header)

let describe { seq; payload } =
  match payload with
  | Wal_slice { gen; off; bytes } ->
    Printf.sprintf "seq %d: wal gen %d [%d, %d)" seq gen off
      (off + String.length bytes)
  | Reset { gen; specs; snapshot } ->
    Printf.sprintf "seq %d: reset to gen %d (%d specs, %d-byte snapshot)" seq
      gen (List.length specs)
      (String.length snapshot)
  | Digest_frame { gen; off; asr_crcs; _ } ->
    Printf.sprintf "seq %d: digest gen %d @ %d (%d asrs)" seq gen off
      (List.length asr_crcs)
