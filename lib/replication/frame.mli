(** The replication wire format: one self-verifying frame per message.

    {2 Format}

    A frame is a header line plus a raw body:
    {v frame <seq> <body-length> <crc32-hex>\n<body> v}

    The CRC covers the body, so in-flight corruption anywhere in the
    payload is detected before any field is trusted — the same framing
    discipline as the write-ahead log's records, one level up.  The body
    begins with a kind line:

    {v
    wal <gen> <off>\n<bytes>        a slice of generation <gen>'s log,
                                    starting at file offset <off>
    reset <gen> <n>\n<spec>*\n<snapshot>
                                    begin generation <gen>: n manifest
                                    spec lines, then the snapshot image
    digest <gen> <off> <crc> <n>\n(<crc> <spec>\n)*
                                    the primary's store digest and per-
                                    ASR extension digests, valid exactly
                                    at committed offset <off>
    v}

    Slices carry {e file offsets}, not record numbers: a replica's apply
    progress is a byte position in the primary's own log coordinates,
    which makes resume, gap detection and divergence messages exact. *)

type payload =
  | Wal_slice of { gen : int; off : int; bytes : string }
  | Reset of { gen : int; snapshot : string; specs : string list }
  | Digest_frame of {
      gen : int;
      off : int;
      store_crc : int32;
      asr_crcs : (string * int32) list;
          (** keyed by the manifest spec line ({!Durability.Db.spec_to_string}) *)
    }

type t = { seq : int; payload : payload }

type error = { at : int; reason : string }
(** A decode failure, located at the byte offset (within the encoded
    frame) where trust ended. *)

val encode : t -> string

val decode : string -> (t, error) result
(** Parse and verify one encoded frame.  Never raises: damaged input —
    including {!Durability.Fault.channel_fault.Corrupt_frame} flips —
    comes back as a located [Error]. *)

val describe : t -> string
(** One-line human description, for logs and error messages. *)
