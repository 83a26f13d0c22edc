(** Failover promotion: turn a replica directory into a primary, or
    refuse with a typed, located divergence report.

    Promotion is crash recovery plus an audit.  The replica's files are
    opened exactly like a crashed durable base ({!Durability.Db.open_}:
    torn tail truncated to the committed prefix, committed groups
    replayed, every registered ASR rebuilt and verified against
    {!Core.Extension.compute}), then every partition tree is scrubbed,
    and — when the dead primary's files are still readable — the
    replica's log is checked byte-for-byte as a prefix of the
    primary's, and the primary's own snapshot+prefix replay is digested
    and compared against the promoted store and ASRs.  Any mismatch is
    a {!divergence}: typed, byte-located, and fatal to promotion. *)

type divergence =
  | Log_prefix_mismatch of { byte : int }
      (** replica log differs from the primary's at [byte] *)
  | Log_beyond_primary of { bytes : int; primary_bytes : int }
      (** replica log is longer than the primary's — impossible under
          correct shipping *)
  | Generation_skew of { replica_gen : int; primary_gen : int }
      (** checkpoint generations differ; histories not comparable *)
  | Snapshot_mismatch of { gen : int }
      (** the shared generation's snapshot images differ *)
  | Store_digest_mismatch of { off : int; expected : string; actual : string }
      (** promoted store digest differs from the primary's
          snapshot+prefix replay at committed byte [off] *)
  | Asr_digest_mismatch of {
      spec : string;
      off : int;
      expected : string;
      actual : string;
    }  (** as above, for one registered ASR *)
  | Asr_rebuild_failed of { spec : string }
      (** recovery's own rebuild verification failed *)
  | Scrub_divergences of { spec : string; count : int; first : string }
      (** the integrity scrubber found [count] physical divergences *)
  | Primary_unreadable of { what : string }
      (** the primary's files exist but fail their own checks, so the
          comparison cannot be trusted *)

type report = {
  f_dir : string;
  f_generation : int;
  f_recovery : Durability.Db.report;  (** the crash-recovery report *)
  f_committed_bytes : int;  (** log bytes surviving truncation *)
  f_store_digest : string;  (** hex CRC of the promoted store *)
  f_asr_digests : (string * string) list;  (** spec → hex CRC *)
  f_checked_against : string option;  (** primary dir, if compared *)
  f_divergences : divergence list;  (** empty iff promotion succeeded *)
}

val promoted : report -> bool
val report_to_string : report -> string
val report_to_json : report -> string

val promote :
  ?primary_dir:string ->
  dir:string ->
  unit ->
  (Durability.Db.t * report, report) result
(** Promote the replica at [dir].  [Ok (db, report)] removes the
    [REPLICA] marker and hands back a live, writable durable base;
    [Error report] leaves the directory untouched (marker intact,
    handle closed) so the operator can re-seed or inspect.
    [?primary_dir] points at the dead primary's directory for the
    digest comparison; without it only recovery verification and
    scrubbing gate the promotion.
    @raise Replica.Replica_error if [dir] has no [REPLICA] marker. *)
