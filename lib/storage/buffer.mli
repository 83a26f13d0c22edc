(** Pinned-page buffer pool.

    A bounded cache of page frames sitting between the access layers
    ({!Heap}, {!Bptree}) and the simulated pager, giving the accounting
    in {!Stats} a logical/physical split: every page request is a
    logical access, but only the ones the pool cannot serve become
    physical accesses.  Pages carry no bytes in this simulator, so a
    frame is pure bookkeeping — identity, recency and pin state are all
    the cost model needs.

    Frames are keyed by one [int] packing a segment with a page (see
    {!key}): heap pages and each access support relation's tree pages
    come from {e independent} pagers whose identifiers collide, so the
    owning segment (see {!Stats.in_segment}) namespaces them and a hot
    heap page can never masquerade as a hot tree page.

    Frames live in slot arrays preallocated at {!create}; an index maps
    keys to slots by open addressing and an intrusive doubly linked
    list keeps recency (LRU) or the clock ring.  A hit allocates
    nothing, and so does a miss unless every frame is pinned and the
    arrays must grow.

    The pool is a mechanism only — it keeps no hit/miss counters.
    {!Stats} owns the accounting and interprets the outcomes. *)

type policy = Lru | Clock
(** Eviction policy: exact least-recently-used (the victim is the
    least recently referenced unpinned frame, found by walking back
    from the tail of the recency list past pinned frames — O(1) unless
    pinned frames sit at the tail) or the classic clock / second-chance
    approximation. *)

type key = int
(** A segment and a page packed into one integer by {!key}. *)

val key : segment:int -> int -> key
(** [key ~segment page] packs [segment] above the page's 32 bits.
    @raise Invalid_argument unless [0 <= page < 2^32] and
    [0 <= segment < 2^30]. *)

type t

val create : ?policy:policy -> capacity:int -> unit -> t
(** A pool of at most [capacity] frames (plus transient overflow when
    every frame is pinned).  Default policy is [Lru].
    @raise Invalid_argument when [capacity <= 0]. *)

val capacity : t -> int
val policy : t -> policy

val resident : t -> int
(** Number of frames currently cached. *)

val mem : t -> key -> bool

type outcome =
  | Hit  (** Resident and previously referenced: no I/O. *)
  | Prefetch_hit
      (** Resident, but only because a prefetch staged it and no demand
          reference has touched it yet: the I/O was paid by the
          prefetch.  Subsequent references are plain [Hit]s. *)
  | Miss of { evicted : bool }
      (** Not resident: the page is fetched (one physical access) and
          admitted, evicting a victim frame when the pool was full. *)

val reference : t -> key -> outcome
(** A demand reference (read or write-through): classifies the access,
    refreshes recency, admits on miss. *)

val prefetch : t -> key -> [ `Resident | `Admitted of bool ]
(** Stage a page without a demand reference: [`Resident] when already
    cached (no-op), [`Admitted evicted] when fetched speculatively —
    one physical access now, so the next demand reference is a
    {!Prefetch_hit}. *)

val pin : t -> key -> unit
(** Pin the frame (admitting it first if absent, without eviction
    accounting): pinned frames are never chosen as eviction victims.
    Pins nest; when every frame is pinned, admissions transiently
    overflow [capacity] rather than fail. *)

val unpin : t -> key -> unit
(** Drop one pin.  Unpinning a frame that is not resident or not pinned
    is a no-op. *)

val reset : t -> unit
(** Drop every frame and pin. *)
