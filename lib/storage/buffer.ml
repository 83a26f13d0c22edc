type policy = Lru | Clock

type key = int

(* A key packs the segment into the bits above the page identifier. *)
let page_bits = 32

let key ~segment page =
  if page < 0 || page lsr page_bits <> 0 || segment < 0 || segment lsr (62 - page_bits) <> 0
  then invalid_arg "Buffer.key: segment or page out of range";
  (segment lsl page_bits) lor page

(* Frames live in preallocated slot arrays.  Resident slots form one
   circular doubly linked list through [prev]/[next]; free slots are a
   stack threaded through [next].  Under [Lru], [head] is the most
   recently used frame and [prev.(head)] the least recently used one;
   under [Clock], [head] is the hand and the list is the ring, so an
   admission lands just behind the hand.  [index] maps a key to its
   slot by open addressing with linear probing (slot + 1; 0 = empty),
   kept at most half full. *)
type t = {
  capacity : int;
  pol : policy;
  mutable keys : int array;
  mutable pins : int array;
  mutable refbit : bool array;  (* Clock second chance *)
  mutable prefetched : bool array;  (* staged by prefetch, no demand reference yet *)
  mutable prev : int array;
  mutable next : int array;
  mutable head : int;  (* -1 when no frame is resident *)
  mutable free : int;  (* top of the free-slot stack, -1 when full *)
  mutable used : int;
  mutable index : int array;
  mutable bits : int;  (* [index] has [1 lsl bits] cells *)
}

(* Index cells for [slots] slots: the least power of two >= 2 slots. *)
let index_bits slots =
  let b = ref 1 in
  while 1 lsl !b < 2 * slots do
    incr b
  done;
  !b

(* Fibonacci hashing: the top [bits] bits of the key times an odd
   constant. *)
let home t k = (k * 0x9E3779B97F4A7C1) lsr (63 - t.bits)

(* The probe functions below are top-level, not local closures, so
   that no lookup allocates. *)
let next_cell t i = (i + 1) land (Array.length t.index - 1)

let rec probe t k i =
  let s = t.index.(i) - 1 in
  if s < 0 then -1 else if t.keys.(s) = k then s else probe t k (next_cell t i)

(* The slot holding [k], or -1. *)
let find t k = probe t k (home t k)

let rec place t s i = if t.index.(i) = 0 then t.index.(i) <- s + 1 else place t s (next_cell t i)
let index_add t s = place t s (home t t.keys.(s))

let rec locate t k i = if t.keys.(t.index.(i) - 1) = k then i else locate t k (next_cell t i)

(* Close the hole left at [hole] by shifting later members of its probe
   run back (deletion without tombstones); [j] scans the run. *)
let rec shift t hole j =
  let j = next_cell t j in
  let s = t.index.(j) - 1 in
  if s < 0 then t.index.(hole) <- 0
  else
    let h = home t t.keys.(s) in
    (* The entry at [j] may fill the hole unless its home lies
       cyclically within (hole, j]. *)
    let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
    if stays then shift t hole j
    else begin
      t.index.(hole) <- t.index.(j);
      shift t j j
    end

(* Remove [k], known present. *)
let index_remove t k =
  let i = locate t k (home t k) in
  shift t i i

let create ?(policy = Lru) ~capacity () =
  if capacity <= 0 then invalid_arg "Buffer.create: capacity must be positive";
  let bits = index_bits capacity in
  {
    capacity;
    pol = policy;
    keys = Array.make capacity 0;
    pins = Array.make capacity 0;
    refbit = Array.make capacity false;
    prefetched = Array.make capacity false;
    prev = Array.make capacity (-1);
    next = Array.init capacity (fun s -> if s + 1 < capacity then s + 1 else -1);
    head = -1;
    free = 0;
    used = 0;
    index = Array.make (1 lsl bits) 0;
    bits;
  }

let capacity t = t.capacity
let policy t = t.pol
let resident t = t.used
let mem t k = find t k >= 0

(* Every frame pinned and every slot taken: double the slot arrays (the
   transient overflow) and rebuild the index at the new size. *)
let grow t =
  let n = Array.length t.keys in
  let n' = 2 * n in
  let extend a fill =
    let a' = Array.make n' fill in
    Array.blit a 0 a' 0 n;
    a'
  in
  t.keys <- extend t.keys 0;
  t.pins <- extend t.pins 0;
  t.refbit <- extend t.refbit false;
  t.prefetched <- extend t.prefetched false;
  t.prev <- extend t.prev (-1);
  t.next <- extend t.next (-1);
  for s = n to n' - 1 do
    t.next.(s) <- (if s + 1 < n' then s + 1 else -1)
  done;
  t.free <- n;
  t.bits <- index_bits n';
  t.index <- Array.make (1 lsl t.bits) 0;
  (* Every old slot is resident: the free stack was empty. *)
  for s = 0 to n - 1 do
    index_add t s
  done

(* Link [s] just before [head]: the ring's back under Clock; under Lru
   the caller then makes it the head. *)
let link t s =
  if t.head < 0 then begin
    t.prev.(s) <- s;
    t.next.(s) <- s;
    t.head <- s
  end
  else begin
    let h = t.head in
    let p = t.prev.(h) in
    t.next.(p) <- s;
    t.prev.(s) <- p;
    t.next.(s) <- h;
    t.prev.(h) <- s
  end

let unlink t s =
  let n = t.next.(s) in
  if n = s then t.head <- -1
  else begin
    let p = t.prev.(s) in
    t.next.(p) <- n;
    t.prev.(n) <- p;
    if t.head = s then t.head <- n
  end

(* Take a free slot for [k], index it and link it as the most recent
   frame (Lru) or behind the hand (Clock). *)
let admit_slot t k ~prefetched =
  if t.free < 0 then grow t;
  let s = t.free in
  t.free <- t.next.(s);
  t.used <- t.used + 1;
  t.keys.(s) <- k;
  t.pins.(s) <- 0;
  t.refbit.(s) <- true;
  t.prefetched.(s) <- prefetched;
  index_add t s;
  link t s;
  if t.pol = Lru then t.head <- s;
  s

let release t s =
  unlink t s;
  index_remove t t.keys.(s);
  t.next.(s) <- t.free;
  t.free <- s;
  t.used <- t.used - 1

let touch t s =
  t.refbit.(s) <- true;
  if t.pol = Lru && s <> t.head then
    if s = t.prev.(t.head) then t.head <- s (* the tail: rotate *)
    else begin
      unlink t s;
      link t s;
      t.head <- s
    end

(* The least recently used unpinned frame: walk back from the tail past
   pinned frames. *)
let rec back t s n =
  if n = 0 then false (* everything pinned: overflow transiently *)
  else if t.pins.(s) = 0 then begin
    release t s;
    true
  end
  else back t t.prev.(s) (n - 1)

let evict_lru t = t.head >= 0 && back t t.prev.(t.head) t.used

(* Sweep from the hand: pinned frames are skipped, referenced frames
   get their second chance.  Bounded by twice the resident frames plus
   two — after one full sweep every refbit is clear, so the next
   unpinned frame goes. *)
let rec sweep t budget =
  if budget = 0 || t.head < 0 then false
  else
    let s = t.head in
    if t.pins.(s) > 0 then begin
      t.head <- t.next.(s);
      sweep t (budget - 1)
    end
    else if t.refbit.(s) then begin
      t.refbit.(s) <- false;
      t.head <- t.next.(s);
      sweep t (budget - 1)
    end
    else begin
      release t s;
      true
    end

let evict_clock t = sweep t (2 * (t.used + 1))

let evict t = match t.pol with Lru -> evict_lru t | Clock -> evict_clock t

let admit t k ~prefetched =
  let evicted = t.used >= t.capacity && evict t in
  ignore (admit_slot t k ~prefetched : int);
  evicted

type outcome = Hit | Prefetch_hit | Miss of { evicted : bool }

(* Preallocated so that no outcome allocates. *)
let miss_evicted = Miss { evicted = true }
let miss_clean = Miss { evicted = false }

let reference t k =
  let s = find t k in
  if s >= 0 then begin
    touch t s;
    if t.prefetched.(s) then begin
      t.prefetched.(s) <- false;
      Prefetch_hit
    end
    else Hit
  end
  else if admit t k ~prefetched:false then miss_evicted
  else miss_clean

let prefetch t k =
  let s = find t k in
  if s >= 0 then begin
    touch t s;
    `Resident
  end
  else if admit t k ~prefetched:true then `Admitted true
  else `Admitted false

let pin t k =
  let s = find t k in
  (* Admit without eviction: a pin wants the frame present NOW and must
     not victimise the page a caller is standing on. *)
  let s = if s >= 0 then s else admit_slot t k ~prefetched:false in
  t.pins.(s) <- t.pins.(s) + 1

let unpin t k =
  let s = find t k in
  if s >= 0 && t.pins.(s) > 0 then t.pins.(s) <- t.pins.(s) - 1

let reset t =
  let n = Array.length t.keys in
  Array.fill t.index 0 (Array.length t.index) 0;
  for s = 0 to n - 1 do
    t.next.(s) <- (if s + 1 < n then s + 1 else -1)
  done;
  t.head <- -1;
  t.free <- 0;
  t.used <- 0
