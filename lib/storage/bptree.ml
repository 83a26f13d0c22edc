type tuple = Gom.Value.t array

(* Closure-free, so comparisons on the write path allocate nothing. *)
let rec cmp_from (a : tuple) (b : tuple) i =
  if i >= Array.length a || i >= Array.length b then Int.compare (Array.length a) (Array.length b)
  else
    let c = Gom.Value.compare a.(i) b.(i) in
    if c <> 0 then c else cmp_from a b (i + 1)

let cmp_tuple a b = cmp_from a b 0

type entry = { tup : tuple; mutable count : int }

type node = { page : int; body : body }

and body =
  | Leaf of leaf
  | Inner of inner

(* Nodes are arrays edited in place; slots past the count hold the
   shared [vacant] / [no_sep] / [no_node] dummies, so nothing removed
   stays reachable from a vacated slot. *)
and leaf = {
  mutable es : entry array; (* [0, n) sorted by (key, tuple); capacity leaf_cap + 1 *)
  mutable n : int;
  mutable next : node option;
  mutable prev : node option;
}

and inner = {
  seps : tuple array;
  kids : node array; (* capacity inner_cap + 1 each *)
  mutable m : int;
}
(* (seps.(i), kids.(i)): all entries of the child are >= its separator
   (in (key, tuple) order); the first separator is a lower bound only. *)

type t = {
  key_of : tuple -> Gom.Value.t;
  leaf_cap : int;
  inner_cap : int;
  pager : Pager.t;
  tuple_bytes : int;
  mutable root : node;
  mutable first_leaf : node;
  mutable cardinal : int;
}

let vacant = { tup = [| Gom.Value.Null |]; count = 0 }
let no_sep = vacant.tup
let no_node = { page = -1; body = Inner { seps = [||]; kids = [||]; m = 0 } }

(* Entries are ordered by clustering key first, then by the whole tuple,
   so duplicates of a key sit next to each other. *)
let cmp_entry t a b =
  let c = Gom.Value.compare (t.key_of a) (t.key_of b) in
  if c <> 0 then c else cmp_tuple a b

let leaf_node t es n = { page = Pager.alloc t.pager; body = Leaf { es; n; next = None; prev = None } }
let leaf_slots t = Array.make (t.leaf_cap + 1) vacant

(* A fresh leaf array holding [es.(from .. from + n - 1)]. *)
let slots_of t es from n =
  let slots = leaf_slots t in
  Array.blit es from slots 0 n;
  slots

let new_leaf t = leaf_node t (leaf_slots t) 0

let sep_slots t = Array.make (t.inner_cap + 1) no_sep
let kid_slots t = Array.make (t.inner_cap + 1) no_node
let inner_node t seps kids m = { page = Pager.alloc t.pager; body = Inner { seps; kids; m } }

let create ~config ~pager ~tuple_bytes ~key_of =
  if tuple_bytes <= 0 then invalid_arg "Bptree.create: tuple_bytes must be positive";
  let leaf_cap = max 1 (config.Config.page_size / tuple_bytes) in
  let inner_cap = max 2 (Config.bplus_fan config) in
  let t =
    { key_of; leaf_cap; inner_cap; pager; tuple_bytes; root = no_node; first_leaf = no_node; cardinal = 0 }
  in
  t.root <- new_leaf t;
  t.first_leaf <- t.root;
  t

let tuple_bytes t = t.tuple_bytes
let cardinal t = t.cardinal

let read stats page = match stats with Some s -> Stats.read s page | None -> ()
let write stats page = match stats with Some s -> Stats.write s page | None -> ()

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)
(* ------------------------------------------------------------------ *)

(* The first slot of [l] whose entry is not below [tup] in (key, tuple)
   order; [l.n] when there is none. *)
let slot t l tup =
  let lo = ref 0 and hi = ref l.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if cmp_entry t l.es.(mid).tup tup < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* The first slot of [l] whose key is not below [key]. *)
let key_slot t l key =
  let lo = ref 0 and hi = ref l.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Gom.Value.compare (t.key_of l.es.(mid).tup) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Only a batched apply can overfill a leaf past its one spare slot;
   the array then doubles until the end-of-pass split. *)
let add_at l k e =
  if l.n = Array.length l.es then begin
    let es = Array.make (2 * l.n) vacant in
    Array.blit l.es 0 es 0 l.n;
    l.es <- es
  end;
  Array.blit l.es k l.es (k + 1) (l.n - k);
  l.es.(k) <- e;
  l.n <- l.n + 1

let drop_at l k =
  Array.blit l.es (k + 1) l.es k (l.n - k - 1);
  l.n <- l.n - 1;
  l.es.(l.n) <- vacant

(* Add [d] references to [tup] in leaf [l]: an entry whose count reaches
   zero disappears, a negative [d] on an absent tuple is ignored.  True
   when the leaf changed. *)
let adjust t l tup d =
  let k = slot t l tup in
  if k < l.n && cmp_entry t l.es.(k).tup tup = 0 then begin
    let e = l.es.(k) in
    e.count <- e.count + d;
    if e.count <= 0 then begin
      drop_at l k;
      t.cardinal <- t.cardinal - 1
    end;
    true
  end
  else if d > 0 then begin
    add_at l k { tup; count = d };
    t.cardinal <- t.cardinal + 1;
    true
  end
  else false

(* The child of [i] to descend into for a (key, tuple) target: the last
   one whose separator is not above it, skipping the first separator (a
   lower bound only), else the first child — what a left-to-right fold
   over the children picks, since separators ascend. *)
let child_for_entry t i tup =
  if i.m = 0 then invalid_arg "Bptree.route: inner node without children";
  let lo = ref 1 and hi = ref i.m in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if cmp_entry t i.seps.(mid) tup <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* The same for a bare key: the last child whose separator's key is
   strictly below [key], which is where [key]'s run starts. *)
let child_for_key t i key =
  if i.m = 0 then invalid_arg "Bptree.route: inner node without children";
  let lo = ref 1 and hi = ref i.m in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Gom.Value.compare (t.key_of i.seps.(mid)) key < 0 then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* How a leaf's last (greatest) entry key compares with [key]; an empty
   leaf counts as ending before it. *)
let last_vs t key l = if l.n = 0 then -1 else Gom.Value.compare (t.key_of l.es.(l.n - 1).tup) key

(* Range and extent scans ride the leaf chain left-to-right, so the
   upcoming leaves are known: stage the next few so a buffer pool pays
   their physical I/O here, ahead of the demand reads.  The current
   leaf is pinned across the staging so the prefetch can never evict
   the very page the scan is standing on. *)
let prefetch_depth = 4

(* The pages of up to [n] non-empty leaves after [node] that the walk
   provably reads: staging a leaf the walk then abandons is physical
   I/O paid for nothing, and would break the buffered <= unbuffered
   physical-read bound the oracle suite checks.  Full scans ([all])
   follow every link; a keyed run follows a link only while the leaf
   holds no entry beyond [key]. *)
let rec ahead t ~all key n node =
  if n = 0 then []
  else
    match node.body with
    | Inner _ -> []
    | Leaf l -> (
      match l.next with
      | Some nx when all || last_vs t key l <= 0 -> (
        (* Keep walking the chain but never stage an empty leaf: [iter]
           skips them without a read. *)
        match nx.body with
        | Leaf { n = 0; _ } -> ahead t ~all key (n - 1) nx
        | Leaf _ | Inner _ -> nx.page :: ahead t ~all key (n - 1) nx)
      | Some _ | None -> [])

let prefetch_chain t stats ~all key node =
  match stats with
  | Some s when Stats.has_buffer s -> (
    match ahead t ~all key prefetch_depth node with
    | [] -> ()
    | upcoming -> (
      Stats.pin_page s node.page;
      match Stats.prefetch s upcoming with
      | () -> Stats.unpin_page s node.page
      | exception e ->
        Stats.unpin_page s node.page;
        raise e))
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Bulk building                                                       *)
(* ------------------------------------------------------------------ *)

let rec chunk n = function
  | [] -> []
  | l ->
    let rec take k acc rest =
      match rest with
      | _ when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> take (k - 1) (x :: acc) rest
    in
    let c, rest = take n [] l in
    c :: chunk n rest

let min_of node =
  match node.body with Leaf l -> l.es.(0).tup | Inner i -> i.seps.(0)

(* Chain [leaves] left to right as the whole leaf level, then stack
   inner levels on them packed full, writing every fresh inner page. *)
let install t stats leaves =
  let rec link = function
    | a :: (b :: _ as rest) ->
      (match (a.body, b.body) with
      | Leaf la, Leaf lb ->
        la.next <- Some b;
        lb.prev <- Some a
      | _ -> assert false);
      link rest
    | [ last ] -> ( match last.body with Leaf l -> l.next <- None | Inner _ -> ())
    | [] -> ()
  in
  match leaves with
  | [] ->
    let leaf = new_leaf t in
    write stats leaf.page;
    t.root <- leaf;
    t.first_leaf <- leaf
  | head :: _ ->
    (match head.body with Leaf l -> l.prev <- None | Inner _ -> assert false);
    t.first_leaf <- head;
    link leaves;
    let rec build = function
      | [ single ] -> single
      | level ->
        chunk t.inner_cap level
        |> List.map (fun cs ->
               let seps = sep_slots t and kids = kid_slots t in
               List.iteri
                 (fun k c ->
                   seps.(k) <- min_of c;
                   kids.(k) <- c)
                 cs;
               let node = inner_node t seps kids (List.length cs) in
               write stats node.page;
               node)
        |> build
    in
    t.root <- build leaves

let bulk_load t tuples =
  (* Aggregate equal tuples into reference counts. *)
  let entries =
    List.fold_left
      (fun acc tup ->
        match acc with
        | e :: _ when cmp_tuple e.tup tup = 0 ->
          e.count <- e.count + 1;
          acc
        | _ -> { tup; count = 1 } :: acc)
      [] (List.sort (cmp_entry t) tuples)
    |> List.rev
  in
  t.cardinal <- List.length entries;
  let rec leaves = function
    | [] -> []
    | es ->
      let slots = leaf_slots t in
      let rec fill k = function
        | e :: rest when k < t.leaf_cap ->
          slots.(k) <- e;
          fill (k + 1) rest
        | rest -> (k, rest)
      in
      let n, rest = fill 0 es in
      let leaf = leaf_node t slots n in
      leaf :: leaves rest
  in
  install t None (leaves entries)

(* ------------------------------------------------------------------ *)
(* Insert                                                              *)
(* ------------------------------------------------------------------ *)

(* Add one reference to [tup] below [node]; [Some (separator, right)]
   when [node] split. *)
let rec insert_below t stats tup node =
  read stats node.page;
  match node.body with
  | Leaf l ->
    ignore (adjust t l tup 1);
    write stats node.page;
    if l.n <= t.leaf_cap then None
    else begin
      let keep = (l.n + 1) / 2 in
      let moved = l.n - keep in
      let slots = slots_of t l.es keep moved in
      Array.fill l.es keep moved vacant;
      l.n <- keep;
      let rnode =
        { page = Pager.alloc t.pager; body = Leaf { es = slots; n = moved; next = l.next; prev = Some node } }
      in
      (match l.next with
      | Some nx -> ( match nx.body with Leaf ln -> ln.prev <- Some rnode | Inner _ -> ())
      | None -> ());
      l.next <- Some rnode;
      write stats rnode.page;
      Some (slots.(0).tup, rnode)
    end
  | Inner i -> (
    let c = child_for_entry t i tup in
    match insert_below t stats tup i.kids.(c) with
    | None -> None
    | Some (sep, rnode) ->
      (* The new sibling goes right after the child that split. *)
      let at = c + 1 in
      Array.blit i.seps at i.seps (at + 1) (i.m - at);
      Array.blit i.kids at i.kids (at + 1) (i.m - at);
      i.seps.(at) <- sep;
      i.kids.(at) <- rnode;
      i.m <- i.m + 1;
      write stats node.page;
      if i.m <= t.inner_cap then None
      else begin
        let keep = (i.m + 1) / 2 in
        let moved = i.m - keep in
        let seps = sep_slots t and kids = kid_slots t in
        Array.blit i.seps keep seps 0 moved;
        Array.blit i.kids keep kids 0 moved;
        Array.fill i.seps keep moved no_sep;
        Array.fill i.kids keep moved no_node;
        i.m <- keep;
        let rnode' = inner_node t seps kids moved in
        write stats rnode'.page;
        Some (seps.(0), rnode')
      end)

let insert ?stats t tup =
  match insert_below t stats tup t.root with
  | None -> ()
  | Some (sep, rnode) ->
    let old_min =
      match t.root.body with
      | Leaf l -> if l.n > 0 then l.es.(0).tup else sep
      | Inner i -> i.seps.(0)
    in
    let seps = sep_slots t and kids = kid_slots t in
    seps.(0) <- old_min;
    kids.(0) <- t.root;
    seps.(1) <- sep;
    kids.(1) <- rnode;
    let new_root = inner_node t seps kids 2 in
    write stats new_root.page;
    t.root <- new_root

(* ------------------------------------------------------------------ *)
(* Remove                                                              *)
(* ------------------------------------------------------------------ *)

let unlink_leaf t l =
  (match l.prev with
  | Some p -> ( match p.body with Leaf lp -> lp.next <- l.next | Inner _ -> ())
  | None -> ( match l.next with Some nx -> t.first_leaf <- nx | None -> ()));
  match l.next with
  | Some nx -> ( match nx.body with Leaf ln -> ln.prev <- l.prev | Inner _ -> ())
  | None -> ()

(* Drop one reference to [tup] below [node]; true when [node] became
   empty and was disposed of. *)
let rec remove_below t stats ~is_root tup node =
  read stats node.page;
  match node.body with
  | Leaf l ->
    if adjust t l tup (-1) then write stats node.page;
    if l.n = 0 && not is_root then begin
      unlink_leaf t l;
      true
    end
    else false
  | Inner i ->
    let c = child_for_entry t i tup in
    if remove_below t stats ~is_root:false tup i.kids.(c) then begin
      Array.blit i.seps (c + 1) i.seps c (i.m - c - 1);
      Array.blit i.kids (c + 1) i.kids c (i.m - c - 1);
      i.m <- i.m - 1;
      i.seps.(i.m) <- no_sep;
      i.kids.(i.m) <- no_node;
      write stats node.page
    end;
    i.m = 0 && not is_root

(* A root with a single child hands the root over to it; a root left
   without children becomes a fresh empty leaf. *)
let rec collapse t =
  match t.root.body with
  | Inner { m = 1; kids; _ } ->
    t.root <- kids.(0);
    collapse t
  | Inner { m = 0; _ } ->
    let leaf = new_leaf t in
    t.root <- leaf;
    t.first_leaf <- leaf
  | Inner _ | Leaf _ -> ()

let remove ?stats t tup =
  ignore (remove_below t stats ~is_root:true tup t.root);
  collapse t

(* ------------------------------------------------------------------ *)
(* Lookup / scans                                                      *)
(* ------------------------------------------------------------------ *)

let rec descend_for_key ?stats t key node =
  read stats node.page;
  match node.body with
  | Leaf _ -> node
  | Inner i -> descend_for_key ?stats t key i.kids.(child_for_key t i key)

(* Where a batch of point lookups stands: the leaf the previous key's
   run ended on.  One per [lookup_many] call. *)
type cursor = { mutable at : node }

(* [key]'s run from leaf [node] on, in tuple order: read the leaf,
   stage its successors, then collect its entries on [key].  The run
   continues into the next leaf as long as this leaf holds no entry
   beyond the key (duplicate runs can start exactly at a leaf boundary,
   so an empty prefix is not a stop). *)
let rec run_from t stats cur key node =
  match node.body with
  | Inner _ -> []
  | Leaf l ->
    read stats node.page;
    prefetch_chain t stats ~all:false key node;
    cur.at <- node;
    run_in t stats cur key l (key_slot t l key)

and run_in t stats cur key l k =
  if k < l.n then
    let tup = l.es.(k).tup in
    if Gom.Value.compare (t.key_of tup) key = 0 then tup :: run_in t stats cur key l (k + 1)
    else []
  else match l.next with Some nx -> run_from t stats cur key nx | None -> []

(* Serve many point lookups at once, in ascending key order, sharing
   tree descents between adjacent keys: when the next key falls strictly
   inside the key range of the leaf the previous lookup ended on, the
   walk continues from that leaf instead of re-descending from the root.
   Combined with per-operation distinct-page accounting this is the
   batched executor's page-locality win: probes whose runs share leaves
   charge those leaves once. *)
let lookup_many ?stats t keys =
  let keys = List.sort_uniq Gom.Value.compare keys in
  let cur = { at = no_node } in
  List.map
    (fun key ->
      let leaf =
        match cur.at.body with
        | Leaf l
          when l.n > 0
               && Gom.Value.compare (t.key_of l.es.(0).tup) key < 0
               && last_vs t key l >= 0 ->
          (* The run for [key], if any, starts in this leaf. *)
          cur.at
        | Leaf _ | Inner _ -> descend_for_key ?stats t key t.root
      in
      (key, run_from t stats cur key leaf))
    keys

let lookup ?stats t key =
  run_from t stats { at = no_node } key (descend_for_key ?stats t key t.root)

(* Entries of one tuple never straddle leaves, so the search ends at the
   first leaf holding an entry not below it. *)
let rec count_from t tup node =
  match node.body with
  | Inner _ -> 0
  | Leaf l ->
    let k = slot t l tup in
    if k < l.n then if cmp_tuple l.es.(k).tup tup = 0 then l.es.(k).count else 0
    else match l.next with Some nx -> count_from t tup nx | None -> 0

let refcount t tup = count_from t tup (descend_for_key t (t.key_of tup) t.root)

let mem t tup = refcount t tup > 0

let iter ?stats t f =
  let rec walk node =
    match node.body with
    | Inner _ -> ()
    | Leaf l ->
      if l.n > 0 then begin
        read stats node.page;
        prefetch_chain t stats ~all:true Gom.Value.Null node;
        for k = 0 to l.n - 1 do
          f l.es.(k).tup
        done
      end;
      ( match l.next with Some nx -> walk nx | None -> ())
  in
  walk t.first_leaf

let scan ?stats t =
  let acc = ref [] in
  iter ?stats t (fun tup -> acc := tup :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Bulk apply                                                          *)
(* ------------------------------------------------------------------ *)

(* The leaf [insert] routes [tup] to, found without charging a page. *)
let rec leaf_for t tup node =
  match node.body with Leaf _ -> node | Inner i -> leaf_for t tup i.kids.(child_for_entry t i tup)

(* A leaf's entries back in a [leaf_cap + 1] array, once a batched
   apply has grown it. *)
let refit t l = if Array.length l.es <> t.leaf_cap + 1 then l.es <- slots_of t l.es 0 l.n

(* The write-side sibling of [lookup_many]: apply many signed refcount
   deltas in one pass.  Deltas are sorted by (clustering key, tuple) and
   coalesced, then a single descent finds the first target leaf and the
   pass rides the leaf chain rightwards — consecutive deltas landing on
   the same leaf charge its page once per operation, exactly like sorted
   probes sharing leaves in [lookup_many].  Structural damage (emptied
   or over-full leaves) is repaired once at the end: over-full leaves
   split in bulk into fresh pages, emptied leaves are dropped from the
   chain, and the inner levels are rebuilt bulk-load style. *)
let apply_many ?stats t deltas =
  let deltas = List.filter (fun (_, d) -> d <> 0) deltas in
  let deltas = List.sort (fun (a, _) (b, _) -> cmp_entry t a b) deltas in
  (* Coalesce deltas on the same tuple; zero nets vanish here. *)
  let deltas =
    List.fold_left
      (fun acc (tup, d) ->
        match acc with
        | (pt, pd) :: rest when cmp_entry t pt tup = 0 -> (tup, pd + d) :: rest
        | _ -> (tup, d) :: acc)
      [] deltas
    |> List.rev
    |> List.filter (fun (_, d) -> d <> 0)
  in
  match deltas with
  | [] -> ()
  | (first, _) :: _ ->
    let structural = ref false in
    (* One charged root descent for the batch.  The deltas are sorted,
       so their leaves follow one another rightwards along the chain;
       each is found through the separators, the parents' knowledge, so
       routing costs no page access and only leaves actually applied to
       are charged.  Routing by separator rather than by a leaf's current
       minimum matters after lazy deletion: a tuple between the two
       belongs to the right-hand leaf, or lookups would miss it. *)
    ignore (descend_for_key ?stats t (t.key_of first) t.root);
    let apply_one (tup, d) =
      let node = leaf_for t tup t.root in
      match node.body with
      | Inner _ -> assert false
      | Leaf l ->
        read stats node.page;
        if adjust t l tup d then begin
          write stats node.page;
          if l.n = 0 || l.n > t.leaf_cap then structural := true
        end
    in
    List.iter apply_one deltas;
    if !structural then begin
      (* Walk the (old) chain once: drop emptied leaves, split over-full
         ones in bulk — the first chunk keeps its page, the remainder go
         to fresh pages. *)
      let rec collect node acc =
        match node.body with
        | Inner _ -> List.rev acc
        | Leaf l ->
          let nxt = l.next in
          let acc =
            if l.n = 0 then acc
            else if l.n <= t.leaf_cap then begin
              refit t l;
              node :: acc
            end
            else begin
              let es = l.es and total = l.n in
              l.es <- slots_of t es 0 t.leaf_cap;
              l.n <- t.leaf_cap;
              write stats node.page;
              let rec rest from acc =
                if from >= total then acc
                else begin
                  let n = min t.leaf_cap (total - from) in
                  let leaf = leaf_node t (slots_of t es from n) n in
                  write stats leaf.page;
                  rest (from + n) (leaf :: acc)
                end
              in
              rest t.leaf_cap (node :: acc)
            end
          in
          (match nxt with Some nx -> collect nx acc | None -> List.rev acc)
      in
      install t stats (collect t.first_leaf [])
    end

(* ------------------------------------------------------------------ *)
(* Geometry                                                            *)
(* ------------------------------------------------------------------ *)

let height t =
  let rec go acc node =
    match node.body with Leaf _ -> acc | Inner i -> go (acc + 1) i.kids.(0)
  in
  max 1 (go 0 t.root)

let leaf_pages t =
  let n = ref 0 in
  let rec walk node =
    match node.body with
    | Inner _ -> ()
    | Leaf l ->
      if l.n > 0 then incr n;
      ( match l.next with Some nx -> walk nx | None -> ())
  in
  walk t.first_leaf;
  max 1 !n

let inner_pages t =
  let rec go node =
    match node.body with
    | Leaf _ -> 0
    | Inner i ->
      let sum = ref 1 in
      for k = 0 to i.m - 1 do
        sum := !sum + go i.kids.(k)
      done;
      !sum
  in
  max 1 (go t.root)

(* ------------------------------------------------------------------ *)
(* Invariant checking (test support)                                   *)
(* ------------------------------------------------------------------ *)

exception Broken of string

let check_invariants t =
  let fail fmt = Format.kasprintf (fun s -> raise (Broken s)) fmt in
  let leaves = ref [] in
  (* [lo] / [hi] bound every entry of the subtree: lo <= e < hi.  The
     first child of each inner node inherits its parent's lower bound
     (its own separator is informative only). *)
  let rec check_node ~lo ~hi node =
    match node.body with
    | Leaf l ->
      if Array.length l.es <> t.leaf_cap + 1 then
        fail "leaf %d has %d slots, not %d" node.page (Array.length l.es) (t.leaf_cap + 1);
      if l.n > t.leaf_cap then
        fail "leaf %d over capacity (%d > %d)" node.page l.n t.leaf_cap;
      for k = l.n to Array.length l.es - 1 do
        if l.es.(k) != vacant then fail "leaf %d retains an entry in vacated slot %d" node.page k
      done;
      for k = 0 to l.n - 1 do
        let e = l.es.(k) in
        (match lo with
        | Some b when cmp_entry t e.tup b < 0 -> fail "leaf %d violates separator bounds" node.page
        | _ -> ());
        (match hi with
        | Some b when cmp_entry t e.tup b >= 0 -> fail "leaf %d violates separator bounds" node.page
        | _ -> ());
        if k > 0 && cmp_entry t l.es.(k - 1).tup e.tup >= 0 then
          fail "leaf %d entries out of order" node.page;
        if e.count <= 0 then fail "non-positive refcount"
      done;
      leaves := node :: !leaves
    | Inner i ->
      if i.m = 0 then fail "inner %d has no children" node.page;
      if i.m > t.inner_cap then fail "inner %d over capacity" node.page;
      if Array.length i.seps <> t.inner_cap + 1 || Array.length i.kids <> t.inner_cap + 1 then
        fail "inner %d has the wrong slot count" node.page;
      for k = i.m to t.inner_cap do
        if i.seps.(k) != no_sep || i.kids.(k) != no_node then
          fail "inner %d retains a child in vacated slot %d" node.page k
      done;
      for k = 0 to i.m - 1 do
        let child_lo = if k = 0 then lo else Some i.seps.(k) in
        let child_hi = if k + 1 < i.m then Some i.seps.(k + 1) else hi in
        check_node ~lo:child_lo ~hi:child_hi i.kids.(k)
      done
  in
  (* Leaves reachable from the root must equal the chain, each [prev]
     mirroring a [next]. *)
  let rec chain prev node acc =
    match node.body with
    | Inner _ -> fail "the leaf chain reaches an inner node"
    | Leaf l ->
      if not (match (l.prev, prev) with None, None -> true | Some p, Some q -> p == q | _ -> false)
      then fail "leaf %d prev link does not mirror its predecessor's next" node.page;
      (match l.next with Some nx -> chain (Some node) nx (node :: acc) | None -> List.rev (node :: acc))
  in
  match
    check_node ~lo:None ~hi:None t.root;
    let tree_leaves = List.rev !leaves in
    let chain_leaves = chain None t.first_leaf [] in
    if List.length tree_leaves <> List.length chain_leaves then
      fail "leaf chain length %d differs from tree leaves %d" (List.length chain_leaves)
        (List.length tree_leaves);
    if not (List.for_all2 ( == ) tree_leaves chain_leaves) then
      fail "leaf chain order differs from tree order";
    let count = ref 0 and last = ref None in
    List.iter
      (fun node ->
        match node.body with
        | Leaf l ->
          count := !count + l.n;
          if l.n > 0 then begin
            (match !last with
            | Some b when cmp_entry t b l.es.(0).tup >= 0 -> fail "entries out of global order"
            | _ -> ());
            last := Some l.es.(l.n - 1).tup
          end
        | Inner _ -> ())
      tree_leaves;
    if !count <> t.cardinal then
      fail "cardinal %d does not match entry count %d" t.cardinal !count
  with
  | () -> Ok ()
  | exception Broken msg -> Error msg
