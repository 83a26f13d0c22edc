(* Unit and property tests for Storage.Bptree.  A small page size forces
   multi-level trees so splits and descents are actually exercised. *)

module B = Storage.Bptree
module V = Gom.Value

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* page_size 64, tuple 16 bytes -> 4 tuples per leaf; fan-out 5. *)
let small_config = Storage.Config.make ~page_size:64 ~oid_size:8 ~pp_size:4 ()

let make_tree ?(config = small_config) () =
  B.create ~config ~pager:(Storage.Pager.create ()) ~tuple_bytes:16
    ~key_of:(fun tup -> tup.(0))

let tup a b = [| V.Ref (Gom.Oid.of_int a); V.Ref (Gom.Oid.of_int b) |]

let ok_invariants t =
  match B.check_invariants t with
  | Ok () -> true
  | Error msg -> Alcotest.failf "invariant violated: %s" msg

let test_empty () =
  let t = make_tree () in
  check_int "cardinal" 0 (B.cardinal t);
  check "no hit" true (B.lookup t (V.Ref (Gom.Oid.of_int 1)) = []);
  check_int "height" 1 (B.height t);
  check "invariants" true (ok_invariants t)

let test_bulk_load_and_lookup () =
  let t = make_tree () in
  B.bulk_load t (List.init 100 (fun i -> tup i (i + 1000)));
  check_int "cardinal" 100 (B.cardinal t);
  check "invariants" true (ok_invariants t);
  check "found" true (B.lookup t (V.Ref (Gom.Oid.of_int 37)) = [ tup 37 1037 ]);
  check "missing" true (B.lookup t (V.Ref (Gom.Oid.of_int 555)) = []);
  check_int "leaf pages" 25 (B.leaf_pages t);
  check "height grows" true (B.height t >= 2)

let test_duplicate_keys () =
  let t = make_tree () in
  B.bulk_load t [ tup 1 10; tup 1 11; tup 1 12; tup 2 20 ];
  let hits = B.lookup t (V.Ref (Gom.Oid.of_int 1)) in
  check_int "all duplicates found" 3 (List.length hits);
  check "sorted" true (hits = [ tup 1 10; tup 1 11; tup 1 12 ])

let test_duplicate_key_run_across_leaves () =
  let t = make_tree () in
  (* 10 tuples with the same key: spans three 4-entry leaves. *)
  B.bulk_load t (List.init 10 (fun i -> tup 5 i) @ [ tup 9 99 ]);
  let hits = B.lookup t (V.Ref (Gom.Oid.of_int 5)) in
  check_int "whole run" 10 (List.length hits);
  check "invariants" true (ok_invariants t)

let test_refcounts () =
  let t = make_tree () in
  B.insert t (tup 1 2);
  B.insert t (tup 1 2);
  check_int "cardinal counts distinct" 1 (B.cardinal t);
  check_int "refcount" 2 (B.refcount t (tup 1 2));
  B.remove t (tup 1 2);
  check "still present" true (B.mem t (tup 1 2));
  B.remove t (tup 1 2);
  check "gone" false (B.mem t (tup 1 2));
  B.remove t (tup 1 2) (* removing a missing tuple is a no-op *);
  check_int "empty" 0 (B.cardinal t)

let test_incremental_inserts_split () =
  let t = make_tree () in
  for i = 0 to 199 do
    B.insert t (tup i i)
  done;
  check_int "cardinal" 200 (B.cardinal t);
  check "invariants after splits" true (ok_invariants t);
  check "height at least 3" true (B.height t >= 3);
  check "scan sorted" true
    (B.scan t = List.init 200 (fun i -> tup i i))

let test_interleaved_insert_remove () =
  let t = make_tree () in
  for i = 0 to 99 do
    B.insert t (tup (i mod 10) i)
  done;
  for i = 0 to 49 do
    B.remove t (tup (i mod 10) i)
  done;
  check_int "half left" 50 (B.cardinal t);
  check "invariants" true (ok_invariants t);
  let hits = B.lookup t (V.Ref (Gom.Oid.of_int 3)) in
  check_int "per-key" 5 (List.length hits)

let test_remove_all_then_reuse () =
  let t = make_tree () in
  for i = 0 to 63 do
    B.insert t (tup i i)
  done;
  for i = 0 to 63 do
    B.remove t (tup i i)
  done;
  check_int "empty" 0 (B.cardinal t);
  check "invariants after drain" true (ok_invariants t);
  B.insert t (tup 7 7);
  check "usable again" true (B.mem t (tup 7 7));
  check "invariants" true (ok_invariants t)

let test_lookup_page_accounting () =
  let t = make_tree () in
  B.bulk_load t (List.init 500 (fun i -> tup i i));
  let stats = Storage.Stats.create () in
  Storage.Stats.begin_op stats;
  ignore (B.lookup ~stats t (V.Ref (Gom.Oid.of_int 123)));
  (* One root-to-leaf descent: height inner pages plus the key's leaf,
     plus at most one look-ahead page when the hit ends its leaf. *)
  let reads = Storage.Stats.op_reads stats in
  check "descent pages" true (reads >= B.height t + 1 && reads <= B.height t + 2);
  check_int "no writes" 0 (Storage.Stats.op_writes stats)

let test_scan_page_accounting () =
  let t = make_tree () in
  B.bulk_load t (List.init 100 (fun i -> tup i i));
  let stats = Storage.Stats.create () in
  Storage.Stats.begin_op stats;
  ignore (B.scan ~stats t);
  check_int "scan reads every leaf" (B.leaf_pages t) (Storage.Stats.op_reads stats)

let test_insert_page_accounting () =
  let t = make_tree () in
  B.bulk_load t (List.init 100 (fun i -> tup (2 * i) i));
  let stats = Storage.Stats.create () in
  Storage.Stats.begin_op stats;
  B.insert ~stats t (tup 31 0);
  check "descent read" true (Storage.Stats.op_reads stats >= B.height t);
  check "leaf written" true (Storage.Stats.op_writes stats >= 1)

let test_backward_clustering () =
  (* A tree keyed on the last column, as the redundant copy. *)
  let t =
    B.create ~config:small_config ~pager:(Storage.Pager.create ()) ~tuple_bytes:16
      ~key_of:(fun tup -> tup.(1))
  in
  B.bulk_load t [ tup 1 9; tup 2 9; tup 3 7 ];
  let hits = B.lookup t (V.Ref (Gom.Oid.of_int 9)) in
  check_int "by last column" 2 (List.length hits)

let prop_random_ops =
  QCheck.Test.make ~name:"random insert/remove keeps invariants and contents" ~count:60
    QCheck.(pair small_int (list (pair (int_bound 20) (int_bound 20))))
    (fun (_, ops) ->
      let t = make_tree () in
      let model = Hashtbl.create 64 in
      List.iteri
        (fun idx (a, b) ->
          let tu = tup a b in
          if idx mod 3 = 2 then begin
            B.remove t tu;
            match Hashtbl.find_opt model (a, b) with
            | Some n when n > 1 -> Hashtbl.replace model (a, b) (n - 1)
            | Some _ -> Hashtbl.remove model (a, b)
            | None -> ()
          end
          else begin
            B.insert t tu;
            Hashtbl.replace model (a, b)
              (1 + Option.value ~default:0 (Hashtbl.find_opt model (a, b)))
          end)
        ops;
      (match B.check_invariants t with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "invariant: %s" m);
      let expected =
        Hashtbl.fold (fun (a, b) _ acc -> tup a b :: acc) model []
        |> List.sort Relation.Tuple.compare
      in
      let actual = List.sort Relation.Tuple.compare (B.scan t) in
      if expected <> actual then QCheck.Test.fail_report "contents diverge from model";
      Hashtbl.fold
        (fun (a, b) n acc -> acc && B.refcount t (tup a b) = n)
        model true)

(* Removing a leaf's smallest entries leaves its separator below its new
   minimum.  A batched insert into that gap belongs to the right-hand
   leaf; placed at the end of the left one instead, it sat beyond the
   separator and lookups of its key descended past it. *)
let test_apply_many_routes_by_separator () =
  let t = make_tree () in
  B.bulk_load t (List.init 12 (fun i -> tup i i));
  (* Leaves [0..3] [4..7] [8..11]; make room left, open a gap right. *)
  List.iter (fun i -> B.remove t (tup i i)) [ 1; 4; 5 ];
  (* The batch starts in the left leaf, so the gap tuple is reached
     from there. *)
  B.apply_many t [ (tup 2 2, 1); (tup 5 0, 1) ];
  check "invariants" true (ok_invariants t);
  check "found by key" true (B.lookup t (V.Ref (Gom.Oid.of_int 5)) = [ tup 5 0 ]);
  check "found by tuple" true (B.mem t (tup 5 0))

(* --- List-node model --- *)

(* The tree as it was before array nodes: leaves are immutable [entry
   list]s rebuilt on every edit, inner nodes [(separator, child)] lists
   walked by linear folds.  The array-node tree must agree with it on
   every answer, on its geometry and on every page it charges.  It
   carries one fix, in [apply_many]'s routing. *)
module Model = struct
  module Config = Storage.Config
  module Pager = Storage.Pager
  module Stats = Storage.Stats

  type tuple = Gom.Value.t array

  let cmp_tuple (a : tuple) (b : tuple) =
    let la = Array.length a and lb = Array.length b in
    let rec go i =
      if i >= la || i >= lb then Int.compare la lb
      else
        let c = Gom.Value.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

  type entry = { tup : tuple; mutable count : int }

  type node = { page : int; mutable body : body }

  and body =
    | Leaf of leaf
    | Inner of inner

  and leaf = {
    mutable entries : entry list; (* sorted by (key, tuple) *)
    mutable next : node option;
    mutable prev : node option;
  }

  and inner = { mutable children : (tuple * node) list }
  (* (separator, child): all entries of the child are >= separator (in
     (key, tuple) order); the first separator is a lower bound only. *)

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

  (* Entries are ordered by clustering key first, then by the whole tuple,
     so duplicates of a key sit next to each other. *)
  let cmp_entry t a b =
    let c = Gom.Value.compare (t.key_of a) (t.key_of b) in
    if c <> 0 then c else cmp_tuple a b

  let new_leaf t =
    { page = Pager.alloc t.pager; body = Leaf { entries = []; next = None; prev = None } }

  let create ~config ~pager ~tuple_bytes ~key_of =
    if tuple_bytes <= 0 then invalid_arg "Bptree.create: tuple_bytes must be positive";
    let leaf_cap = max 1 (config.Config.page_size / tuple_bytes) in
    let inner_cap = max 2 (Config.bplus_fan config) in
    let t =
      {
        key_of;
        leaf_cap;
        inner_cap;
        pager;
        tuple_bytes;
        root = { page = Pager.alloc pager; body = Leaf { entries = []; next = None; prev = None } };
        first_leaf = { page = 0; body = Leaf { entries = []; next = None; prev = None } };
        cardinal = 0;
      }
    in
    t.first_leaf <- t.root;
    t

  let tuple_bytes t = t.tuple_bytes
  let cardinal t = t.cardinal

  let read stats page = match stats with Some s -> Stats.read s page | None -> ()
  let write stats page = match stats with Some s -> Stats.write s page | None -> ()

  (* How a leaf's last (greatest) entry key compares with [key], without
     allocating; an empty leaf counts as ending before it. *)
  let rec last_vs t key = function
    | [] -> -1
    | [ last ] -> Gom.Value.compare (t.key_of last.tup) key
    | _ :: rest -> last_vs t key rest

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
        | Some nx when all || last_vs t key l.entries <= 0 -> (
          (* Keep walking the chain but never stage an empty leaf: [iter]
             skips them without a read. *)
          match nx.body with
          | Leaf { entries = []; _ } -> ahead t ~all key (n - 1) nx
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
  (* Bulk loading                                                        *)
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

  let bulk_load t tuples =
    let sorted = List.sort (cmp_entry t) tuples in
    (* Aggregate equal tuples into reference counts. *)
    let entries =
      List.fold_left
        (fun acc tup ->
          match acc with
          | e :: _ when cmp_tuple e.tup tup = 0 ->
            e.count <- e.count + 1;
            acc
          | _ -> { tup; count = 1 } :: acc)
        [] sorted
      |> List.rev
    in
    t.cardinal <- List.length entries;
    match entries with
    | [] ->
      let leaf = new_leaf t in
      t.root <- leaf;
      t.first_leaf <- leaf
    | _ ->
      let leaves =
        chunk t.leaf_cap entries
        |> List.map (fun es ->
               { page = Pager.alloc t.pager; body = Leaf { entries = es; next = None; prev = None } })
      in
      (* Chain the leaves. *)
      let rec link = function
        | a :: (b :: _ as rest) ->
          (match (a.body, b.body) with
          | Leaf la, Leaf lb ->
            la.next <- Some b;
            lb.prev <- Some a
          | _ -> assert false);
          link rest
        | [ _ ] | [] -> ()
      in
      link leaves;
      let min_of node =
        match node.body with
        | Leaf l -> (List.hd l.entries).tup
        | Inner i -> fst (List.hd i.children)
      in
      let rec build level =
        match level with
        | [ single ] -> single
        | _ ->
          chunk t.inner_cap level
          |> List.map (fun cs ->
                 {
                   page = Pager.alloc t.pager;
                   body = Inner { children = List.map (fun c -> (min_of c, c)) cs };
                 })
          |> build
      in
      t.first_leaf <- List.hd leaves;
      t.root <- build leaves

  (* ------------------------------------------------------------------ *)
  (* Descent                                                             *)
  (* ------------------------------------------------------------------ *)

  (* Pick the last child whose separator satisfies [before] (i.e. is
     strictly on the left of the target); default to the first child. *)
  let route ~before children =
    match children with
    | [] -> invalid_arg "Bptree.route: inner node without children"
    | (_, first) :: rest ->
      List.fold_left (fun acc (sep, child) -> if before sep then child else acc) first rest

  (* ------------------------------------------------------------------ *)
  (* Insert                                                              *)
  (* ------------------------------------------------------------------ *)

  let rec insert_entries t tup = function
    | [] -> ([ { tup; count = 1 } ], true)
    | e :: rest as all ->
      let c = cmp_entry t tup e.tup in
      if c = 0 then begin
        e.count <- e.count + 1;
        (all, false)
      end
      else if c < 0 then ({ tup; count = 1 } :: all, true)
      else
        let rest', fresh = insert_entries t tup rest in
        (e :: rest', fresh)

  let split_list l =
    let len = List.length l in
    let k = (len + 1) / 2 in
    let rec go i acc = function
      | rest when i = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> go (i - 1) (x :: acc) rest
    in
    go k [] l

  let insert ?stats t tup =
    (* Returns [Some (separator, new_right_sibling)] when the visited node
       split. *)
    let rec go node =
      read stats node.page;
      match node.body with
      | Leaf l ->
        let entries, fresh = insert_entries t tup l.entries in
        l.entries <- entries;
        if fresh then t.cardinal <- t.cardinal + 1;
        write stats node.page;
        if List.length l.entries <= t.leaf_cap then None
        else begin
          let left, right = split_list l.entries in
          let rnode =
            { page = Pager.alloc t.pager; body = Leaf { entries = right; next = l.next; prev = Some node } }
          in
          (match l.next with
          | Some nx -> ( match nx.body with Leaf ln -> ln.prev <- Some rnode | Inner _ -> ())
          | None -> ());
          l.entries <- left;
          l.next <- Some rnode;
          write stats rnode.page;
          Some ((List.hd right).tup, rnode)
        end
      | Inner i ->
        let child = route ~before:(fun sep -> cmp_entry t sep tup <= 0) i.children in
        (match go child with
        | None -> None
        | Some (sep, rnode) ->
          (* Insert the new sibling right after [child]. *)
          let rec add = function
            | [] -> assert false
            | (s, c) :: rest when c == child -> (s, c) :: (sep, rnode) :: rest
            | x :: rest -> x :: add rest
          in
          i.children <- add i.children;
          write stats node.page;
          if List.length i.children <= t.inner_cap then None
          else begin
            let left, right = split_list i.children in
            let rnode' = { page = Pager.alloc t.pager; body = Inner { children = right } } in
            i.children <- left;
            write stats rnode'.page;
            Some (fst (List.hd right), rnode')
          end)
    in
    match go t.root with
    | None -> ()
    | Some (sep, rnode) ->
      let old_min =
        match t.root.body with
        | Leaf l -> ( match l.entries with e :: _ -> e.tup | [] -> sep)
        | Inner i -> fst (List.hd i.children)
      in
      let new_root =
        { page = Pager.alloc t.pager; body = Inner { children = [ (old_min, t.root); (sep, rnode) ] } }
      in
      write stats new_root.page;
      t.root <- new_root

  (* ------------------------------------------------------------------ *)
  (* Remove                                                              *)
  (* ------------------------------------------------------------------ *)

  let unlink_leaf t node l =
    (match l.prev with
    | Some p -> ( match p.body with Leaf lp -> lp.next <- l.next | Inner _ -> ())
    | None -> ( match l.next with Some nx -> t.first_leaf <- nx | None -> ()));
    match l.next with
    | Some nx -> ( match nx.body with Leaf ln -> ln.prev <- l.prev | Inner _ -> ())
    | None ->
      ();
      ignore node

  let remove ?stats t tup =
    (* Returns true when the visited child became empty and was disposed. *)
    let rec go ~is_root node =
      read stats node.page;
      match node.body with
      | Leaf l ->
        let found = ref false in
        let entries =
          List.filter_map
            (fun e ->
              if (not !found) && cmp_entry t tup e.tup = 0 then begin
                found := true;
                e.count <- e.count - 1;
                if e.count <= 0 then begin
                  t.cardinal <- t.cardinal - 1;
                  None
                end
                else Some e
              end
              else Some e)
            l.entries
        in
        if !found then begin
          l.entries <- entries;
          write stats node.page
        end;
        if entries = [] && not is_root then begin
          unlink_leaf t node l;
          true
        end
        else false
      | Inner i ->
        let child = route ~before:(fun sep -> cmp_entry t sep tup <= 0) i.children in
        let gone = go ~is_root:false child in
        if gone then begin
          i.children <- List.filter (fun (_, c) -> not (c == child)) i.children;
          write stats node.page
        end;
        if i.children = [] && not is_root then true
        else begin
          (* Collapse a root with a single child. *)
          if is_root then begin
            let rec collapse () =
              match t.root.body with
              | Inner { children = [ (_, only) ] } ->
                t.root <- only;
                collapse ()
              | Inner { children = [] } ->
                let leaf = new_leaf t in
                t.root <- leaf;
                t.first_leaf <- leaf
              | Inner _ | Leaf _ -> ()
            in
            collapse ()
          end;
          false
        end
    in
    ignore (go ~is_root:true t.root)

  (* ------------------------------------------------------------------ *)
  (* Lookup / scans                                                      *)
  (* ------------------------------------------------------------------ *)

  (* The last child whose separator's key is strictly below [key]: where
     [key]'s run starts.  [acc] is the first child by default. *)
  let rec child_for_key t key acc = function
    | [] -> acc
    | (sep, child) :: rest ->
      child_for_key t key (if Gom.Value.compare (t.key_of sep) key < 0 then child else acc) rest

  let rec descend_for_key ?stats t key node =
    read stats node.page;
    match node.body with
    | Leaf _ -> node
    | Inner { children = (_, first) :: rest } ->
      descend_for_key ?stats t key (child_for_key t key first rest)
    | Inner { children = [] } -> invalid_arg "Bptree.route: inner node without children"

  (* Where a batch of point lookups stands: the leaf the previous key's
     run ended on.  One per [lookup_many] call. *)
  type cursor = { mutable at : node }

  let no_leaf = { page = -1; body = Inner { children = [] } }

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
      run_in t stats cur key l l.entries

  and run_in t stats cur key l = function
    | e :: rest ->
      let c = Gom.Value.compare (t.key_of e.tup) key in
      if c < 0 then run_in t stats cur key l rest
      else if c = 0 then e.tup :: run_in t stats cur key l rest
      else []
    | [] -> ( match l.next with Some nx -> run_from t stats cur key nx | None -> [])

  (* Serve many point lookups at once, in ascending key order, sharing
     tree descents between adjacent keys: when the next key falls strictly
     inside the key range of the leaf the previous lookup ended on, the
     walk continues from that leaf instead of re-descending from the root.
     Combined with per-operation distinct-page accounting this is the
     batched executor's page-locality win: probes whose runs share leaves
     charge those leaves once. *)
  let lookup_many ?stats t keys =
    let keys = List.sort_uniq Gom.Value.compare keys in
    let cur = { at = no_leaf } in
    List.map
      (fun key ->
        let leaf =
          match cur.at with
          | { body = Leaf { entries = first :: _ as es; _ }; _ } as node
            when Gom.Value.compare (t.key_of first.tup) key < 0 && last_vs t key es >= 0 ->
            (* The run for [key], if any, starts in this leaf. *)
            node
          | _ -> descend_for_key ?stats t key t.root
        in
        (key, run_from t stats cur key leaf))
      keys

  let lookup ?stats t key =
    match lookup_many ?stats t [ key ] with [ (_, tuples) ] -> tuples | _ -> assert false

  let find_entry t tup =
    let key = t.key_of tup in
    let rec walk node =
      match node.body with
      | Inner _ -> None
      | Leaf l -> (
        match List.find_opt (fun e -> cmp_tuple e.tup tup = 0) l.entries with
        | Some e -> Some e
        | None ->
          let past =
            List.exists (fun e -> cmp_entry t e.tup tup > 0) l.entries
          in
          if past then None
          else ( match l.next with Some nx -> walk nx | None -> None))
    in
    walk (descend_for_key t key t.root)

  let mem t tup = find_entry t tup <> None

  let refcount t tup = match find_entry t tup with Some e -> e.count | None -> 0

  let iter ?stats t f =
    let rec walk node =
      match node.body with
      | Inner _ -> ()
      | Leaf l ->
        if l.entries <> [] then begin
          read stats node.page;
          prefetch_chain t stats ~all:true Gom.Value.Null node;
          List.iter (fun e -> f e.tup) l.entries
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
      (* The one fix to the tree as it was: each delta's leaf is found
         through the separators, as [insert] routes, instead of against
         the next leaf's current minimum, which lazy deletion can leave
         above the separator (the delta then landed left of its bound). *)
      ignore (descend_for_key ?stats t (t.key_of first) t.root);
      let rec leaf_for tup node =
        match node.body with
        | Leaf _ -> node
        | Inner i -> leaf_for tup (route ~before:(fun sep -> cmp_entry t sep tup <= 0) i.children)
      in
      let apply_one (tup, d) =
        let node = leaf_for tup t.root in
        match node.body with
        | Inner _ -> assert false
        | Leaf l ->
          read stats node.page;
          let changed = ref false in
          let rec go = function
            | [] ->
              if d > 0 then begin
                t.cardinal <- t.cardinal + 1;
                changed := true;
                [ { tup; count = d } ]
              end
              else []
            | e :: rest ->
              let c = cmp_entry t tup e.tup in
              if c = 0 then begin
                e.count <- e.count + d;
                changed := true;
                if e.count <= 0 then begin
                  t.cardinal <- t.cardinal - 1;
                  rest
                end
                else e :: rest
              end
              else if c < 0 then
                if d > 0 then begin
                  t.cardinal <- t.cardinal + 1;
                  changed := true;
                  { tup; count = d } :: e :: rest
                end
                else e :: rest
              else e :: go rest
          in
          l.entries <- go l.entries;
          if !changed then begin
            write stats node.page;
            if l.entries = [] || List.length l.entries > t.leaf_cap then structural := true
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
              if l.entries = [] then acc
              else if List.length l.entries <= t.leaf_cap then node :: acc
              else begin
                match chunk t.leaf_cap l.entries with
                | [] -> acc
                | first_chunk :: rest ->
                  l.entries <- first_chunk;
                  write stats node.page;
                  List.fold_left
                    (fun acc es ->
                      let n =
                        {
                          page = Pager.alloc t.pager;
                          body = Leaf { entries = es; next = None; prev = None };
                        }
                      in
                      write stats n.page;
                      n :: acc)
                    (node :: acc) rest
              end
            in
            (match nxt with Some nx -> collect nx acc | None -> List.rev acc)
        in
        let leaves = collect t.first_leaf [] in
        match leaves with
        | [] ->
          let leaf = new_leaf t in
          write stats leaf.page;
          t.root <- leaf;
          t.first_leaf <- leaf
        | head :: _ ->
          (match head.body with
          | Leaf l -> l.prev <- None
          | Inner _ -> assert false);
          t.first_leaf <- head;
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
          link leaves;
          let min_of node =
            match node.body with
            | Leaf l -> (List.hd l.entries).tup
            | Inner i -> fst (List.hd i.children)
          in
          let rec build level =
            match level with
            | [ single ] -> single
            | _ ->
              chunk t.inner_cap level
              |> List.map (fun cs ->
                     let n =
                       {
                         page = Pager.alloc t.pager;
                         body = Inner { children = List.map (fun c -> (min_of c, c)) cs };
                       }
                     in
                     write stats n.page;
                     n)
              |> build
          in
          t.root <- build leaves
      end

  (* ------------------------------------------------------------------ *)
  (* Geometry                                                            *)
  (* ------------------------------------------------------------------ *)

  let height t =
    let rec go acc node =
      match node.body with Leaf _ -> acc | Inner i -> go (acc + 1) (snd (List.hd i.children))
    in
    max 1 (go 0 t.root)

  let leaf_pages t =
    let n = ref 0 in
    let rec walk node =
      match node.body with
      | Inner _ -> ()
      | Leaf l ->
        if l.entries <> [] then incr n;
        ( match l.next with Some nx -> walk nx | None -> ())
    in
    walk t.first_leaf;
    max 1 !n

  let inner_pages t =
    let rec go node =
      match node.body with
      | Leaf _ -> 0
      | Inner i -> 1 + List.fold_left (fun acc (_, c) -> acc + go c) 0 i.children
    in
    max 1 (go t.root)
end

(* --- Array nodes against the list-node model --- *)

type op =
  | Bulk of (int * int) list
  | Insert of int * int
  | Remove of int * int
  | Drain
  | Apply of ((int * int) * int) list
  | Lookup_many of int list
  | Lookup of int
  | Mem of int * int
  | Refcount of int * int
  | Scan

let op_to_string =
  let pair (a, b) = Printf.sprintf "(%d,%d)" a b in
  let pairs l = String.concat " " (List.map pair l) in
  function
  | Bulk l -> "bulk " ^ pairs l
  | Insert (a, b) -> "insert " ^ pair (a, b)
  | Remove (a, b) -> "remove " ^ pair (a, b)
  | Drain -> "drain"
  | Apply l ->
    "apply " ^ String.concat " " (List.map (fun (p, d) -> Printf.sprintf "%s%+d" (pair p) d) l)
  | Lookup_many ks -> "lookup_many " ^ String.concat " " (List.map string_of_int ks)
  | Lookup k -> Printf.sprintf "lookup %d" k
  | Mem (a, b) -> "mem " ^ pair (a, b)
  | Refcount (a, b) -> "refcount " ^ pair (a, b)
  | Scan -> "scan"

(* Leaf capacity [leaf] and inner fan-out [fan] over a 60-byte page: a
   tuple takes 60 / leaf bytes and a child reference 60 / fan. *)
type shape = { leaf : int; fan : int; pool : int option; key_col : int }

let shape_to_string s =
  Printf.sprintf "leaf %d, fan %d, %s, key column %d" s.leaf s.fan
    (match s.pool with Some n -> Printf.sprintf "%d-page pool" n | None -> "unbuffered")
    s.key_col

(* Eight keys by eight second columns: key runs span leaves, and
   repeated tuples accumulate reference counts. *)
let model_stream_gen =
  let open QCheck.Gen in
  let* leaf = int_range 1 4 in
  let* fan = int_range 2 5 in
  let* pool = oneofl [ None; Some 3 ] in
  let* key_col = int_bound 1 in
  let v = int_bound 7 in
  let p = pair v v in
  let op =
    frequency
      [
        (1, map (fun l -> Bulk l) (list_size (int_bound 30) p));
        (8, map (fun (a, b) -> Insert (a, b)) p);
        (5, map (fun (a, b) -> Remove (a, b)) p);
        (1, return Drain);
        (3, map (fun l -> Apply l) (list_size (int_bound 24) (pair p (int_range (-3) 3))));
        (2, map (fun ks -> Lookup_many ks) (list_size (int_bound 6) (int_range (-1) 8)));
        (2, map (fun k -> Lookup k) (int_range (-1) 8));
        (1, map (fun (a, b) -> Mem (a, b)) p);
        (1, map (fun (a, b) -> Refcount (a, b)) p);
        (1, return Scan);
      ]
  in
  let* n = int_range 0 60 in
  let* ops = list_repeat n op in
  return ({ leaf; fan; pool; key_col }, ops)

let ref_val i = V.Ref (Gom.Oid.of_int i)

let prop_matches_model =
  QCheck.Test.make
    ~count:(Test_maintenance_batch.iters_env "ASR_MAINT_COUNT" 200)
    ~name:"array nodes = list-node model"
    (QCheck.make model_stream_gen ~print:(fun (shape, ops) ->
         shape_to_string shape ^ ": " ^ String.concat "; " (List.map op_to_string ops)))
    (fun (shape, ops) ->
      let config = Storage.Config.make ~page_size:60 ~oid_size:((60 / shape.fan) - 4) ~pp_size:4 () in
      let tuple_bytes = 60 / shape.leaf in
      let key_of tup = tup.(shape.key_col) in
      let pager = Storage.Pager.create () and mpager = Storage.Pager.create () in
      let t = B.create ~config ~pager ~tuple_bytes ~key_of in
      let m = Model.create ~config ~pager:mpager ~tuple_bytes ~key_of in
      let stats () =
        match shape.pool with
        | Some n -> Storage.Stats.create ~buffer_capacity:n ()
        | None -> Storage.Stats.create ()
      in
      let st = stats () and mst = stats () in
      let step op =
        Storage.Stats.begin_op st;
        Storage.Stats.begin_op mst;
        let same =
          match op with
          | Bulk l ->
            let tups = List.map (fun (a, b) -> tup a b) l in
            B.bulk_load t tups;
            Model.bulk_load m tups;
            true
          | Insert (a, b) ->
            B.insert ~stats:st t (tup a b);
            Model.insert ~stats:mst m (tup a b);
            true
          | Remove (a, b) ->
            B.remove ~stats:st t (tup a b);
            Model.remove ~stats:mst m (tup a b);
            true
          | Drain ->
            (* Every reference of every tuple, one remove at a time. *)
            List.iter
              (fun tu ->
                for _ = 1 to Model.refcount m tu do
                  B.remove ~stats:st t tu;
                  Model.remove ~stats:mst m tu
                done)
              (Model.scan m);
            true
          | Apply l ->
            let deltas = List.map (fun ((a, b), d) -> (tup a b, d)) l in
            B.apply_many ~stats:st t deltas;
            Model.apply_many ~stats:mst m deltas;
            true
          | Lookup_many ks ->
            let keys = List.map ref_val ks in
            B.lookup_many ~stats:st t keys = Model.lookup_many ~stats:mst m keys
          | Lookup k -> B.lookup ~stats:st t (ref_val k) = Model.lookup ~stats:mst m (ref_val k)
          | Mem (a, b) -> B.mem t (tup a b) = Model.mem m (tup a b)
          | Refcount (a, b) -> B.refcount t (tup a b) = Model.refcount m (tup a b)
          | Scan -> B.scan ~stats:st t = Model.scan ~stats:mst m
        in
        let fail what = QCheck.Test.fail_reportf "after %s: %s" (op_to_string op) what in
        if not same then fail "answers differ";
        if B.cardinal t <> Model.cardinal m then fail "cardinal differs";
        if B.height t <> Model.height m then fail "height differs";
        if B.leaf_pages t <> Model.leaf_pages m then fail "leaf pages differ";
        if B.inner_pages t <> Model.inner_pages m then fail "inner pages differ";
        if Storage.Pager.allocated pager <> Storage.Pager.allocated mpager then
          fail "page allocation differs";
        if Storage.Stats.snapshot st <> Storage.Stats.snapshot mst then fail "page accounting differs";
        (match B.check_invariants t with Ok () -> () | Error e -> fail ("invariant: " ^ e));
        if B.scan t <> Model.scan m then fail "contents differ"
      in
      List.iter step ops;
      true)

(* --- Allocation --- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* A default-configuration tree (253 width-2 tuples per leaf) whose one
   leaf holds [n] tuples with even second columns. *)
let one_leaf n =
  let t =
    B.create ~config:Storage.Config.default ~pager:(Storage.Pager.create ()) ~tuple_bytes:16
      ~key_of:(fun tup -> tup.(0))
  in
  B.bulk_load t (List.init n (fun i -> tup 1 (2 * i)));
  check_int "one leaf" 1 (B.leaf_pages t);
  t

let test_insert_allocation_flat () =
  let words n =
    let t = one_leaf n in
    (* Past every entry: a list leaf copies all of them to add it. *)
    let fresh = tup 1 ((2 * n) + 1) in
    let w = minor_words (fun () -> B.insert t fresh) in
    check_int "inserted" (n + 1) (B.cardinal t);
    w
  in
  let small = words 2 and large = words 250 in
  check
    (Printf.sprintf "a fresh insert allocates the same few words into 2 and 250 entries (%.0f vs %.0f)"
       small large)
    true
    (small = large && small <= 16.)

let test_remove_allocates_nothing () =
  let words n ~drop =
    let t = one_leaf n in
    let victim = tup 1 2 in
    if not drop then B.insert t victim;
    let w = minor_words (fun () -> B.remove t victim) in
    check_int "refcount after" (if drop then 0 else 1) (B.refcount t victim);
    w
  in
  List.iter
    (fun n ->
      check
        (Printf.sprintf "remove keeping the entry allocates nothing (%d entries)" n)
        true
        (words n ~drop:false = 0.);
      check
        (Printf.sprintf "remove dropping the entry allocates nothing (%d entries)" n)
        true
        (words n ~drop:true = 0.))
    [ 2; 250 ]

(* In-place edits must leave the structure whole at every step: drain a
   three-level tree tuple by tuple, refill it, and drain it again with
   a batched apply. *)
let test_drain_refill_invariants () =
  let t = make_tree () in
  let all = List.init 40 (fun i -> tup (i mod 7) i) in
  B.bulk_load t all;
  check "three levels" true (B.height t >= 2);
  let step what =
    match B.check_invariants t with
    | Ok () -> ()
    | Error e -> Alcotest.failf "after %s: %s" what e
  in
  List.iter
    (fun tu ->
      B.remove t tu;
      step "remove")
    all;
  check_int "drained" 0 (B.cardinal t);
  List.iter
    (fun tu ->
      B.insert t tu;
      step "insert")
    (List.rev all);
  check_int "refilled" 40 (B.cardinal t);
  B.apply_many t (List.map (fun tu -> (tu, 2)) all);
  step "apply +2";
  B.apply_many t (List.map (fun tu -> (tu, -3)) all);
  step "apply -3";
  check_int "drained in one batch" 0 (B.cardinal t);
  check "scan empty" true (B.scan t = [])

let suite =
  [
    Alcotest.test_case "empty tree" `Quick test_empty;
    Alcotest.test_case "bulk load and lookup" `Quick test_bulk_load_and_lookup;
    Alcotest.test_case "duplicate keys" `Quick test_duplicate_keys;
    Alcotest.test_case "key run across leaves" `Quick test_duplicate_key_run_across_leaves;
    Alcotest.test_case "reference counts" `Quick test_refcounts;
    Alcotest.test_case "incremental splits" `Quick test_incremental_inserts_split;
    Alcotest.test_case "interleaved insert/remove" `Quick test_interleaved_insert_remove;
    Alcotest.test_case "drain and reuse" `Quick test_remove_all_then_reuse;
    Alcotest.test_case "lookup page accounting" `Quick test_lookup_page_accounting;
    Alcotest.test_case "scan page accounting" `Quick test_scan_page_accounting;
    Alcotest.test_case "insert page accounting" `Quick test_insert_page_accounting;
    Alcotest.test_case "backward clustering" `Quick test_backward_clustering;
    Qc.to_alcotest prop_random_ops;
    Alcotest.test_case "apply_many routes by separator" `Quick
      test_apply_many_routes_by_separator;
    Qc.to_alcotest prop_matches_model;
    Alcotest.test_case "fresh insert allocation flat in occupancy" `Quick
      test_insert_allocation_flat;
    Alcotest.test_case "remove allocates nothing" `Quick test_remove_allocates_nothing;
    Alcotest.test_case "drain and refill keep invariants" `Quick test_drain_refill_invariants;
  ]
