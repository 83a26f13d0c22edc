(* Unit tests for Gom.Store: instantiation, typing, mutation, events. *)

module S = Gom.Schema
module V = Gom.Value
module St = Gom.Store

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let throws_type f = try f (); false with St.Type_error _ -> true

let schema () =
  let s = S.empty in
  let s = S.define_tuple s "Leaf" [ ("name", "STRING") ] in
  let s = S.define_tuple s "SpecialLeaf" ~supertypes:[ "Leaf" ] [ ("extra", "INT") ] in
  let s = S.define_set s "LeafSet" "Leaf" in
  let s = S.define_tuple s "Node" [ ("leaf", "Leaf"); ("leaves", "LeafSet"); ("n", "INT") ] in
  s

let store () = St.create (schema ())

let test_new_object_nulls () =
  let st = store () in
  let o = St.new_object st "Node" in
  check "attr starts NULL" true (V.is_null (St.get_attr st o "leaf"));
  check "int attr starts NULL" true (V.is_null (St.get_attr st o "n"));
  check "exists" true (St.mem st o)

let test_new_set_empty () =
  let st = store () in
  let s = St.new_object st "LeafSet" in
  check_int "empty set" 0 (List.length (St.elements st s))

let test_cannot_instantiate_atomic () =
  let st = store () in
  check "atomic" true (throws_type (fun () -> ignore (St.new_object st "STRING")));
  check "unknown" true (throws_type (fun () -> ignore (St.new_object st "Nope")))

let test_set_attr_typing () =
  let st = store () in
  let node = St.new_object st "Node" in
  let leaf = St.new_object st "Leaf" in
  St.set_attr st node "leaf" (V.Ref leaf);
  check "stored" true (V.equal (St.get_attr st node "leaf") (V.Ref leaf));
  St.set_attr st node "n" (V.Int 42);
  (* wrong atomic type *)
  check "int into string" true
    (throws_type (fun () -> St.set_attr st node "n" (V.Str "x")));
  (* wrong object type *)
  let other = St.new_object st "Node" in
  check "node into leaf attr" true
    (throws_type (fun () -> St.set_attr st node "leaf" (V.Ref other)));
  (* unknown attribute *)
  check "unknown attr" true (throws_type (fun () -> St.set_attr st node "zz" V.Null))

let test_subtype_substitutability () =
  let st = store () in
  let node = St.new_object st "Node" in
  let special = St.new_object st "SpecialLeaf" in
  St.set_attr st node "leaf" (V.Ref special);
  check "subtype accepted" true (V.equal (St.get_attr st node "leaf") (V.Ref special))

let test_set_elements_typing () =
  let st = store () in
  let s = St.new_object st "LeafSet" in
  let leaf = St.new_object st "Leaf" in
  let node = St.new_object st "Node" in
  St.insert_elem st s (V.Ref leaf);
  check_int "one element" 1 (List.length (St.elements st s));
  check "wrong elem type" true (throws_type (fun () -> St.insert_elem st s (V.Ref node)));
  check "null elem" true (throws_type (fun () -> St.insert_elem st s V.Null));
  (* duplicate insert is a no-op *)
  St.insert_elem st s (V.Ref leaf);
  check_int "still one element" 1 (List.length (St.elements st s));
  St.remove_elem st s (V.Ref leaf);
  check_int "removed" 0 (List.length (St.elements st s))

let test_extent () =
  let st = store () in
  let l1 = St.new_object st "Leaf" in
  let sp = St.new_object st "SpecialLeaf" in
  let _n = St.new_object st "Node" in
  check_int "exact extent" 1 (List.length (St.extent st "Leaf"));
  check_int "deep extent" 2 (List.length (St.extent ~deep:true st "Leaf"));
  check "deep extent members" true
    (List.mem l1 (St.extent ~deep:true st "Leaf")
    && List.mem sp (St.extent ~deep:true st "Leaf"));
  check_int "count deep" 2 (St.count ~deep:true st "Leaf")

let test_events () =
  let st = store () in
  let log = ref [] in
  let (_ : St.subscription) = St.subscribe st (fun ev -> log := ev :: !log) in
  let node = St.new_object st "Node" in
  let leaf = St.new_object st "Leaf" in
  St.set_attr st node "leaf" (V.Ref leaf);
  St.set_attr st node "leaf" (V.Ref leaf) (* no-op: no event *);
  let s = St.new_object st "LeafSet" in
  St.insert_elem st s (V.Ref leaf);
  St.remove_elem st s (V.Ref leaf);
  let kinds =
    List.rev_map
      (function
        | St.Created _ -> "created"
        | St.Attr_set _ -> "attr"
        | St.Set_inserted _ -> "ins"
        | St.Set_removed _ -> "rem"
        | St.Deleted _ -> "del")
      !log
  in
  Alcotest.(check (list string))
    "event sequence"
    [ "created"; "created"; "attr"; "created"; "ins"; "rem" ]
    kinds

let test_referencers () =
  let st = store () in
  let node1 = St.new_object st "Node" in
  let node2 = St.new_object st "Node" in
  let leaf = St.new_object st "Leaf" in
  St.set_attr st node1 "leaf" (V.Ref leaf);
  let s = St.new_object st "LeafSet" in
  St.insert_elem st s (V.Ref leaf);
  St.set_attr st node2 "leaves" (V.Ref s);
  let direct = St.referencers st "Node" "leaf" (V.Ref leaf) in
  check "direct referencer" true (direct = [ (node1, None) ]);
  let via_set = St.referencers st "Node" "leaves" (V.Ref leaf) in
  check "set referencer" true (via_set = [ (node2, Some s) ])

let test_delete_nullifies () =
  let st = store () in
  let node = St.new_object st "Node" in
  let leaf = St.new_object st "Leaf" in
  let s = St.new_object st "LeafSet" in
  St.set_attr st node "leaf" (V.Ref leaf);
  St.set_attr st node "leaves" (V.Ref s);
  St.insert_elem st s (V.Ref leaf);
  St.delete st leaf;
  check "gone" false (St.mem st leaf);
  check "attr nullified" true (V.is_null (St.get_attr st node "leaf"));
  check_int "set emptied" 0 (List.length (St.elements st s));
  check_int "extent shrank" 0 (List.length (St.extent st "Leaf"))

(* Inbound references are nullified holder by holder in descending
   identifier order, then the object's own attributes, then [Deleted]. *)
let test_delete_event_order () =
  let st = store () in
  let leaf = St.new_object st "Leaf" in
  St.set_attr st leaf "name" (V.Str "x");
  let n1 = St.new_object st "Node" in
  let s = St.new_object st "LeafSet" in
  let n2 = St.new_object st "Node" in
  St.set_attr st n1 "leaf" (V.Ref leaf);
  St.set_attr st n2 "leaf" (V.Ref leaf);
  St.insert_elem st s (V.Ref leaf);
  St.set_attr st n1 "leaves" (V.Ref s);
  let log = ref [] in
  let (_ : St.subscription) = St.subscribe st (fun ev -> log := ev :: !log) in
  St.delete st leaf;
  let oid o = Format.asprintf "%a" Gom.Oid.pp o in
  let show = function
    | St.Created o -> "created " ^ oid o
    | St.Attr_set { obj; attr; old_value; new_value } ->
      Printf.sprintf "attr %s.%s %s->%s" (oid obj) attr (V.to_string old_value)
        (V.to_string new_value)
    | St.Set_inserted { set; elem } ->
      Printf.sprintf "ins %s %s" (oid set) (V.to_string elem)
    | St.Set_removed { set; elem } ->
      Printf.sprintf "rem %s %s" (oid set) (V.to_string elem)
    | St.Deleted { obj; ty } -> Printf.sprintf "del %s %s" (oid obj) ty
  in
  let l = V.to_string (V.Ref leaf) in
  Alcotest.(check (list string))
    "delete events"
    [
      Printf.sprintf "attr %s.leaf %s->%s" (oid n2) l (V.to_string V.Null);
      Printf.sprintf "rem %s %s" (oid s) l;
      Printf.sprintf "attr %s.leaf %s->%s" (oid n1) l (V.to_string V.Null);
      Printf.sprintf "attr %s.name %s->%s" (oid leaf) (V.to_string (V.Str "x"))
        (V.to_string V.Null);
      Printf.sprintf "del %s Leaf" (oid leaf);
    ]
    (List.rev_map show !log)

let test_names () =
  let st = store () in
  let o = St.new_object st "Node" in
  St.bind_name st "root" o;
  check "found" true (St.find_name st "root" = Some o);
  check "missing" true (St.find_name st "other" = None);
  St.delete st o;
  check "name dropped with object" true (St.find_name st "root" = None)

let suite =
  [
    Alcotest.test_case "new object all NULL" `Quick test_new_object_nulls;
    Alcotest.test_case "new set empty" `Quick test_new_set_empty;
    Alcotest.test_case "cannot instantiate atomics" `Quick test_cannot_instantiate_atomic;
    Alcotest.test_case "set_attr typing" `Quick test_set_attr_typing;
    Alcotest.test_case "subtype substitutability" `Quick test_subtype_substitutability;
    Alcotest.test_case "set element typing" `Quick test_set_elements_typing;
    Alcotest.test_case "extents" `Quick test_extent;
    Alcotest.test_case "mutation events" `Quick test_events;
    Alcotest.test_case "referencers" `Quick test_referencers;
    Alcotest.test_case "delete nullifies references" `Quick test_delete_nullifies;
    Alcotest.test_case "delete event order with three holders" `Quick
      test_delete_event_order;
    Alcotest.test_case "persistent names" `Quick test_names;
  ]
