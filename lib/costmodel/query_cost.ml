type query_kind = Fw | Bw

let check p i j name =
  let n = Profile.n p in
  if not (0 <= i && i <= j && j <= n) then
    invalid_arg (Printf.sprintf "Query_cost.%s: invalid range (%d,%d), n=%d" name i j n)

let qnas_fw p i j =
  check p i j "qnas_fw";
  if i = j then 0.
  else begin
    let acc = ref 1. in
    for l = i + 1 to j - 1 do
      acc :=
        !acc
        +. Derived.yao
             ~k:(Float.ceil (Derived.ref_by_k p i l 1.))
             ~m:(Storage_cost.op p l) ~n:(Profile.c p l)
    done;
    !acc
  end

let qnas_bw p i j =
  check p i j "qnas_bw";
  if i = j then 0.
  else begin
    let acc = ref (Storage_cost.op p i) in
    for l = i + 1 to j - 1 do
      acc :=
        !acc
        +. Derived.yao
             ~k:(Float.ceil (Derived.ref_by_k p i l (Profile.d p i)))
             ~m:(Storage_cost.op p l) ~n:(Profile.c p l)
    done;
    !acc
  end

let qnas p kind i j = match kind with Fw -> qnas_fw p i j | Bw -> qnas_bw p i j

let bfan p = Profile.bplus_fan (Profile.system p)

(* Equation 33. *)
let qsup_fw p x dec i j =
  let parts = Core.Decomposition.partitions dec in
  List.fold_left
    (fun acc (a, b) ->
      if a = i && i < b then
        (* Clustered entry: one root-to-leaf descent, then the leaf
           pages of the single key. *)
        acc +. Storage_cost.ht p x a b +. Storage_cost.nlp p x a b
      else if a < i && i < b then
        (* Entered in the middle: inspect the whole partition. *)
        acc +. Storage_cost.ap p x a b
      else if i < a && a < j then begin
        let keys = Float.ceil (Derived.ref_by_k p i a 1.) in
        let pg = Storage_cost.pg p x a b in
        acc +. 1.
        +. Derived.yao ~k:keys ~m:(pg -. 1.) ~n:((pg -. 1.) *. bfan p)
        +. Derived.yao
             ~k:(keys *. Storage_cost.nlp p x a b)
             ~m:(Storage_cost.ap p x a b) ~n:(Cardinality.count p x a b)
      end
      else acc)
    0. parts

(* Equation 34. *)
let qsup_bw p x dec i j =
  let parts = Core.Decomposition.partitions dec in
  List.fold_left
    (fun acc (a, b) ->
      if b = j && a < j then
        acc +. Storage_cost.ht p x a b +. Storage_cost.rnlp p x a b
      else if a < j && j < b then acc +. Storage_cost.ap p x a b
      else if i < b && b < j then begin
        let keys = Float.ceil (Derived.reaches_k p b j 1.) in
        let pg = Storage_cost.pg p x a b in
        acc +. 1.
        +. Derived.yao ~k:keys ~m:(pg -. 1.) ~n:((pg -. 1.) *. bfan p)
        +. Derived.yao
             ~k:(keys *. Storage_cost.rnlp p x a b)
             ~m:(Storage_cost.ap p x a b) ~n:(Cardinality.count p x a b)
      end
      else acc)
    0. parts

let qsup p x dec kind i j =
  check p i j "qsup";
  if i = j then 0.
  else match kind with Fw -> qsup_fw p x dec i j | Bw -> qsup_bw p x dec i j

let q p x dec kind i j =
  check p i j "q";
  if i = j then 0.
  else if Core.Extension.supports x ~n:(Profile.n p) ~i ~j then qsup p x dec kind i j
  else qnas p kind i j

(* Equations 31-35 price every page access as a physical fault — true
   for a cold buffer.  Against a warm pool a fraction [r] of accesses
   hit resident pages; scale the analytical cost by the measured miss
   share, floored so a fully-warm segment still costs something (the
   logical work does not vanish). *)
let warmed cost ~hit_ratio =
  match hit_ratio with
  | None -> cost
  | Some r ->
    let r = Float.max 0. (Float.min 1. r) in
    cost *. (1. -. (0.95 *. r))
