type kind = Core.Extension.kind

let ats p i j =
  ignore p;
  (Profile.system p).Profile.oid_size *. Float.of_int (j - i + 1)

let atpp p i j =
  Float.of_int (int_of_float ((Profile.system p).Profile.page_size /. ats p i j))

(* Equation 15: partition size in bytes. *)
let as_ p kind i j = Cardinality.count p kind i j *. ats p i j

let ap p kind i j =
  Float.max 1. (Float.ceil (Cardinality.count p kind i j /. atpp p i j))

let total_pages p kind dec =
  List.fold_left
    (fun acc (i, j) -> acc +. ap p kind i j)
    0.
    (Core.Decomposition.partitions dec)

let opp p i =
  Float.max 1.
    (Float.of_int (int_of_float ((Profile.system p).Profile.page_size /. Profile.size p i)))

let op p i = Float.ceil (Profile.c p i /. opp p i)

let bfan p = Profile.bplus_fan (Profile.system p)

let ht p kind i j =
  let pages = ap p kind i j in
  if pages <= 1. then 1. else Float.max 1. (Float.ceil (Float.log pages /. Float.log (bfan p)))

let pg p kind i j =
  let pages = ap p kind i j in
  let h = int_of_float (ht p kind i j) in
  let total = ref 0. in
  let level = ref pages in
  for _ = 1 to h do
    level := Float.ceil (!level /. bfan p);
    total := !total +. !level
  done;
  Float.max 1. !total

(* Per-key leaf pages: partition bytes spread over the number of
   distinct clustering keys. *)
let per_key p bytes keys =
  let ps = (Profile.system p).Profile.page_size in
  Float.max 1. (Float.ceil (bytes /. (ps *. Float.max 1. keys)))

let nlp p kind i j =
  let n = Profile.n p in
  let bytes = as_ p kind i j in
  match (kind : kind) with
  | Core.Extension.Full -> per_key p bytes (Profile.d p i)
  | Core.Extension.Right_complete -> per_key p bytes (Profile.d p i)
  | Core.Extension.Canonical ->
    per_key p bytes (Derived.reaches p i n *. Derived.p_ref_by p 0 i)
  | Core.Extension.Left_complete -> per_key p bytes (Derived.ref_by p 0 i)

let rnlp p kind i j =
  let n = Profile.n p in
  let bytes = as_ p kind i j in
  match (kind : kind) with
  | Core.Extension.Full -> per_key p bytes (Profile.e p j)
  | Core.Extension.Left_complete -> per_key p bytes (Derived.ref_by p 0 j)
  | Core.Extension.Canonical ->
    per_key p bytes (Derived.reaches p j n *. Derived.p_ref_by p 0 j)
  | Core.Extension.Right_complete -> per_key p bytes (Derived.reaches p j n)
