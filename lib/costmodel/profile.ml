type system = { page_size : float; oid_size : float; pp_size : float }

let default_system = { page_size = 4056.; oid_size = 8.; pp_size = 4. }

let bplus_fan s = Float.of_int (int_of_float (s.page_size /. (s.pp_size +. s.oid_size)))

type sharing = Uniform | Paper_default

type t = {
  n : int;
  c : float array;
  d : float array;
  fan : float array;
  size : float array;
  shar : float array option;
  sharing : sharing;
  system : system;
}

let make ?sizes ?shar ?(sharing = Uniform) ?(system = default_system) ~c ~d ~fan () =
  let n = List.length d in
  if n < 1 then invalid_arg "Profile.make: need at least one attribute";
  if List.length c <> n + 1 then invalid_arg "Profile.make: c must have n+1 entries";
  if List.length fan <> n then invalid_arg "Profile.make: fan must have n entries";
  let sizes = match sizes with None -> List.init (n + 1) (fun _ -> 100.) | Some s -> s in
  if List.length sizes <> n + 1 then
    invalid_arg "Profile.make: sizes must have n+1 entries";
  (match shar with
  | Some s when List.length s <> n -> invalid_arg "Profile.make: shar must have n entries"
  | _ -> ());
  let c = Array.of_list c and d = Array.of_list d and fan = Array.of_list fan in
  let size = Array.of_list sizes in
  Array.iter (fun x -> if x <= 0. then invalid_arg "Profile.make: c must be positive") c;
  Array.iteri
    (fun i x ->
      if x < 0. then invalid_arg "Profile.make: d must be non-negative";
      if x > c.(i) then invalid_arg "Profile.make: d_i must not exceed c_i")
    d;
  Array.iter (fun x -> if x < 0. then invalid_arg "Profile.make: fan must be non-negative") fan;
  Array.iter (fun x -> if x <= 0. then invalid_arg "Profile.make: sizes must be positive") size;
  { n; c; d; fan; size; shar = Option.map Array.of_list shar; sharing; system }

let n t = t.n
let system t = t.system

let check name lo hi i =
  if i < lo || i > hi then
    invalid_arg (Printf.sprintf "Profile.%s: index %d out of [%d,%d]" name lo i hi)

let c t i =
  check "c" 0 t.n i;
  t.c.(i)

let d t i =
  check "d" 0 (t.n - 1) i;
  t.d.(i)

let fan t i =
  check "fan" 0 (t.n - 1) i;
  t.fan.(i)

let size t i =
  check "size" 0 t.n i;
  t.size.(i)

(* Expected distinct targets of [refs] uniform random references into a
   population of [c]. *)
let distinct_targets ~c ~refs =
  if refs <= 0. || c <= 0. then 0. else c *. (1. -. ((1. -. (1. /. c)) ** refs))

let e t i =
  if i = 0 then t.c.(0)
  else begin
    check "e" 1 t.n i;
    let refs = t.d.(i - 1) *. t.fan.(i - 1) in
    match t.shar with
    | Some s -> if s.(i - 1) <= 0. then 0. else refs /. s.(i - 1)
    | None -> (
      match t.sharing with
      | Uniform -> distinct_targets ~c:t.c.(i) ~refs
      | Paper_default -> if refs <= 0. then 0. else t.c.(i))
  end

let shar t i =
  check "shar" 0 (t.n - 1) i;
  match t.shar with
  | Some s -> s.(i)
  | None ->
    let ei = e t (i + 1) in
    if ei <= 0. then 0. else t.d.(i) *. t.fan.(i) /. ei

let p_a t i = d t i /. c t i
let p_h t i = if i = 0 then 1. else e t i /. c t i
let ref_ t i = d t i *. fan t i
let spread t i = if e t (i + 1) <= 0. then 0. else d t i /. e t (i + 1)

let with_sizes t sizes =
  if List.length sizes <> t.n + 1 then invalid_arg "Profile.with_sizes: wrong length";
  { t with size = Array.of_list sizes }

let with_fan t fan =
  if List.length fan <> t.n then invalid_arg "Profile.with_fan: wrong length";
  { t with fan = Array.of_list fan }

let pp ppf t =
  let row name arr =
    Format.fprintf ppf "%-6s" name;
    Array.iter (fun x -> Format.fprintf ppf " %10.0f" x) arr;
    Format.fprintf ppf "@,"
  in
  Format.fprintf ppf "@[<v>n = %d@," t.n;
  row "c" t.c;
  row "d" t.d;
  row "fan" t.fan;
  row "size" t.size;
  Format.fprintf ppf "@]"
