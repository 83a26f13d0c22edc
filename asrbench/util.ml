(* Clock, sample buffers, percentiles and small output helpers shared by
   the measured and the traced runs. *)

let now_ns () = Monotonic_clock.now ()
let ns_between a b = Int64.to_float (Int64.sub b a)

(* Run [f] and return its result with the wall time it took, in
   nanoseconds, on the monotonic clock. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, ns_between t0 (now_ns ()))

(* A growable buffer of float samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s

  (* Nearest-rank percentile of a sorted array; [nan] when empty. *)
  let pct_sorted s p =
    let n = Array.length s in
    if n = 0 then nan
    else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

  let pct t p = pct_sorted (sorted t) p
  let median t = pct t 0.5

  (* Median of the samples added since the count was [from]. *)
  let median_from t from =
    let s = Array.sub t.a from (t.n - from) in
    Array.sort Float.compare s;
    pct_sorted s 0.5
end

(* The highest of the usual percentiles that still has at least ten
   samples beyond it — the reporting rule every timing follows. *)
let tail_percentile n =
  List.find_opt (fun p -> float_of_int n *. (1. -. p) >= 10.) [ 0.999; 0.99; 0.9; 0.5 ]

let pct_label p =
  let s = Printf.sprintf "%g" (100. *. p) in
  "p" ^ String.concat "" (String.split_on_char '.' s)

(* One-line summary of a latency sample: median, p99 and the tail rule. *)
let describe_latency name (s : Samples.t) =
  let n = Samples.count s in
  let sorted = Samples.sorted s in
  let tail =
    match tail_percentile n with
    | Some p -> Printf.sprintf "%s %.1f" (pct_label p) (Samples.pct_sorted sorted p)
    | None -> "no percentile has 10 samples beyond it"
  in
  Printf.sprintf "%-14s p50 %.1f us, p99 %.1f us, highest qualifying %s us (n=%d%s)" name
    (Samples.pct_sorted sorted 0.5) (Samples.pct_sorted sorted 0.99) tail n
    (if n < 1000 then "; p99 has fewer than 10 samples beyond it" else "")

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_string s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Scratch space for durable bases and trace files, inside the checkout
   the benchmark runs from. *)
let work_root = ".asrbench"

(* This process's own scratch directory; removed when the run ends. *)
let run_dir = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ()))

let top_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Failures are counted, never swallowed: the first few are also shown
   on standard error so a red run says why. *)
module Failures = struct
  type t = { mutable attempted : int; mutable failed : int }

  let create () = { attempted = 0; failed = 0 }

  let attempt t = t.attempted <- t.attempted + 1

  let fail t what =
    t.failed <- t.failed + 1;
    if t.failed <= 5 then prerr_endline ("asrbench: FAILED " ^ what)

  (* Count one attempted operation; [check] returns [None] when the
     answer is right, or a description of the mismatch. *)
  let check t ~what check =
    attempt t;
    match check () with
    | None -> ()
    | Some why -> fail t (what ^ ": " ^ why)
    | exception e -> fail t (what ^ ": " ^ Printexc.to_string e)
end
