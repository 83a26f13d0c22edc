(* The repository benchmark.

     main.exe --workload point_zipf|batch_uniform|update_mixed
              --seed N --seconds S --trace 0|1

   --trace 0 runs the measured workload and reports the end-to-end
   metrics; --trace 1 runs the separate traced run and reports the
   per-layer metrics.  Human-readable lines come first, then one JSON
   report line with every detail, and last one JSON result line. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload point_zipf|batch_uniform|update_mixed --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: t :: rest -> trace := (match t with "0" -> Some false | "1" -> Some true | _ -> usage ()); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  if not (List.mem !workload [ "point_zipf"; "batch_uniform"; "update_mixed" ]) then usage ();
  Util.mkdir_p Util.run_dir;
  let attempted, failed, metrics, lines, report =
    Fun.protect
      ~finally:(fun () -> Util.rm_rf Util.run_dir)
      (fun () ->
        if trace then begin
          let r =
            match !workload with
            | "point_zipf" -> Traced.point_zipf ~seed
            | "batch_uniform" -> Traced.batch_uniform ~seed
            | _ -> Traced.update_mixed ~seed
          in
          (r.Traced.fails.Util.Failures.attempted, r.Traced.fails.Util.Failures.failed, r.Traced.metrics, r.Traced.lines, [])
        end
        else begin
          let r =
            match !workload with
            | "point_zipf" -> Measured.point_zipf ~seed ~seconds
            | "batch_uniform" -> Measured.batch_uniform ~seed ~seconds
            | _ -> Measured.update_mixed ~seed ~seconds
          in
          (r.Measured.fails.Util.Failures.attempted, r.Measured.fails.Util.Failures.failed, r.Measured.metrics, r.Measured.lines, r.Measured.report)
        end)
  in
  Printf.printf "asrbench %s seed=%d seconds=%g trace=%d\n" !workload seed seconds (if trace then 1 else 0);
  List.iter print_endline lines;
  let metric_json =
    Util.json_obj
      (List.map
         (fun (name, v, unit) -> (name, Util.json_obj [ ("value", Util.json_float v); ("unit", Util.json_string unit) ]))
         metrics)
  in
  print_endline
    (Util.json_obj
       ([ ("report", Util.json_string !workload); ("seed", string_of_int seed); ("trace", string_of_bool trace) ]
       @ report));
  print_endline
    (Util.json_obj
       [
         ("correct", string_of_bool (failed = 0 && attempted > 0));
         ("attempted", string_of_int (max 1 attempted));
         ("failed", string_of_int failed);
         ("metrics", metric_json);
       ])
