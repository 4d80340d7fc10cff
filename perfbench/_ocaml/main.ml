(* perfbench: the repository's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up, measures it for S seconds, checks every
   output, and prints as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. The
   line before it carries the run's details (seed, draw, sample
   counts). *)

open Common

(* Each workload with its run function and the number of set-ups timed
   before the timed phase, and again after it in an untraced run
   ([setup_s] is the median of all of them): more of the cheaper
   set-ups, so that each workload times a few seconds of them. *)
let workloads =
  [ ("concretize-public", (Wl_concretize.run, 3));
    ("warm-swap", (Wl_warm.run, 8));
    ("install-spliced", (Wl_install.run, 5)) ]

(* Every metric with its unit. Each run reports the whole list of its
   kind; a layer a workload never calls reports 0 (README.md lists
   which workload measures which layer). *)
let end_to_end =
  [ ("setup_s", "s"); ("p50_ms", "ms"); ("tail_ms", "ms"); ("ops_per_s", "1/s");
    ("peak_rss_mb", "MiB") ]

let per_layer =
  [ ("encode.closure_ms", "ms"); ("encode.encode_ms", "ms"); ("encode.pool_index_ms", "ms");
    ("encode.facts", "count"); ("encode.pool_kept_frac", "ratio");
    ("program.parse_ms", "ms");
    ("ground.ground_ms", "ms"); ("ground.atoms", "count"); ("ground.rules", "count");
    ("ground.index_hit_frac", "ratio");
    ("logic.solve_ms", "ms"); ("logic.stable_checks", "count");
    ("sat.conflicts", "count"); ("sat.propagations", "count"); ("sat.decisions", "count");
    ("sat.clauses", "count");
    ("decode.decode_ms", "ms"); ("verify.check_ms", "ms"); ("verify.violations", "count");
    ("concretize.unattributed_ms", "ms"); ("concretize.unattributed_pct", "%");
    ("concretize.stepped_ms", "ms"); ("concretize.direct_ms", "ms");
    ("warm.fresh_ms", "ms"); ("session.solve_ms", "ms"); ("warm.closure_ms", "ms");
    ("warm.closure_hit_frac", "ratio"); ("warm.swap_ms", "ms"); ("warm.set_pool_ms", "ms");
    ("warm.session_ms", "ms");
    ("installer.fresh_ms", "ms"); ("installer.reinstall_ms", "ms");
    ("installer.rewired", "count"); ("installer.from_cache", "count");
    ("installer.built", "count"); ("relocate.patched", "count");
    ("mirror.fetched", "count"); ("mirror.attempts", "count"); ("store.writes", "count");
    ("linker.objects", "count");
    ("trace.p50_ms", "ms") ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat "|" (List.map fst workloads)
   ^ ") --seed N --seconds S --trace 0|1");
  exit 2

let print_result ~catalog (r : result) =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k catalog) then failwith ("perfbench: unknown metric " ^ k))
    r.metrics;
  let metric (k, unit) =
    let value = Option.value ~default:0. (List.assoc_opt k r.metrics) in
    (k, Sjson.Object [ ("value", Sjson.Float value); ("unit", Sjson.String unit) ])
  in
  print_endline
    (Sjson.to_string
       (Sjson.Object
          [ ("correct", Sjson.Bool r.correct);
            ("attempted", Sjson.Int r.attempted);
            ("failed", Sjson.Int r.failed);
            ("metrics", Sjson.Object (List.map metric catalog)) ]))

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace, List.assoc_opt !workload workloads) with
  | Some seed, Some seconds, Some trace, Some (run, setups) when seconds > 0. ->
    let r = run ~seed ~seconds ~trace ~setups in
    if (not trace) && List.exists (fun (k, _) -> not (List.mem_assoc k r.metrics)) end_to_end
    then failwith "perfbench: a workload left an end-to-end metric out";
    print_endline
      (Sjson.to_string
         (Sjson.Object
            (("workload", Sjson.String !workload)
            :: ("seed", Sjson.Int seed)
            :: ("seconds", Sjson.Float seconds)
            :: ("trace", Sjson.Bool trace)
            :: r.details)));
    print_result ~catalog:(if trace then per_layer else end_to_end) r
  | _ -> usage ()
