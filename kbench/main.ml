(* kbench: the end-to-end benchmark of kpt.

     main.exe --workload corpus-batch|scale-check
              --seed N --seconds S --trace 0|1
              [--write-refs] [--refs DIR] [--state DIR] [--kpt EXE]
              [--settings FILE]

   [--trace 0] measures the end-to-end metrics with tracing off;
   [--trace 1] is the separate traced run giving the per-layer metrics
   and running the benchmark's self-tests.  Human-readable lines come
   first; the last line of standard output is one JSON object.
   [--write-refs] (re)writes the frozen reference verdicts for the seed
   instead of measuring; for corpus-batch, also those of its traced
   run's serve probe. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload corpus-batch|scale-check --seed N --seconds S \
     --trace 0|1 [--write-refs] [--refs DIR] [--state DIR] [--kpt EXE] [--settings FILE]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  write_refs : bool;
  refs_dir : string;
  state_dir : string;
  kpt : string;
  settings : string;
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 1;
        seconds = 10.0;
        trace = false;
        write_refs = false;
        refs_dir = "kbench/refs";
        state_dir = ".kbench";
        kpt = "_build/default/bin/kpt.exe";
        settings = "kbench/settings.json";
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with Some s -> a := { !a with seed = s }; go rest | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> a := { !a with seconds = s }; go rest
        | _ -> usage ())
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> a := { !a with trace = false }; go rest
        | "1" -> a := { !a with trace = true }; go rest
        | _ -> usage ())
    | "--write-refs" :: rest -> a := { !a with write_refs = true }; go rest
    | "--refs" :: v :: rest -> a := { !a with refs_dir = v }; go rest
    | "--state" :: v :: rest -> a := { !a with state_dir = v }; go rest
    | "--kpt" :: v :: rest -> a := { !a with kpt = v }; go rest
    | "--settings" :: v :: rest -> a := { !a with settings = v }; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !a.workload [ "corpus-batch"; "scale-check" ]) then usage ();
  !a

(* [Driver.check] turns every failure of a spec into a report, so an
   in-process run has no failed operations: one that raised would have
   ended the run. *)
let print_end_to_end ~workload ~seed ~digest ~attempted tally metrics =
  Util.say "%s seed=%d inputs=%s" workload seed digest;
  Util.say "verdict_mismatches = %d (count; %d verdicts judged, %d BFS cross-checks)"
    tally.Verdict.mismatches tally.Verdict.checked tally.Verdict.bfs_checked;
  List.iter (fun n -> Util.say "  mismatch: %s" n) (List.rev tally.Verdict.notes);
  Util.say "failed_share = 0 (ratio; 0 of %d)" attempted;
  List.iter
    (fun (name, v) -> Util.say "%s = %s (%s)" name (Util.json_num v) (Report.unit_of Report.end_to_end name))
    metrics

(* The per-layer metrics the serve probe contributes to corpus-batch's
   traced run. *)
let serve_probe_metrics =
  [
    "analysis.lint_semantic_ms";
    "core.solve_ms";
    "kbp.solutions.candidates";
    "serve.handle_ms_p50";
    "serve.overhead_ms_p50";
    "serve.cache_hit_share";
    "serve.cache_evictions";
    "serve.sheds";
    "serve.io_timeouts";
    "serve.queue_depth_max";
    "serve.inflight_after_drain";
    "load.lag_ms_p99";
  ]

let serve_run args =
  {
    Serve_mix.seed = args.seed;
    seconds = args.seconds;
    refs_dir = args.refs_dir;
    state_dir = args.state_dir;
    kpt = args.kpt;
    settings_path = args.settings;
  }

let run_check_workload args kind =
  let tally = Verdict.tally () in
  let refs_dir = args.refs_dir in
  if args.write_refs then begin
    let ctx = Run_check.setup kind ~seed:args.seed ~refs_dir in
    let outs = Run_check.batch ~jobs:1 ctx.Run_check.specs in
    let path = Verdict.refs_path ~dir:refs_dir ~workload:args.workload ~seed:args.seed in
    Verdict.save_refs path ~digest:ctx.Run_check.digest (Run_check.reference_entries outs);
    Util.say "wrote %s" path;
    if kind = Run_check.Corpus then Serve_mix.write_refs (serve_run args);
    exit 0
  end;
  if not args.trace then begin
    let ctx, setup_s = Util.setup_median 5 (fun () -> Run_check.setup kind ~seed:args.seed ~refs_dir) in
    Util.reset_peak_rss ();
    let attempted, ms = Run_check.measure ctx tally ~seconds:args.seconds in
    let metrics =
      Report.fill Report.end_to_end (("setup_s", setup_s) :: ms)
    in
    print_end_to_end ~workload:args.workload ~seed:args.seed ~digest:ctx.Run_check.digest
      ~attempted tally metrics;
    Report.{ correct = tally.Verdict.mismatches = 0; attempted; failed = 0; metrics }
  end
  else begin
    let ctx = Run_check.setup kind ~seed:args.seed ~refs_dir in
    Util.mkdir_p args.state_dir;
    let trace_path =
      Filename.concat args.state_dir (Printf.sprintf "trace-%s-seed%d.jsonl" args.workload args.seed)
    in
    let attempted, layer, selftests_ok = Traced.run ctx tally ~trace_path in
    Util.say "%s seed=%d inputs=%s verdict_mismatches=%d" args.workload args.seed
      ctx.Run_check.digest tally.Verdict.mismatches;
    List.iter (fun n -> Util.say "  mismatch: %s" n) (List.rev tally.Verdict.notes);
    (* corpus-batch's traced run also carries the serve probe: the layers
       only a served request reaches are measured there *)
    let probe =
      match kind with
      | Run_check.Corpus -> Some (Serve_mix.probe (serve_run args))
      | Run_check.Scale -> None
    in
    let layer =
      match probe with
      | Some p -> List.filter (fun (k, _) -> List.mem k serve_probe_metrics) p.Report.metrics @ layer
      | None -> layer
    in
    let metrics = Report.fill Report.per_layer layer in
    let probe_ok, probe_attempted, probe_failed =
      match probe with
      | Some p -> (p.Report.correct, p.Report.attempted, p.Report.failed)
      | None -> (true, 0, 0)
    in
    Report.
      {
        correct = tally.Verdict.mismatches = 0 && selftests_ok && probe_ok;
        attempted = attempted + probe_attempted;
        failed = probe_failed;
        metrics;
      }
  end

let () =
  (* a stopped run still stops the daemon it started (at_exit) *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigint; Sys.sigterm ];
  let args = parse_args () in
  let result =
    run_check_workload args
      (if args.workload = "corpus-batch" then Run_check.Corpus else Run_check.Scale)
  in
  let names = if args.trace then Report.per_layer else Report.end_to_end in
  if args.trace then
    List.iter
      (fun (name, v) -> Util.say "%-32s %s %s" name (Util.json_num v) (Report.unit_of names name))
      result.Report.metrics;
  print_endline (Report.to_json ~names result)
