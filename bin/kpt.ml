(* kpt — command-line driver for the knowledge-predicate-transformer
   library.

     kpt experiments            reproduce every paper artifact (E1-E9)
     kpt solve figure1|figure2  run the KBP solvers on the paper's examples
     kpt check <protocol>       model-check a protocol against the §6 spec
     kpt check FILE … [-j N]    batch-check .unity files in parallel (lint+solve+stats)
     kpt matrix                 re-verify every protocol under every fault model
     kpt simulate <protocol>    run a concrete fair execution
     kpt proof kbp|standard     replay the §6 proofs in the LCF kernel
     kpt parse FILE             parse and elaborate a .unity source file
     kpt lint FILE …            run the static-analysis passes on source files
                                (--semantic adds the budgeted KPT1xx tier)
     kpt slice FILE [--wrt P]   cone-of-influence slice of a file's protocol
     kpt verify FILE …          check user-supplied properties of a file
     kpt stats FILE             profile the engine on a file (--json for machines) *)

open Cmdliner
open Kpt_predicate
open Kpt_unity
open Kpt_core
open Kpt_protocols

let fmt = Format.std_formatter

let () =
  (* diagnostic logging: set KPT_DEBUG=1 to see solver/checker tracing *)
  if Sys.getenv_opt "KPT_DEBUG" <> None then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end

(* ---- shared arguments --------------------------------------------------- *)

let n_arg =
  Arg.(value & opt int 2 & info [ "n"; "horizon" ] ~doc:"Sequence horizon (≥ 2).")

let a_arg =
  Arg.(value & opt int 2 & info [ "a"; "alphabet" ] ~doc:"Alphabet size (≥ 2).")

let lossy_arg =
  Arg.(value & flag & info [ "lossy" ] ~doc:"Include message loss / corruption.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler seed.")

let steps_arg =
  Arg.(value & opt int 200 & info [ "steps" ] ~doc:"Number of scheduler steps.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Stream fixpoint iterations (sst frontiers, Ĝ-iteration steps, gfp sweeps) to \
           standard error as they happen.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for multi-file commands (0 = auto: $(b,KPT_JOBS) or the \
           core count).  Output is byte-identical at every setting.")

let jobs_opt j = if j <= 0 then None else Some j

(* ---- resource budgets and fault models ----------------------------------- *)

(* Exit-code contract (documented in the README):
     0   success          1   a property failed / findings
     2   usage error      3   resource exhaustion (budget, stack, memory)
     130 interrupted (Ctrl-C)                                              *)
let exit_resource = 3
let exit_interrupted = 130

let pos_float_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f > 0. -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "expected a positive number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let timeout_arg =
  Arg.(
    value
    & opt (some pos_float_conv) None
    & info [ "timeout" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget in seconds.  On expiry the command reports what it has \
           (a partial result where the solver supports one) and exits with code 3.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Fixpoint-iteration budget: every sst frontier round, Ĝ-iteration step and \
           gfp sweep consumes one unit.  Deterministic, unlike $(b,--timeout).  \
           Exhaustion exits with code 3.")

let max_nodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:"Ceiling on allocated BDD nodes per manager.  Exhaustion exits with code 3.")

let limits_term =
  let make timeout fuel max_nodes =
    Budget.limits
      ?timeout_ns:(Option.map Budget.timeout_of_seconds timeout)
      ?fuel ?max_nodes ()
  in
  Term.(const make $ timeout_arg $ fuel_arg $ max_nodes_arg)

(* ---- variable-reordering policy ------------------------------------------- *)

let reorder_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", Engine.Reorder_auto);
             ("off", Engine.Reorder_off);
             ("manual", Engine.Reorder_manual);
           ])
        Engine.Reorder_auto
    & info [ "reorder" ] ~docv:"MODE"
        ~doc:
          "BDD variable-reordering policy: $(b,auto) (sifting fires on node-growth \
           thresholds; the default), $(b,off) (the declaration order is kept for the \
           whole run), or $(b,manual) (no automatic triggers; the engine reorders \
           only at explicit safe points, e.g. after elaboration).")

(* Evaluated before the command body runs: every engine created by the
   command — including the per-domain engines of parallel batches —
   inherits the chosen policy. *)
let reorder_term =
  Term.(const (fun mode -> Engine.set_default_reorder_mode mode) $ reorder_arg)

(* Run a command body under the armed budget; [Exhausted] degrades to
   the documented exit code instead of an exception trace. *)
let budgeted limits f =
  match Engine.with_budget limits f with
  | code -> code
  | exception Budget.Exhausted reason ->
      Format.printf "budget exhausted: %s@." (Budget.reason_to_string reason);
      exit_resource

let fault_conv =
  let parse s =
    match Kpt_fault.Model.of_string s with
    | Ok m -> Ok m
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Kpt_fault.Model.pp)

let fault_arg =
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "fault" ] ~docv:"MODEL"
        ~doc:
          "Channel fault model: a named model (perfect, duplicating, lossy, \
           value-corrupt, crash) or a '+'-joined set of primitives (dup, loss, bot, \
           value, crash).  Overrides $(b,--lossy).")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Driver-backed commands (the batch form of check, lint, stats,
   solve-file, slice) share their bodies with the serve daemon via
   [Kpt_analysis.Driver]: the body renders to strings, we put them on
   the real streams.  [--trace] events are streamed live to stderr via
   an explicit sink instead of being buffered with the rest. *)
module Driver = Kpt_analysis.Driver

let emit_outcome (o : Driver.outcome) =
  print_string o.out;
  flush stdout;
  prerr_string o.err;
  flush stderr;
  o.code

let live_trace_sink trace =
  if trace then Some (Kpt_obs.trace_sink Format.err_formatter) else None

(* [--trace] installs the observability sink for the duration of [f];
   with the flag off the sink stays [None] and the instrumented layers
   allocate nothing. *)
let with_trace trace f =
  if not trace then f ()
  else begin
    Kpt_obs.set_sink (Some (Kpt_obs.trace_sink Format.err_formatter));
    Fun.protect ~finally:(fun () -> Kpt_obs.set_sink None) f
  end

(* ---- Driver options: declared once, shared with [kpt client] --------------- *)

(* check, lint, stats, solve-file and slice each parse their options
   with one [Driver.options Term.t] below; the direct command and its
   [kpt client] twin both use it, so the two cannot drift apart. *)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the machine-readable JSON form instead of the human-readable text.")

let warn_error_arg =
  Arg.(value & flag & info [ "warn-error" ] ~doc:"Treat warnings as errors for the exit code.")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "q"; "quiet" ]
        ~doc:
          "Print nothing; communicate through the exit code only.  The exit-code \
           policy is unchanged: 1 iff any error (or any warning with \
           $(b,--warn-error)).")

let slice_arg =
  Arg.(
    value & flag
    & info [ "slice" ]
        ~doc:
          "Reduce the protocol to its cone of influence first (conservative for \
           knowledge guards; the verdict is preserved).")

let semantic_arg =
  Arg.(
    value & flag
    & info [ "semantic" ]
        ~doc:
          "Add the semantic tier (KPT1xx): elaborate each file and run the \
           reachability-aware passes — unreachable statements, dead guards, \
           unsatisfiable init, deadlock-reachable states, locally implementable \
           knowledge guards — under a small deterministic budget.  Override the \
           default budget (fuel 10000, 1e6 nodes) with $(b,--fuel) / \
           $(b,--max-nodes) / $(b,--timeout).")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:
          "Include the (nondeterministic) timings_ns section in $(b,--json); off by \
           default so the output is deterministic.")

let wrt_arg =
  Arg.(
    value & opt_all string []
    & info [ "wrt" ] ~docv:"EXPR"
        ~doc:
          "Slice with respect to this property (repeatable; the cone is seeded with \
           the union of the properties' variable supports).  Without it the \
           conservative seed is used: everything the protocol can observe, so only \
           write-only sinks are dropped.")

let check_opts =
  let make reorder jobs json slice warn_error quiet limits =
    let jobs = jobs_opt jobs in
    { Driver.default_options with jobs; json; slice; warn_error; quiet; limits; reorder }
  in
  Term.(
    const make $ reorder_arg $ jobs_arg $ json_arg $ slice_arg $ warn_error_arg $ quiet_arg
    $ limits_term)

let lint_opts =
  let make reorder jobs semantic json warn_error quiet limits =
    let jobs = jobs_opt jobs in
    { Driver.default_options with jobs; semantic; json; warn_error; quiet; limits; reorder }
  in
  Term.(
    const make $ reorder_arg $ jobs_arg $ semantic_arg $ json_arg $ warn_error_arg $ quiet_arg
    $ limits_term)

let stats_opts =
  let make reorder jobs json timings =
    { Driver.default_options with jobs = jobs_opt jobs; json; timings; reorder }
  in
  Term.(const make $ reorder_arg $ jobs_arg $ json_arg $ timings_arg)

let solve_opts =
  let make reorder slice trace limits =
    { Driver.default_options with slice; trace; limits; reorder }
  in
  Term.(const make $ reorder_arg $ slice_arg $ trace_arg $ limits_term)

let slice_opts =
  let make reorder wrt limits = { Driver.default_options with wrt; limits; reorder } in
  Term.(const make $ reorder_arg $ wrt_arg $ limits_term)

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"One or more .unity source files.")

let sources_of paths = List.map (fun p -> (p, read_file p)) paths

(* ---- experiments --------------------------------------------------------- *)

let experiments_cmd =
  let run () =
    let verdicts = Kpt_experiments.Experiments.run_all fmt in
    Format.printf "@.Summary:@.";
    List.iter
      (fun (name, ok) ->
        Format.printf "  %-18s %s@." name (if ok then "REPRODUCED" else "MISMATCH"))
      verdicts;
    if List.for_all snd verdicts then 0 else 1
  in
  Cmd.v (Cmd.info "experiments" ~doc:"Reproduce every paper artifact (E1-E9).")
    Term.(const run $ const ())

(* ---- solve --------------------------------------------------------------- *)

let build_figure1 () =
  let sp = Space.create () in
  let shared = Space.bool_var sp "shared" in
  let x = Space.bool_var sp "x" in
  let p0 = Process.make "P0" [ shared ] in
  let p1 = Process.make "P1" [ shared; x ] in
  Kbp.make sp ~name:"figure1"
    ~init:Expr.(not_ (var shared) &&& not_ (var x))
    ~processes:[ p0; p1 ]
    [
      Kbp.kstmt ~name:"s0"
        ~guard:(Kform.k "P0" (Kform.knot (Kform.base (Expr.var x))))
        [ (shared, Expr.tru) ];
      Kbp.kstmt ~name:"s1" ~guard:(Kform.base (Expr.var shared))
        [ (x, Expr.tru); (shared, Expr.fls) ];
    ]

let build_figure2 ~strong =
  let sp = Space.create () in
  let x = Space.bool_var sp "x" in
  let y = Space.bool_var sp "y" in
  let z = Space.bool_var sp "z" in
  let p0 = Process.make "P0" [ y ] in
  let p1 = Process.make "P1" [ z ] in
  let init = if strong then Expr.(not_ (var y) &&& var x) else Expr.(not_ (var y)) in
  Kbp.make sp ~name:"figure2" ~init ~processes:[ p0; p1 ]
    [
      Kbp.kstmt ~name:"s0" ~guard:(Kform.k "P0" (Kform.base (Expr.var x))) [ (y, Expr.tru) ];
      Kbp.kstmt ~name:"s1"
        ~guard:(Kform.k "P1" (Kform.knot (Kform.base (Expr.var y))))
        [ (z, Expr.tru) ];
    ]

let solve_cmd =
  let model =
    Arg.(
      required
      & pos 0 (some (enum [ ("figure1", `Fig1); ("figure2", `Fig2); ("figure2-strong", `Fig2s) ])) None
      & info [] ~docv:"MODEL" ~doc:"figure1, figure2 or figure2-strong.")
  in
  let run () model trace limits =
    with_trace trace @@ fun () ->
    let kbp =
      match model with
      | `Fig1 -> build_figure1 ()
      | `Fig2 -> build_figure2 ~strong:false
      | `Fig2s -> build_figure2 ~strong:true
    in
    Format.printf "%a@.@." Kbp.pp kbp;
    let sp = Kbp.space kbp in
    let code = ref 0 in
    (match Engine.with_budget limits (fun () -> Kbp.solutions kbp) with
    | [] -> Format.printf "No solution: Ĝ(X) = X has no fixpoint (the KBP is not well-posed).@."
    | sols ->
        Format.printf "%d solution(s):@." (List.length sols);
        List.iter (fun s -> Format.printf "  SI = %a@." (Space.pp_pred sp) s) sols
    | exception Budget.Exhausted reason ->
        Format.printf "Solution enumeration: budget exhausted (%s).@."
          (Budget.reason_to_string reason);
        code := exit_resource);
    (match Kbp.solve ~budget:limits kbp with
    | Kbp.Converged { si; steps } ->
        Format.printf "Chaotic iteration converged in %d step(s) to %a@." steps
          (Space.pp_pred sp) si
    | Kbp.Diverged { orbit; _ } ->
        Format.printf "Chaotic iteration diverges: cycle with period %d:@."
          (List.length orbit);
        List.iter (fun s -> Format.printf "  → %a@." (Space.pp_pred sp) s) orbit
    | Kbp.Budget_exhausted { reason; steps; candidate } ->
        Format.printf
          "Chaotic iteration: budget exhausted (%s) after %d step(s); candidate X = %a@."
          (Budget.reason_to_string reason) steps (Space.pp_pred sp) candidate;
        code := exit_resource);
    !code
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve a knowledge-based protocol (Figures 1-2).")
    Term.(const run $ reorder_term $ model $ trace_arg $ limits_term)

(* ---- check ---------------------------------------------------------------- *)

type proto = Standard | Kbp_proto | Abp | Stenning | Auy | Window

let protos =
  [
    ("standard", Standard); ("kbp", Kbp_proto); ("abp", Abp);
    ("stenning", Stenning); ("auy", Auy); ("window", Window);
  ]

let check_cmd =
  let run_proto proto n a lossy fault limits =
    budgeted limits @@ fun () ->
    let params = { Seqtrans.n; a } in
    (* [--fault] overrides [--lossy]; the channel-free protocols reject it. *)
    let model = Channel.resolve_fault ~lossy fault in
    let no_fault what =
      if fault <> None then begin
        Format.eprintf "error: --fault does not apply to the %s protocol (no channel)@."
          what;
        raise Stdlib.Exit
      end
    in
    match
      let name, prog, safety, live =
        match proto with
        | Standard ->
            let st = Seqtrans.standard ~lossy ?fault params in
            ( "standard",
              st.Seqtrans.sprog,
              Seqtrans.spec_safety st,
              fun k -> Seqtrans.spec_liveness_holds st ~k )
        | Kbp_proto ->
            no_fault "abstract knowledge-based";
            let ab = Seqtrans.abstract_kbp params in
            ( "knowledge-based",
              ab.Seqtrans.aprog,
              Seqtrans.a_spec_safety ab,
              fun k -> Seqtrans.a_spec_liveness_holds ab ~k )
        | Abp ->
            let t = Abp.make ~lossy ?fault params in
            ("alternating-bit", t.Abp.prog, Abp.safety t, fun k -> Abp.liveness_holds t ~k)
        | Stenning ->
            let t = Stenning.make ~lossy ?fault params in
            ("stenning", t.Stenning.prog, Stenning.safety t, fun k -> Stenning.liveness_holds t ~k)
        | Auy ->
            no_fault "auy";
            let t = Auy.make params in
            ("auy", t.Auy.prog, Auy.safety t, fun k -> Auy.liveness_holds t ~k)
        | Window ->
            let t = Window.make ~lossy ?fault ~window:2 params in
            ( "sliding-window(2)",
              t.Window.prog,
              Window.safety t,
              fun k -> Window.liveness_holds t ~k )
      in
      let blurb =
        if Kpt_fault.Model.equal model Kpt_fault.Model.lossy then ", lossy"
        else if Kpt_fault.Model.equal model Kpt_fault.Model.duplicating then ""
        else ", fault=" ^ Kpt_fault.Model.to_string model
      in
      Format.printf "checking %s (n=%d, |A|=%d%s)@." name n a blurb;
      let sp = Program.space prog in
      Format.printf "  reachable states : %d@."
        (Space.count_states_of sp (Program.si prog));
      Format.printf "  safety (34)      : %b@." (Program.invariant prog safety);
      let ok = ref true in
      for k = 0 to n - 1 do
        let l = live k in
        if not l then ok := false;
        Format.printf "  liveness (35)@%d  : %b@." k l
      done;
      if Program.invariant prog safety && !ok then 0 else 1
    with
    | code -> code
    | exception Stdlib.Exit -> 2
  in
  let targets_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:
            "Either one built-in protocol (standard, kbp, abp, stenning, auy, window) \
             or any number of .unity files.")
  in
  let run targets n a lossy fault (opts : Driver.options) =
    match targets with
    | [ name ] when List.mem_assoc name protos ->
        (* the built-in-protocol path still runs in-process: give it the
           requested reorder policy the way [reorder_term] used to *)
        Engine.set_default_reorder_mode opts.reorder;
        run_proto (List.assoc name protos) n a lossy fault opts.limits
    | _ when fault <> None ->
        Format.eprintf "error: --fault applies to built-in protocols only@.";
        2
    | paths -> (
        match sources_of paths with
        | sources -> emit_outcome (Driver.check opts sources)
        | exception Sys_error msg ->
            Format.eprintf "error: %s@." msg;
            1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check a built-in protocol against the §6 specification (optionally \
          under a $(b,--fault) model and a resource budget), or batch-check .unity \
          files (lint + solve + stats, in parallel with $(b,-j); $(b,--timeout) is a \
          per-file deadline).")
    Term.(const run $ targets_arg $ n_arg $ a_arg $ lossy_arg $ fault_arg $ check_opts)

(* ---- simulate -------------------------------------------------------------- *)

let simulate_cmd =
  let run n a lossy seed steps =
    let params = { Seqtrans.n; a } in
    let st = Seqtrans.standard ~lossy params in
    let prog = st.Seqtrans.sprog in
    let sp = st.Seqtrans.sspace in
    let rng = Stdlib.Random.State.make [| seed |] in
    let init = Kpt_runs.Exec.random_init prog rng in
    let trace = Kpt_runs.Exec.run prog ~scheduler:(Kpt_runs.Exec.Random_fair seed) ~steps ~init in
    Format.printf "simulated %d steps of the standard protocol (n=%d, |A|=%d%s, seed %d)@."
      steps n a (if lossy then ", lossy" else "") seed;
    (match
       Kpt_runs.Monitor.first_violation sp (Seqtrans.spec_safety st) trace
     with
    | None -> Format.printf "  safety (34) held along the whole trace@."
    | Some i -> Format.printf "  SAFETY VIOLATED at step %d!@." i);
    let done_p = Expr.compile_bool sp Expr.(var st.Seqtrans.j === nat n) in
    (match Kpt_runs.Monitor.eventually sp done_p trace with
    | Some i -> Format.printf "  transmission complete after %d steps@." i
    | None ->
        let final = Kpt_runs.Exec.final trace in
        Format.printf "  incomplete: delivered %d/%d elements@."
          final.(Space.idx st.Seqtrans.j) n);
    Format.printf "  statement counts: %s@."
      (String.concat ", "
         (List.map
            (fun (s, c) -> Printf.sprintf "%s×%d" s c)
            (Kpt_runs.Exec.statement_counts trace)));
    0
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a concrete fair execution of the standard protocol.")
    Term.(const run $ n_arg $ a_arg $ lossy_arg $ seed_arg $ steps_arg)

(* ---- proof ------------------------------------------------------------------ *)

let proof_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some (enum [ ("kbp", `Kbp); ("standard", `Std) ])) None
      & info [] ~docv:"WHICH" ~doc:"kbp (Figure 3) or standard (Figure 4).")
  in
  let tree =
    Arg.(value & flag & info [ "tree" ] ~doc:"Print the full derivation tree of each liveness theorem.")
  in
  let run which n a lossy tree =
    let params = { Seqtrans.n; a } in
    let thms =
      match which with
      | `Kbp -> Seqtrans_proofs.replay_abstract (Seqtrans.abstract_kbp params)
      | `Std ->
          Seqtrans_proofs.replay_standard ~assume_channel:lossy
            (Seqtrans.standard ~lossy params)
    in
    Format.printf "replayed %d theorems:@." (List.length thms);
    List.iter
      (fun (name, t) ->
        let assumps = Kpt_logic.Proof.assumptions t in
        Format.printf "  %-22s %s  (%d rule applications)@." name
          (if assumps = [] then "⊢ (from the program text)"
           else "⊢ assuming " ^ String.concat ", " assumps)
          (Kpt_logic.Proof.derivation_size t);
        if tree && String.length name >= 8 && String.sub name 0 8 = "liveness" then begin
          Format.printf "@.derivation of %s:@." name;
          Kpt_logic.Proof.pp_derivation Format.std_formatter t;
          Format.printf "@."
        end)
      thms;
    0
  in
  Cmd.v
    (Cmd.info "proof" ~doc:"Replay the §6 correctness proofs in the LCF kernel.")
    Term.(const run $ which $ n_arg $ a_arg $ lossy_arg $ tree)

(* ---- parse / verify: the concrete syntax front end -------------------------- *)

let load path =
  let src = read_file path in
  let ast = Kpt_syntax.Parser.program_of_string src in
  Kpt_syntax.Elaborate.program ast

(* Load a .unity file and run [f] on the result; lexical, syntax and
   elaboration errors are rendered once, uniformly, as
   [file:line:col: error[KPT00x]: …].  Every file-consuming command
   funnels through here. *)
let with_loaded path f =
  match load path with
  | loaded -> f loaded
  | exception
      ((Kpt_syntax.Token.Lex_error _ | Kpt_syntax.Parser.Parse_error _
       | Kpt_syntax.Elaborate.Elab_error _) as exn) ->
      (match Kpt_analysis.Diagnostic.of_syntax_exn ~file:path exn with
      | Some d -> Format.eprintf "%a@." Kpt_analysis.Diagnostic.pp d
      | None -> Format.eprintf "error: %s@." (Printexc.to_string exn));
      1
  | exception Failure msg ->
      Format.eprintf "error: %s@." msg;
      1

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"A .unity source file.")

let parse_cmd =
  let run path =
    with_loaded path @@ fun (sp, kbp) ->
    Format.printf "%a@.@." Kbp.pp kbp;
    Format.printf "state space : %d states over %d variables@."
      (Space.state_count sp)
      (List.length (Space.vars sp));
    if Kbp.is_standard kbp then begin
      let prog = Kbp.to_standard_program kbp in
      Format.printf "standard program; reachable states: %d@."
        (Space.count_states_of sp (Program.si prog))
    end
    else Format.printf "knowledge-based protocol (use 'kpt solve %s')@." path;
    0
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and elaborate a .unity source file.")
    Term.(const run $ file_arg)

(* ---- lint -------------------------------------------------------------------- *)

let lint_cmd =
  let run paths opts = emit_outcome (Driver.lint opts (sources_of paths)) in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis passes (locality, K-polarity, hygiene, \
          interference) on .unity source files; $(b,--semantic) adds the budgeted \
          reachability-aware KPT1xx tier.  $(b,--json) emits the $(b,kpt check \
          --json) shape, minus the per-file stats.")
    Term.(const run $ files_arg $ lint_opts)

let solve_file_cmd =
  let run path (opts : Driver.options) =
    emit_outcome (Driver.solve ?sink:(live_trace_sink opts.trace) opts (sources_of [ path ]))
  in
  Cmd.v
    (Cmd.info "solve-file" ~doc:"Solve the knowledge-based protocol in a .unity file.")
    Term.(const run $ file_arg $ solve_opts)

(* ---- slice: cone-of-influence reduction as a transformation ------------------ *)

let slice_cmd =
  let run path opts = emit_outcome (Driver.slice opts (sources_of [ path ])) in
  Cmd.v
    (Cmd.info "slice"
       ~doc:
         "Compute the cone-of-influence slice of a .unity protocol: which statements \
          can influence the property given with $(b,--wrt) (or anything the protocol \
          observes, without it).  Prints the cone, the kept/dropped statement names \
          and — when the slice is not the identity — the sliced protocol.")
    Term.(const run $ file_arg $ slice_opts)

let verify_cmd =
  let invariants =
    Arg.(value & opt_all string [] & info [ "invariant" ] ~docv:"EXPR" ~doc:"Check invariant EXPR.")
  in
  let stables =
    Arg.(value & opt_all string [] & info [ "stable" ] ~docv:"EXPR" ~doc:"Check stable EXPR.")
  in
  let leadstos =
    Arg.(
      value & opt_all string []
      & info [ "leadsto" ] ~docv:"P;Q" ~doc:"Check P leads-to Q (separate with a semicolon).")
  in
  let run () path invs stbls ltos slice trace limits =
    with_trace trace @@ fun () ->
    with_loaded path @@ fun (sp, kbp) ->
    budgeted limits @@ fun () ->
    try
    let prog =
      if Kbp.is_standard kbp then Kbp.to_standard_program kbp
      else begin
        Format.printf "note: knowledge guards resolved at the strongest solution@.";
        match Kbp.strongest_solution kbp with
        | Some si -> Kbp.instantiate kbp ~si
        | None -> failwith "the KBP has no (unique strongest) solution"
      end
    in
    let compile s =
      try
        Kpt_unity.Expr.compile_bool sp
          (Kpt_syntax.Elaborate.expr sp (Kpt_syntax.Parser.expr_of_string s))
      with
      | Kpt_syntax.Elaborate.Elab_error (_, msg)
      | Kpt_syntax.Parser.Parse_error (_, msg)
      | Kpt_syntax.Token.Lex_error (_, msg) ->
          failwith (Printf.sprintf "in %S: %s" s msg)
    in
      (* compile every property up front so [--slice] can seed the cone
         with the union of their supports *)
      let cinvs = List.map (fun s -> (s, compile s)) invs in
      let cstbls = List.map (fun s -> (s, compile s)) stbls in
      let cltos =
        List.map
          (fun s ->
            match String.index_opt s ';' with
            | None -> failwith "leadsto takes a semicolon-separated pair"
            | Some i ->
                let p = String.sub s 0 i in
                let q = String.sub s (i + 1) (String.length s - i - 1) in
                (String.trim p, String.trim q, compile p, compile q))
          ltos
      in
      let prog =
        if not slice then prog
        else begin
          let wrt =
            List.map snd cinvs @ List.map snd cstbls
            @ List.concat_map (fun (_, _, p, q) -> [ p; q ]) cltos
          in
          let sliced, info = Kpt_analysis.Slice.program ~wrt prog in
          if not (Kpt_analysis.Slice.is_identity info) then
            Format.printf "sliced: dropped %d of %d statement(s) outside the cone@."
              (List.length info.Kpt_analysis.Slice.dropped)
              (List.length info.Kpt_analysis.Slice.kept
              + List.length info.Kpt_analysis.Slice.dropped);
          sliced
        end
      in
      let failed = ref 0 in
      let report label ok =
        if not ok then incr failed;
        Format.printf "  %-40s %b@." label ok
      in
      List.iter
        (fun (s, p) ->
          report ("invariant " ^ s) (Program.invariant prog p);
          (* a holding invariant that is not inductive gets the KPT106
             weakness note (with the largest inductive strengthening) *)
          match Kpt_analysis.Semantic.invariant_weakness ~file:path ~label:s prog p with
          | Some (d, _core) -> Format.printf "%a@." Kpt_analysis.Diagnostic.pp d
          | None -> ())
        cinvs;
      List.iter (fun (s, p) -> report ("stable " ^ s) (Kpt_logic.Props.stable prog p)) cstbls;
      List.iter
        (fun (p, q, cp, cq) ->
          report
            (Printf.sprintf "%s ↦ %s" p q)
            (Kpt_logic.Props.leads_to prog cp cq))
        cltos;
      if !failed = 0 then 0 else 1
    with Failure msg ->
      Format.eprintf "error: %s@." msg;
      1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check user-supplied UNITY properties of a .unity file, optionally under a \
          resource budget ($(b,--timeout), $(b,--fuel), $(b,--max-nodes)) and after a \
          property-directed cone-of-influence reduction ($(b,--slice)).")
    Term.(
      const run $ reorder_term $ file_arg $ invariants $ stables $ leadstos $ slice_arg
      $ trace_arg $ limits_term)

(* ---- stats: the engine profile of a single file ------------------------------ *)

let stats_cmd =
  let run paths opts = emit_outcome (Driver.stats opts (sources_of paths)) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Profile the engine on .unity files: op-cache hit rate, node counts, fixpoint \
          iteration depths and exact state-space size.  Several files are profiled in \
          parallel with $(b,-j).")
    Term.(const run $ files_arg $ stats_opts)

(* ---- matrix: protocols × fault models ---------------------------------------- *)

let matrix_cmd =
  let faults_arg =
    Arg.(
      value
      & opt_all fault_conv []
      & info [ "fault" ] ~docv:"MODEL"
          ~doc:
            "Restrict the columns to MODEL (repeatable).  Default: perfect, lossy, \
             value-corrupt, crash.")
  in
  let run () json faults limits =
    let faults =
      match faults with
      | [] -> None
      | ms -> Some (List.map (fun m -> (Kpt_fault.Model.to_string m, m)) ms)
    in
    let m = Kpt_analysis.Resilience.run ~budget:limits ?faults () in
    if json then print_string (Kpt_fault.Matrix.to_json m)
    else Format.printf "%a@." Kpt_fault.Matrix.pp m;
    let verdicts =
      List.map (fun (c : Kpt_fault.Matrix.cell) -> c.Kpt_fault.Matrix.verdict)
        m.Kpt_fault.Matrix.cells
    in
    if List.exists (function Kpt_fault.Matrix.Error _ -> true | _ -> false) verdicts
    then 1
    else if
      List.exists (function Kpt_fault.Matrix.Exhausted _ -> true | _ -> false) verdicts
    then exit_resource
    else 0
  in
  Cmd.v
    (Cmd.info "matrix"
       ~doc:
         "Re-verify every bundled protocol under every fault model and print the \
          resilience matrix (which property survives which fault).  The per-cell \
          budget ($(b,--timeout), $(b,--fuel)) degrades a pathological cell to \
          'exhausted' without losing the rest; any exhausted cell exits with code 3, \
          any errored cell with 1.")
    Term.(const run $ reorder_term $ json_arg $ faults_arg $ limits_term)

(* ---- knowledge queries on .unity files -------------------------------------- *)

let knowledge_cmd =
  let process_arg =
    Arg.(required & opt (some string) None & info [ "process" ] ~docv:"P" ~doc:"Process name.")
  in
  let fact_arg =
    Arg.(required & opt (some string) None & info [ "fact" ] ~docv:"EXPR" ~doc:"The fact φ.")
  in
  let common_arg =
    Arg.(
      value & opt (some string) None
      & info [ "common" ] ~docv:"P1,P2" ~doc:"Also compute common knowledge for this group.")
  in
  let run path pname fact common =
    with_loaded path @@ fun (sp, kbp) ->
    try
        let prog =
          if Kbp.is_standard kbp then Kbp.to_standard_program kbp
          else
            match Kbp.strongest_solution kbp with
            | Some si -> Kbp.instantiate kbp ~si
            | None -> failwith "the KBP has no (unique strongest) solution"
        in
        let p =
          Kpt_unity.Expr.compile_bool sp
            (Kpt_syntax.Elaborate.expr sp (Kpt_syntax.Parser.expr_of_string fact))
        in
        let m = Space.manager sp in
        let si = Program.si prog in
        let k = Knowledge.knows_in prog pname p in
        let show label pred =
          let inside = Bdd.and_ m si pred in
          let count = Space.count_states_of sp inside in
          let total = Space.count_states_of sp si in
          Format.printf "  %-28s %d of %d reachable states@." label count total;
          if count > 0 && count <= 8 then
            Format.printf "    %a@." (Space.pp_pred sp) inside
        in
        Format.printf "program %s, fact: %s@." (Program.name prog) fact;
        show "fact holds at" p;
        show (Printf.sprintf "K_%s(fact) holds at" pname) k;
        (match common with
        | None -> ()
        | Some group ->
            let names = String.split_on_char ',' group |> List.map String.trim in
            let procs = List.map (Program.find_process prog) names in
            let c = Knowledge.common_knowledge sp ~si procs p in
            let e = Knowledge.everyone_knows sp ~si procs p in
            show (Printf.sprintf "E_{%s}(fact) holds at" group) e;
            show (Printf.sprintf "C_{%s}(fact) holds at" group) c);
        0
    with
    | Kpt_syntax.Token.Lex_error (_, msg)
    | Kpt_syntax.Parser.Parse_error (_, msg)
    | Kpt_syntax.Elaborate.Elab_error (_, msg) ->
        Format.eprintf "error: in %S: %s@." fact msg;
        1
    | Failure msg ->
        Format.eprintf "error: %s@." msg;
        1
    | Not_found ->
        Format.eprintf "error: unknown process@.";
        1
  in
  Cmd.v
    (Cmd.info "knowledge" ~doc:"Query the knowledge predicate K_P(φ) on a .unity program.")
    Term.(const run $ file_arg $ process_arg $ fact_arg $ common_arg)

(* ---- serve / client: the warm-engine daemon ---------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket path.  Default: $(b,KPT_SOCKET), or \
           <tmpdir>/kpt-serve-<uid>.sock.")

let resolve_socket = function
  | Some s -> s
  | None -> Kpt_serve.Server.default_socket ()

let serve_cmd =
  let cache_size_arg =
    Arg.(
      value & opt int 256
      & info [ "cache-size" ] ~docv:"N"
          ~doc:
            "Result-cache capacity in entries (LRU eviction; 0 disables the cache).  \
             Keys are content hashes of (spec bytes, options, engine policy), so an \
             edited file or a changed flag always misses.")
  in
  let serve_jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "serve-jobs" ] ~docv:"N"
          ~doc:
            "Worker domains serving requests concurrently.  Served bytes are \
             identical at any width — each request runs under its own engine \
             scope; only throughput changes.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded request-queue capacity.  When every worker is busy and the \
             queue is full, new connections are shed immediately with a \
             structured $(b,overloaded) error frame (exit 75) instead of piling \
             up in the listen backlog.")
  in
  let request_timeout_arg =
    Arg.(
      value
      & opt (some pos_float_conv) None
      & info [ "request-timeout" ] ~docv:"SEC"
          ~doc:
            "Per-request deadline: caps the verification budget (expiry surfaces \
             as the usual exit 3) and arms a socket-level read/write deadline, so \
             a slow-loris client is disconnected with an exit-4 error frame \
             rather than holding a worker forever.")
  in
  let run socket cache_size jobs queue request_timeout =
    Kpt_serve.Server.run
      (Kpt_serve.Server.config ~jobs ~queue_capacity:queue ?request_timeout
         ~socket_path:(resolve_socket socket) ~cache_size ())
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification daemon: a Unix-domain-socket server that answers \
          check/lint/stats/solve/slice requests from $(b,kpt client) against the \
          warm in-process engine pool, with a content-addressed LRU result cache \
          shared by $(b,--serve-jobs) worker domains behind a bounded queue.  \
          Responses are byte-identical to the direct commands.  SIGINT/SIGTERM \
          drain: accepting stops, queued clients get structured exit-130 frames, \
          in-flight requests finish, the socket is removed, and the daemon exits \
          130; a $(b,shutdown) request exits 0.")
    Term.(
      const run $ socket_arg $ cache_size_arg $ serve_jobs_arg $ queue_arg
      $ request_timeout_arg)

let client_cmd =
  let serve_auto_arg =
    Arg.(
      value & flag
      & info [ "serve-auto" ]
          ~doc:
            "If no daemon is reachable, run the command locally through the same \
             driver instead of failing — same bytes, same exit code, just cold.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry up to N additional times, with decorrelated-jitter backoff — \
             but only on failures where the request demonstrably never ran: a \
             failed connect, a connection closed with no reply, or the daemon's \
             structured $(b,overloaded) shed.  Set $(b,KPT_RETRY_SEED) to replay \
             a schedule deterministically.")
  in
  let retry_backoff_arg =
    Arg.(
      value
      & opt pos_float_conv Kpt_serve.Client.default_backoff
      & info [ "retry-backoff" ] ~docv:"SEC"
          ~doc:
            "Base of the retry jitter schedule: each sleep is uniform over \
             [SEC, 3*previous], capped at 5s.")
  in
  (* files are read client-side: the daemon sees spec bytes, never paths,
     so the cache key is content-addressed and the daemon needs no access
     to the client's filesystem *)
  let transport =
    let send socket serve_auto retries backoff cmd opts paths =
      match sources_of paths with
      | files ->
          Kpt_serve.Client.run_cli ~socket:(resolve_socket socket) ~serve_auto
            ~retries ~backoff
            { Kpt_serve.Protocol.id = 1; cmd; files; opts }
      | exception Sys_error msg ->
          Format.eprintf "error: %s@." msg;
          1
    in
    Term.(const send $ socket_arg $ serve_auto_arg $ retries_arg $ retry_backoff_arg)
  in
  (* a served twin of a direct command: the same options term, the same
     positional files, plus the transport flags *)
  let sub name ~doc cmd opts paths =
    Cmd.v (Cmd.info name ~doc)
      Term.(const (fun send opts paths -> send cmd opts paths) $ transport $ opts $ paths)
  in
  let one_file = Term.(const (fun p -> [ p ]) $ file_arg) in
  let check_sub =
    sub "check" ~doc:"Batch-check .unity files through the daemon." Kpt_serve.Protocol.Check
      check_opts files_arg
  in
  let lint_sub =
    sub "lint" ~doc:"Lint .unity files through the daemon." Kpt_serve.Protocol.Lint lint_opts
      files_arg
  in
  let stats_sub =
    sub "stats" ~doc:"Profile .unity files through the daemon." Kpt_serve.Protocol.Stats
      stats_opts files_arg
  in
  let solve_sub =
    sub "solve"
      ~doc:
        "Solve a knowledge-based protocol through the daemon.  With $(b,--trace) the \
         fixpoint events stream back live over the wire."
      Kpt_serve.Protocol.Solve solve_opts one_file
  in
  let slice_sub =
    sub "slice" ~doc:"Cone-of-influence slice through the daemon." Kpt_serve.Protocol.Slice
      slice_opts one_file
  in
  let control cmd =
    fun socket ->
      Kpt_serve.Client.run_cli ~socket:(resolve_socket socket) ~serve_auto:false
        {
          Kpt_serve.Protocol.id = 1;
          cmd;
          files = [];
          opts = Driver.default_options;
        }
  in
  let ping_sub =
    Cmd.v
      (Cmd.info "ping"
         ~doc:
           "Check the daemon is alive and print its counters (requests served, \
            cache entries/hits/misses/evictions, pool size).")
      Term.(const (control Kpt_serve.Protocol.Ping) $ socket_arg)
  in
  let shutdown_sub =
    Cmd.v
      (Cmd.info "shutdown" ~doc:"Ask the daemon to exit cleanly (it removes its socket).")
      Term.(const (control Kpt_serve.Protocol.Shutdown) $ socket_arg)
  in
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Send a command to a running $(b,kpt serve) daemon over its Unix socket.  \
          Output and exit codes are byte-identical to the direct commands; repeated \
          identical requests are answered from the daemon's result cache.")
    [ check_sub; lint_sub; stats_sub; solve_sub; slice_sub; ping_sub; shutdown_sub ]

(* ---- gen: the seeded corpus generator ------------------------------------- *)

let usage_error fmt = Format.kasprintf (fun m -> Format.eprintf "%s@." m; 2) fmt

(* parse a comma-separated axis with a per-element parser, reporting the
   first offender by name *)
let parse_axis ~what of_string xs =
  List.fold_left
    (fun acc x ->
      match (acc, of_string x) with
      | Error _, _ -> acc
      | Ok _, None -> Error (Printf.sprintf "bad %s %S" what x)
      | Ok ys, Some y -> Ok (ys @ [ y ]))
    (Ok []) xs

let gen_seed_env = "KPT_GEN_SEED"

let gen_flag_summary (c : Kpt_gen.Gen.config) =
  Printf.sprintf "--families %s --sizes %s --faults %s --budgets %s --count %d --seed %s"
    (String.concat "," c.families)
    (String.concat "," (List.map string_of_int c.sizes))
    (String.concat "," (List.map Kpt_gen.Gen.fault_to_string c.faults))
    (String.concat "," (List.map Kpt_gen.Gen.budget_to_string c.budgets))
    c.count
    (Kpt_gen.Rng.seed_to_string c.seed)

let gen_cmd =
  let families_arg =
    Arg.(
      value
      & opt (list string) Kpt_gen.Family.names
      & info [ "families" ] ~docv:"NAME,.."
          ~doc:
            (Printf.sprintf "Protocol families to draw from (default: all of %s)."
               (String.concat ", " Kpt_gen.Family.names)))
  in
  let sizes_arg =
    Arg.(
      value
      & opt (list int) Kpt_gen.Gen.default_config.sizes
      & info [ "sizes" ] ~docv:"N,.."
          ~doc:"Instance sizes (stations, hops, digits …); clamped up to each \
                family's minimum.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (list string) [ "none"; "loss"; "stutter" ]
      & info [ "faults" ] ~docv:"F,.."
          ~doc:
            "Fault models: $(b,none), $(b,loss) (lossy channel; skipped for \
             channel-free families), $(b,stutter) (a no-op self-assignment the \
             hygiene lint flags).")
  in
  let budgets_arg =
    Arg.(
      value
      & opt (list string) [ "none"; "fuel:8" ]
      & info [ "budgets" ] ~docv:"B,.."
          ~doc:
            "Budget classes: $(b,none) (the generous deterministic envelope) or \
             $(b,fuel:N) (tight fuel — expected exhaustion is recorded in the \
             manifest).")
  in
  let count_arg =
    Arg.(value & opt int 1000 & info [ "count" ] ~docv:"N" ~doc:"Number of instances.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "seed" ] ~docv:"S"
          ~doc:
            (Printf.sprintf
               "Corpus seed (decimal or hex).  Defaults to \\$%s, then 1.  Same \
                flags + same seed = byte-identical corpus."
               gen_seed_env))
  in
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Output directory (created if missing).")
  in
  let run families sizes faults budgets count seed_opt out =
    let seed_str =
      match (seed_opt, Sys.getenv_opt gen_seed_env) with
      | Some s, _ -> s
      | None, Some s -> s
      | None, None -> "1"
    in
    match Kpt_gen.Rng.seed_of_string seed_str with
    | None -> usage_error "kpt gen: bad seed %S (decimal or hex)" seed_str
    | Some seed -> (
        match
          ( parse_axis ~what:"fault" Kpt_gen.Gen.fault_of_string faults,
            parse_axis ~what:"budget" Kpt_gen.Gen.budget_of_string budgets )
        with
        | Error m, _ | _, Error m -> usage_error "kpt gen: %s" m
        | Ok faults, Ok budgets -> (
            let config =
              { Kpt_gen.Gen.families; sizes; faults; budgets; count; seed }
            in
            try
              let instances = Kpt_gen.Gen.write_corpus ~dir:out config in
              let tally key =
                List.length
                  (List.filter
                     (fun i -> i.Kpt_gen.Gen.expected.Kpt_gen.Gen.klass = key)
                     instances)
              in
              Format.printf "wrote %d spec(s) + manifest.json to %s@."
                (List.length instances) out;
              Format.printf "  %s@." (gen_flag_summary config);
              Format.printf
                "  classes: standard %d, kbp_converged %d, kbp_cycle %d, exhausted \
                 %d, error %d@."
                (tally "standard") (tally "kbp_converged") (tally "kbp_cycle")
                (tally "exhausted") (tally "error");
              0
            with
            | Kpt_gen.Gen.Bad_config m -> usage_error "kpt gen: %s" m
            | Sys_error m ->
                Format.eprintf "kpt gen: %s@." m;
                1))
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Generate a seeded, deterministic corpus of .unity specs over (family × \
          size × fault × budget), with a manifest.json recording each instance's \
          expected envelope (diagnostic codes, outcome class, exit code).  \
          Instance $(i,i) draws only from the position-addressed stream \
          $(i,derive seed i), so the corpus is reproducible at any count on any \
          machine.")
    Term.(
      const run $ families_arg $ sizes_arg $ faults_arg $ budgets_arg $ count_arg
      $ seed_arg $ out_arg)

(* ---- difftest: every pipeline must agree ---------------------------------- *)

let difftest_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"A corpus directory written by $(b,kpt gen).")
  in
  let limit_arg =
    Arg.(
      value & opt int 0
      & info [ "limit" ] ~docv:"N"
          ~doc:"Only the first N instances (0 = all) — the CI smoke slice.")
  in
  let report_arg =
    Arg.(
      value
      & opt ~vopt:(Some "CORPUS_RESULTS.json") (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:
            "Aggregate the run into the analysis document (outcome distributions, \
             pass rate, time-vs-size fits, budget-exhaustion rates) and write it \
             to FILE (default CORPUS_RESULTS.json).")
  in
  let no_serve_arg =
    Arg.(
      value & flag
      & info [ "no-serve" ]
          ~doc:
            "Skip the in-process serve-daemon and result-cache paths (they are \
             byte-compared against the direct path by default).")
  in
  let run dir limit report no_serve =
    match Kpt_gen.Gen.read_manifest dir with
    | exception Kpt_gen.Gen.Bad_manifest m -> usage_error "kpt difftest: %s" m
    | config, instances -> (
        let instances =
          if limit > 0 then List.filteri (fun i _ -> i < limit) instances else instances
        in
        (* the serve path: the same Driver behind the wire codec and the
           daemon's result cache, in-process; and the cache path: a warm
           second request that must be byte-identical *)
        let handler = lazy (Kpt_serve.Handler.create ~cache_size:64) in
        let serve_request ~limits ~file ~source =
          let req =
            {
              Kpt_serve.Protocol.id = 0;
              cmd = Kpt_serve.Protocol.Check;
              files = [ (file, source) ];
              opts =
                {
                  Driver.default_options with
                  jobs = Some 1;
                  limits;
                  reorder = Engine.Reorder_off;
                };
            }
          in
          (* exercise the wire codec too: every request round-trips
             through its JSON encoding before it is handled *)
          match
            Kpt_serve.Protocol.request_of_json
              (Json.of_string (Json.to_string (Kpt_serve.Protocol.request_to_json req)))
          with
          | Ok req -> req
          | Error m -> failwith ("difftest: protocol round-trip failed: " ^ m)
        in
        let extra_paths =
          if no_serve then []
          else
            [
              {
                Kpt_analysis.Difftest.path_name = "serve";
                run =
                  (fun ~limits ~file ~source ->
                    fst
                      (Kpt_serve.Handler.handle (Lazy.force handler)
                         (serve_request ~limits ~file ~source)));
              };
              {
                Kpt_analysis.Difftest.path_name = "serve-cached";
                run =
                  (fun ~limits ~file ~source ->
                    let req = serve_request ~limits ~file ~source in
                    ignore (Kpt_serve.Handler.handle (Lazy.force handler) req);
                    fst (Kpt_serve.Handler.handle (Lazy.force handler) req));
              };
            ]
        in
        let missing = ref [] in
        let rows =
          List.filter_map
            (fun (inst : Kpt_gen.Gen.instance) ->
              let path = Filename.concat dir inst.filename in
              match read_file path with
              | exception Sys_error _ ->
                  missing := inst.filename :: !missing;
                  None
              | source ->
                  let limits = Kpt_gen.Gen.limits_of_budget inst.budget in
                  let t0 = Kpt_obs.now_ns () in
                  let result =
                    Kpt_analysis.Difftest.run_spec ~extra_paths ~expected:inst.expected
                      ~seed:(Int64.add config.seed (Int64.of_int inst.id))
                      ~limits ~file:inst.filename ~source ()
                  in
                  let ns = Int64.sub (Kpt_obs.now_ns ()) t0 in
                  Some
                    {
                      Kpt_analysis.Difftest.o_family = inst.family;
                      o_size = inst.size;
                      o_fault = Kpt_gen.Gen.fault_to_string inst.fault;
                      o_budget = Kpt_gen.Gen.budget_to_string inst.budget;
                      o_ns = ns;
                      o_result = result;
                    })
            instances
        in
        match !missing with
        | f :: _ as fs ->
            usage_error "kpt difftest: %d corpus file(s) missing (e.g. %s) — regenerate \
                         with: kpt gen %s -o %s"
              (List.length fs) f (gen_flag_summary config) dir
        | [] ->
            let results = List.map (fun o -> o.Kpt_analysis.Difftest.o_result) rows in
            let comparisons =
              List.fold_left
                (fun a r -> a + r.Kpt_analysis.Difftest.r_comparisons)
                0 results
            in
            let disagreements =
              List.concat_map (fun r -> r.Kpt_analysis.Difftest.r_disagreements) results
            in
            List.iter
              (fun (d : Kpt_analysis.Difftest.disagreement) ->
                Format.printf "DISAGREEMENT %s: %s@.  %s@." d.d_check d.d_file d.d_detail;
                (match d.d_shrunk with
                | None -> ()
                | Some src -> Format.printf "  shrunk reproducer:@.%s@." src);
                Format.printf "  replay: %s=%s kpt gen %s -o DIR && kpt difftest DIR@."
                  gen_seed_env
                  (Kpt_gen.Rng.seed_to_string config.seed)
                  (gen_flag_summary config))
              disagreements;
            (match report with
            | None -> ()
            | Some file ->
                let doc =
                  Kpt_analysis.Difftest.report_json
                    ~seed:(Kpt_gen.Rng.seed_to_string config.seed)
                    ~paths:(Kpt_analysis.Difftest.path_names ~extra_paths)
                    rows
                in
                let oc = open_out_bin file in
                output_string oc (Json.to_string doc ^ "\n");
                close_out oc;
                Format.printf "wrote %s@." file);
            Format.printf "difftest: %d spec(s), %d comparison(s), %d disagreement(s)@."
              (List.length rows) comparisons (List.length disagreements);
            if disagreements = [] then 0 else 1)
  in
  Cmd.v
    (Cmd.info "difftest"
       ~doc:
         "Run every spec of a generated corpus through pipeline pairs that must \
          agree — $(b,-j1) vs $(b,-j3), $(b,--reorder off) vs $(b,auto), direct vs \
          the in-process serve daemon, cold vs cached — byte-for-byte, plus \
          verdict-preserving transforms (slice, variable renaming, statement \
          permutation) and the manifest's expected envelope.  Disagreements are \
          shrunk by statement removal and reported as replayable KPT_GEN_SEED \
          cases.  Exit 1 on any disagreement.")
    Term.(const run $ dir_arg $ limit_arg $ report_arg $ no_serve_arg)

(* ---- chaos: fault-inject a real daemon process ---------------------------- *)

let chaos_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"A corpus directory written by $(b,kpt gen).")
  in
  let specs_arg =
    Arg.(
      value & opt int 50
      & info [ "specs" ] ~docv:"N"
          ~doc:"Replay the first N specs (sorted by filename) through each fault.")
  in
  let seed_arg =
    Arg.(
      value & opt string "1"
      & info [ "seed" ] ~docv:"S"
          ~doc:
            "Adversary seed (decimal or hex): drives truncation points, garbage \
             shapes and chunk sizes.  Same corpus + same seed = same fault \
             schedule.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Socket for the spawned daemon (default: a fresh \
             kpt-chaos-$(i,pid).sock under \\$TMPDIR, so sweeps never collide \
             with a real daemon).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 2
      & info [ "serve-jobs" ] ~docv:"N" ~doc:"Worker domains for the spawned daemon.")
  in
  let queue_arg =
    Arg.(
      value & opt int 4
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Daemon queue capacity — kept small so the flood fault overflows it \
             quickly.")
  in
  let request_timeout_arg =
    Arg.(
      value
      & opt pos_float_conv 0.5
      & info [ "request-timeout" ] ~docv:"SEC"
          ~doc:
            "Daemon per-request deadline — kept short so the slow-loris fault \
             resolves quickly.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "faults" ] ~docv:"F,.."
          ~doc:
            (Printf.sprintf "Fault kinds to inject (default: all of %s)."
               (String.concat ", "
                  (List.map Kpt_serve.Chaos.fault_name Kpt_serve.Chaos.all_faults))))
  in
  let run dir specs seed_str socket jobs queue request_timeout faults =
    match Kpt_gen.Rng.seed_of_string seed_str with
    | None -> usage_error "kpt chaos: bad seed %S (decimal or hex)" seed_str
    | Some seed -> (
        match
          match faults with
          | None -> Ok Kpt_serve.Chaos.all_faults
          | Some names ->
              parse_axis ~what:"fault" Kpt_serve.Chaos.fault_of_name names
        with
        | Error m -> usage_error "kpt chaos: %s" m
        | Ok faults ->
            let socket =
              match socket with
              | Some s -> s
              | None ->
                  Filename.concat
                    (Filename.get_temp_dir_name ())
                    (Printf.sprintf "kpt-chaos-%d.sock" (Unix.getpid ()))
            in
            Kpt_serve.Chaos.run Format.std_formatter
              {
                Kpt_serve.Chaos.exe = Sys.executable_name;
                dir;
                specs;
                seed;
                socket;
                jobs;
                queue;
                request_timeout;
                faults;
              })
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Spawn a $(b,kpt serve) daemon and attack it: replay a generated-corpus \
          slice through injected transport faults — truncated frames, garbage, \
          dribbled writes, mid-request disconnects, slow-loris, queue floods, \
          SIGKILL, SIGTERM drain — asserting the daemon never crashes or wedges, \
          every surviving client gets a byte-identical result or a structured \
          error frame, and the socket is always reclaimed.  Exit 1 on any \
          violation.")
    Term.(
      const run $ dir_arg $ specs_arg $ seed_arg $ socket_arg $ jobs_arg
      $ queue_arg $ request_timeout_arg $ faults_arg)

(* The CLI's robustness boundary.  [catch_break] turns Ctrl-C into
   [Sys.Break], which the pool drains cooperatively and we render as a
   partial-progress summary (exit 130, the conventional SIGINT code).
   Resource crashes the budgets did not preempt — a blown OCaml stack or
   the allocator giving up — are rendered as one diagnostic pointing at
   the budget flags (exit 3), never a raw backtrace.  [~catch:false]
   keeps cmdliner from eating these exceptions first. *)
let () =
  Sys.catch_break true;
  let doc = "knowledge predicate transformers and knowledge-based protocols" in
  let info = Cmd.info "kpt" ~version:"1.0.0" ~doc in
  let resource_diag msg =
    Format.eprintf "%a@." Kpt_analysis.Diagnostic.pp
      (Kpt_analysis.Diagnostic.error ~code:"KPT040"
         ~hint:
           "bound the search: --fuel N caps fixpoint iterations, --max-nodes N caps \
            BDD allocation, --timeout SEC caps wall clock"
         msg)
  in
  let code =
    try
      Cmd.eval' ~catch:false
        (Cmd.group info
           [
             experiments_cmd; solve_cmd; check_cmd; simulate_cmd; proof_cmd; parse_cmd;
             lint_cmd; slice_cmd; solve_file_cmd; verify_cmd; knowledge_cmd; stats_cmd;
             matrix_cmd; serve_cmd; client_cmd; gen_cmd; difftest_cmd; chaos_cmd;
           ])
    with
    | Sys.Break ->
        let completed, total = Kpt_par.progress () in
        if total > 0 then
          Format.eprintf "@.interrupted: %d of %d batch task(s) had completed@."
            completed total
        else Format.eprintf "@.interrupted@.";
        exit_interrupted
    | Stack_overflow ->
        resource_diag
          "the solver overflowed the OCaml stack (fixpoint or BDD recursion too deep \
           for this spec)";
        exit_resource
    | Out_of_memory ->
        resource_diag "the solver exhausted memory (the BDD outgrew this machine)";
        exit_resource
    | Budget.Exhausted reason ->
        (* belt and braces: every budgeted command catches this itself *)
        Format.eprintf "error[KPT041]: resource budget exhausted: %s@."
          (Budget.reason_to_string reason);
        exit_resource
    | e ->
        let bt = Printexc.get_raw_backtrace () in
        Format.eprintf "kpt: internal error, uncaught exception:@.%s@.%s@."
          (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error
  in
  exit code
