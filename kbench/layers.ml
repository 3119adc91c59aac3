(* The traced run's view of [kpt check]: [Check.check_source] and
   [Stats.collect] taken apart into their public layer calls, each
   wrapped in a span from this side, run one spec at a time on the
   calling domain under the same per-task scoping the pool gives a
   [Driver.check] task (fresh engine, the batch's reorder policy, the
   spec's budget armed at task start).

   The call sequence mirrors the library's exactly — including the
   counter reset [Stats.collect] performs after elaboration — so the
   verdict and the solving counters must equal what [Driver.check]
   reports for the same spec. *)

open Kpt_predicate
open Kpt_core
open Kpt_analysis
open Kpt_syntax

type spec_result = {
  report : Check.report;
  front : (string * int) list;
      (** counters of lint, parse and elaborate, snapshot before
          [Stats.collect]'s reset; empty when the spec never got there *)
  merged : (string * int) list;  (** the task engine's counters at the end: what the pool merges *)
  lib_spans : (string * int64 * int) list;  (** spans recorded inside the library ([bdd.reorder]) *)
  bdd : Bdd.stats option;
  source_bytes : int;
  out_bytes : int;
}

(* The layer the attribution self-test doubles, if any. *)
let planted = ref ""

let layer tr ~item name f =
  Trace.span tr ~item name (fun () ->
      if name = !planted then ignore (f ());
      f ())

let syntax_failure = function
  | Token.Lex_error _ | Parser.Parse_error _ | Elaborate.Elab_error _ | Invalid_argument _ -> true
  | _ -> false

(* [Check.report_of_exn]'s classification, for what escapes a task. *)
let report_of_exn ~file exn =
  let d =
    match Diagnostic.of_syntax_exn ~file exn with
    | Some d -> d
    | None -> (
        match exn with
        | Budget.Exhausted reason ->
            Diagnostic.error ~file ~code:"KPT041"
              (Printf.sprintf "resource budget exhausted: %s" (Budget.reason_to_string reason))
        | _ -> Diagnostic.error ~file ~code:"KPT003" (Printexc.to_string exn))
  in
  { Check.file; diags = [ d ]; stats = None }

(* [Stats.collect], layer by layer. *)
let collect tr ~item ~file (sp, kbp) =
  Kpt_obs.reset ();
  let m = Space.manager sp in
  let outcome =
    if Kbp.is_standard kbp then begin
      let prog =
        layer tr ~item "unity.compile" (fun () ->
            Kpt_obs.time "to_standard" (fun () -> Kbp.to_standard_program kbp))
      in
      let si =
        layer tr ~item "unity.fixpoint" (fun () ->
            Kpt_obs.time "si" (fun () -> Kpt_unity.Program.si prog))
      in
      Stats.Standard { reachable = Space.count_states_of sp si; si_nodes = Bdd.size m si }
    end
    else
      match
        layer tr ~item "core.iterate" (fun () ->
            Kpt_obs.time "iterate" (fun () -> Kbp.iterate kbp))
      with
      | Kbp.Converged { si; steps } ->
          Stats.Kbp_converged { steps; states = Space.count_states_of sp si }
      | Kbp.Diverged { orbit; _ } -> Stats.Kbp_cycle { period = List.length orbit }
      | Kbp.Budget_exhausted { reason; _ } -> raise (Budget.Exhausted reason)
  in
  let bdd = Bdd.stats m in
  let counters = Kpt_obs.counters () in
  let spans = Kpt_obs.spans () in
  {
    Stats.file;
    variables = List.length (Space.vars sp);
    statements = List.length (Kbp.kstmts kbp);
    state_space = Space.state_count_exact sp;
    outcome;
    bdd;
    counters;
    spans;
  }

let check_spec tr ~item ~reorder (s : Inputs.spec) =
  let file = s.Inputs.key and src = s.Inputs.source in
  let eng = Engine.create () in
  Engine.set_reorder_mode eng (Some reorder);
  let front = ref [] in
  let task () =
    let diags = layer tr ~item "analysis.lint" (fun () -> Lint.lint_source ~file src) in
    match
      let ast = layer tr ~item "syntax.parse" (fun () -> Parser.program_of_string src) in
      layer tr ~item "syntax.elaborate" (fun () -> Elaborate.program ast)
    with
    | loaded ->
        front := Kpt_obs.counters ();
        { Check.file; diags; stats = Some (collect tr ~item ~file loaded) }
    | exception e when syntax_failure e -> { Check.file; diags; stats = None }
  in
  let report =
    match Engine.use eng (fun () -> Engine.with_budget s.Inputs.limits task) with
    | r -> r
    | exception e -> report_of_exn ~file e
  in
  let out =
    layer tr ~item "analysis.render" (fun () ->
        let b = Buffer.create 1024 in
        let ppf = Format.formatter_of_buffer b in
        Check.render_json ppf [ report ];
        Format.pp_print_flush ppf ();
        Buffer.contents b)
  in
  {
    report;
    front = !front;
    merged = Engine.counters eng;
    lib_spans = Engine.spans eng;
    bdd = Option.map (fun st -> st.Stats.bdd) report.Check.stats;
    source_bytes = String.length src;
    out_bytes = String.length out;
  }

let verdict r =
  Verdict.with_answers
    (Verdict.of_difftest (Difftest.verdict_of_report r.report))
    (match r.report.Check.stats with
    | Some st -> Verdict.answers_of_outcome st.Stats.outcome
    | None -> [])

(* ---- counter aggregation ----------------------------------------------------------- *)

(* High-watermark counters merge with [max], the rest add — the
   [Kpt_obs.Ctx.merge] rule. *)
let is_watermark name =
  let ends suffix =
    String.length name >= String.length suffix
    && String.sub name (String.length name - String.length suffix) (String.length suffix) = suffix
  in
  ends ".peak" || ends ".max"

let merge a b =
  let h = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) a;
  List.iter
    (fun (k, v) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt h k) in
      Hashtbl.replace h k (if is_watermark k then max prev v else prev + v))
    b;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare

let get cs name = Option.value ~default:0 (List.assoc_opt name cs)

(* The machine-independent work counters: deterministic functions of
   the inputs, so they must repeat bit-for-bit between two runs of one
   seed.  The serve gauges are the only counters left out. *)
let exact cs =
  List.filter
    (fun (k, _) -> not (String.length k >= 6 && String.sub k 0 6 = "serve."))
    cs

let digest cs =
  Util.md5_hex (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (exact cs)))

(* The first counter on which two snapshots disagree, if any. *)
let first_difference a b =
  let a = exact a and b = exact b in
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  List.find_map
    (fun k -> if get a k <> get b k then Some (k, get a k, get b k) else None)
    keys
