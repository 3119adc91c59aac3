(* Shared command bodies for the CLI and the serve daemon.  See the
   interface for the scoping contract; the rendering code is the former
   [bin/kpt.ml] command bodies verbatim, with [Format.std_formatter] /
   [err_formatter] replaced by buffer-backed formatters so the output
   becomes a value. *)

open Kpt_predicate
open Kpt_core

type options = {
  jobs : int option;
  json : bool;
  warn_error : bool;
  quiet : bool;
  slice : bool;
  semantic : bool;
  timings : bool;
  trace : bool;
  wrt : string list;
  limits : Budget.limits;
  reorder : Engine.reorder_mode;
}

let default_options =
  {
    jobs = None;
    json = false;
    warn_error = false;
    quiet = false;
    slice = false;
    semantic = false;
    timings = false;
    trace = false;
    wrt = [];
    limits = Budget.unlimited;
    reorder = Engine.Reorder_off;
  }

type outcome = { code : int; out : string; err : string }
type sink = string -> (string * int) list -> unit

(* exit-code contract, as documented in the README *)
let exit_resource = 3

(* Run one command body under per-request scoping: fresh engine (reset,
   belt and braces), the requested reorder policy pinned on *that
   engine* — never the process-wide default, which concurrent requests
   on other domains are reading ([Kpt_par.try_map] forwards the caller's
   effective mode to its per-task engines, so batch paths still see it)
   — the trace sink wired to [err] unless the caller supplies its own,
   and the engine's metrics merged into the caller's context on the way
   out.  The budget is *not* armed here: each body arms it via
   [Engine.with_budget] (or the pool's per-task arming) so the deadline
   is relative to the work it bounds. *)
let scoped ?sink opts body =
  let bout = Buffer.create 4096 in
  let berr = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer bout in
  let epf = Format.formatter_of_buffer berr in
  let caller = Engine.current () in
  let eng = Engine.create () in
  Kpt_obs.Ctx.reset (Engine.obs eng);
  (match sink with
  | Some _ -> Kpt_obs.Ctx.set_sink (Engine.obs eng) sink
  | None ->
      if opts.trace then
        Kpt_obs.Ctx.set_sink (Engine.obs eng) (Some (Kpt_obs.trace_sink epf)));
  Engine.set_reorder_mode eng (Some opts.reorder);
  let code =
    Fun.protect
      ~finally:(fun () ->
        Kpt_obs.Ctx.set_sink (Engine.obs eng) None;
        Engine.merge_metrics ~into:caller eng)
      (fun () -> Engine.use eng (fun () -> body ppf epf))
  in
  Format.pp_print_flush ppf ();
  Format.pp_print_flush epf ();
  { code; out = Buffer.contents bout; err = Buffer.contents berr }

(* Parse and elaborate one source; syntax-family errors render once,
   uniformly, as [file:line:col: error[KPT00x]: …] — the same funnel as
   the CLI's [with_loaded], against the in-memory source. *)
let with_loaded ~file ~src epf f =
  match Kpt_syntax.Elaborate.program (Kpt_syntax.Parser.program_of_string src) with
  | loaded -> f loaded
  | exception
      ((Kpt_syntax.Token.Lex_error _ | Kpt_syntax.Parser.Parse_error _
       | Kpt_syntax.Elaborate.Elab_error _) as exn) ->
      (match Diagnostic.of_syntax_exn ~file exn with
      | Some d -> Format.fprintf epf "%a@." Diagnostic.pp d
      | None -> Format.fprintf epf "error: %s@." (Printexc.to_string exn));
      1
  | exception Failure msg ->
      Format.fprintf epf "error: %s@." msg;
      1

(* ---- check (batch) -------------------------------------------------------- *)

let check ?sink opts sources =
  scoped ?sink opts @@ fun ppf _epf ->
  Check.run_sources ?jobs:opts.jobs ~budget:opts.limits ~slice:opts.slice
    ~warn_error:opts.warn_error ~quiet:opts.quiet ~json:opts.json ppf sources

(* ---- lint ------------------------------------------------------------------ *)

let lint ?sink opts sources =
  scoped ?sink opts @@ fun ppf _epf ->
  let budget = if Budget.is_unlimited opts.limits then None else Some opts.limits in
  Lint.run_sources ?jobs:opts.jobs ~semantic:opts.semantic ?budget ~json:opts.json
    ~warn_error:opts.warn_error ~quiet:opts.quiet ppf sources

(* ---- stats ----------------------------------------------------------------- *)

let stats_one ~file ~src ~json ~timings ppf epf =
  with_loaded ~file ~src epf @@ fun loaded ->
  match Stats.collect ~file loaded with
  | st ->
      if json then Format.pp_print_string ppf (Stats.to_json ~timings st)
      else Format.fprintf ppf "%a@." Stats.pp st;
      0
  | exception Failure msg ->
      Format.fprintf epf "error: %s@." msg;
      1

(* several files: profiled on the pool (each under its own engine, so
   every profile is the same one a single-file run would print) and
   rendered in input order — as a JSON array under --json *)
let stats_many ~jobs ~json ~timings sources ppf epf =
  let collected =
    Kpt_par.try_map ?jobs
      (fun (file, src) ->
        let sp, kbp =
          Kpt_syntax.Elaborate.program (Kpt_syntax.Parser.program_of_string src)
        in
        Stats.collect ~file (sp, kbp))
      sources
  in
  let code = ref 0 in
  List.iteri
    (fun i r ->
      match r with
      | Ok st -> if not json then Format.fprintf ppf "%a@." Stats.pp st
      | Error exn ->
          code := 1;
          let file = fst (List.nth sources i) in
          (match Diagnostic.of_syntax_exn ~file exn with
          | Some d -> Format.fprintf epf "%a@." Diagnostic.pp d
          | None -> Format.fprintf epf "error: %s: %s@." file (Printexc.to_string exn)))
    collected;
  if json then
    Format.pp_print_string ppf
      (Json.pretty
         (Json.List
            (List.filter_map
               (function Ok st -> Some (Stats.json ~timings st) | Error _ -> None)
               collected)));
  !code

let stats ?sink opts sources =
  scoped ?sink opts @@ fun ppf epf ->
  match sources with
  | [ (file, src) ] -> stats_one ~file ~src ~json:opts.json ~timings:opts.timings ppf epf
  | sources ->
      stats_many ~jobs:opts.jobs ~json:opts.json ~timings:opts.timings sources ppf epf

(* ---- solve (kpt solve-file) ------------------------------------------------ *)

let solve ?sink opts sources =
  scoped ?sink opts @@ fun ppf epf ->
  match sources with
  | [] ->
      Format.fprintf epf "error: solve needs a .unity file@.";
      2
  | (file, src) :: _ ->
      with_loaded ~file ~src epf @@ fun (sp, kbp) ->
      let kbp =
        if not opts.slice then kbp
        else begin
          let sliced, info = Slice.kbp kbp in
          if not (Slice.is_identity info) then
            Format.fprintf ppf "sliced: dropped %d of %d statement(s) outside the cone@."
              (List.length info.Slice.dropped)
              (List.length info.Slice.kept + List.length info.Slice.dropped);
          sliced
        end
      in
      Format.fprintf ppf "%a@.@." Kbp.pp kbp;
      let code = ref 0 in
      (match Engine.with_budget opts.limits (fun () -> Kbp.solutions kbp) with
      | [] ->
          Format.fprintf ppf
            "No solution: Ĝ(X) = X has no fixpoint (the KBP is not well-posed).@."
      | sols ->
          Format.fprintf ppf "%d solution(s):@." (List.length sols);
          List.iter (fun s -> Format.fprintf ppf "  SI = %a@." (Space.pp_pred sp) s) sols
      | exception Budget.Exhausted reason ->
          Format.fprintf ppf "Solution enumeration: budget exhausted (%s).@."
            (Budget.reason_to_string reason);
          code := exit_resource);
      (match Kbp.solve ~budget:opts.limits kbp with
      | Kbp.Converged { si; steps } ->
          Format.fprintf ppf "Chaotic iteration converged in %d step(s) to %a@." steps
            (Space.pp_pred sp) si
      | Kbp.Diverged { orbit; _ } ->
          Format.fprintf ppf "Chaotic iteration diverges: cycle with period %d.@."
            (List.length orbit)
      | Kbp.Budget_exhausted { reason; steps; candidate } ->
          Format.fprintf ppf
            "Chaotic iteration: budget exhausted (%s) after %d step(s); candidate X = %a@."
            (Budget.reason_to_string reason) steps (Space.pp_pred sp) candidate;
          code := exit_resource);
      !code

(* ---- slice ----------------------------------------------------------------- *)

let slice ?sink opts sources =
  scoped ?sink opts @@ fun ppf epf ->
  match sources with
  | [] ->
      Format.fprintf epf "error: slice needs a .unity file@.";
      2
  | (file, src) :: _ -> (
      with_loaded ~file ~src epf @@ fun (sp, kbp) ->
      match
        Engine.with_budget opts.limits @@ fun () ->
        try
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
          let wrt = List.map compile opts.wrt in
          let sliced, info = Slice.kbp ~wrt kbp in
          Format.fprintf ppf "%s: @[<v>%a@]@." (Kbp.name kbp) (Slice.pp_info sp) info;
          if not (Slice.is_identity info) then Format.fprintf ppf "@.%a@." Kbp.pp sliced;
          0
        with Failure msg ->
          Format.fprintf epf "error: %s@." msg;
          1
      with
      | code -> code
      | exception Budget.Exhausted reason ->
          Format.fprintf ppf "budget exhausted: %s@." (Budget.reason_to_string reason);
          exit_resource)
