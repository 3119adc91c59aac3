(** The static-analysis passes behind [kpt lint].

    Everything here is purely syntactic / structural — no BDD is ever
    built — so the checks run (and the paper's Figure 1-2 pathologies are
    predicted) before any fixpoint search is attempted:

    - {e read/write sets} (see {!Rw}) feed every other pass;
    - {e knowledge locality} (eq. 13): a guard attributed to process [i]
      must depend only on [vars_i] outside its [K_i] operators — anything
      else is unimplementable;
    - {e K-polarity} (eq. 25, Figures 1-2): a knowledge operator in
      negative position, or knowledge {e of} a negated fact, can make
      [SI = strongest x : [ŜP.x ⇒ x]] unsolvable or non-monotonic in
      [init];
    - {e vacuity / hygiene}: unused and write-only variables, identity
      assignments, duplicate statements, constant guards, [nat(k)]
      comparisons against out-of-range constants;
    - {e interference}: a variable written on behalf of two different
      processes, or written by a process that cannot access it.

    [lint_kbp] / [lint_program] run the structural subset that makes
    sense on in-memory values (no spans), so protocols built through the
    OCaml API get the same checks the surface syntax does. *)

open Kpt_syntax
open Kpt_unity
open Kpt_core

val lint_ast : ?file:string -> Ast.program -> Diagnostic.t list
(** All passes over a parsed program, sorted in document order. *)

val lint_source : ?file:string -> string -> Diagnostic.t list
(** Lex, parse, lint, then elaborate: lexical / syntax errors surface as
    [KPT001]/[KPT002] diagnostics, elaboration errors as [KPT003], and a
    well-formed program gets the full {!lint_ast} treatment.  Never
    raises. *)

val lint_source_semantic :
  ?budget:Kpt_predicate.Budget.limits -> file:string -> string -> Diagnostic.t list
(** {!lint_source} plus the semantic tier: elaborate the source and run
    {!Semantic.analyse} on the loaded spec (KPT1xx findings, budgeted).
    An unsatisfiable initial condition — which elaboration rejects, so
    {!Semantic} never sees it — is recovered from the error message and
    reported as [KPT103] (replacing the generic [KPT003]).  Never
    raises. *)

val json_document : (string * Diagnostic.t list * (string * Json.t) list) list -> Json.t
(** The [--json] report of a file set: [files]/[errors]/[warnings]/[infos]
    totals and [reports], one per [(file, diagnostics, extra)] with
    [file]/[status]/[findings]/[diagnostics] and then the [extra]
    members — [kpt check --json] adds each file's [stats] there. *)

val render_json : Format.formatter -> (string * Diagnostic.t list) list -> unit
(** The [kpt lint --json] shape: {!json_document} with no extra
    members, pretty-printed. *)

val run_sources :
  ?jobs:int ->
  ?semantic:bool ->
  ?budget:Kpt_predicate.Budget.limits ->
  ?json:bool ->
  ?warn_error:bool ->
  ?quiet:bool ->
  Format.formatter ->
  (string * string) list ->
  int
(** [run_sources ppf [(file, contents); …]] is the driver behind
    [kpt lint]: lint every source, render diagnostics (with excerpts)
    and a summary to [ppf], and return the process exit code.  Files are
    linted on a [jobs]-wide pool (default {!Kpt_par.recommended_jobs})
    but rendered in input order, so the output does not depend on the
    pool size.  [~semantic:true] adds the budgeted KPT1xx tier
    ({!lint_source_semantic}; [budget] defaults to
    {!Kpt_predicate.Budget.analysis_default}); [~json:true] renders
    {!render_json} instead of text.  [~quiet:true] suppresses {e all}
    rendering but {e never} alters the exit code, which depends only on
    the findings: 1 iff any error, or any warning when
    [~warn_error:true]. *)

val lint_kbp : ?file:string -> Kbp.t -> Diagnostic.t list
(** Structural checks on an in-memory knowledge-based protocol:
    K-polarity and locality over its {!Kform.t} guards, plus hygiene and
    interference. *)

val lint_program : ?file:string -> Program.t -> Diagnostic.t list
(** Structural checks on a compiled standard program: hygiene (identity
    assignments, duplicates, unused / write-only variables, statically
    false guards). *)
