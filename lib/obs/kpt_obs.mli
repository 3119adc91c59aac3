(** Lightweight observability for the symbolic engine — now domain-safe.

    Three orthogonal facilities:

    {ul
    {- {e monotone counters} — named integer cells the hot layers bump as
       they work (op-cache hits, fixpoint iterations, …).  Incrementing
       is an array store in the domain-local {e metric context}: no
       allocation, no locks, no branching on configuration, so counters
       are always on — and safe when several domains run engines
       concurrently, because no two domains ever share a context.}
    {- {e timing spans} — wall-clock intervals measured on the OS
       monotonic clock (the same clock the Bechamel toolkit benchmarks
       with), accumulated per span name in the same context.}
    {- {e a structured event sink} — an optional callback that streams
       per-iteration fixpoint events ([kpt … --trace]).  Off by default;
       emit sites must guard with {!enabled} so a disabled sink costs one
       load and no allocation.  The sink is part of the context, so
       worker domains never stream into the main domain's formatter.}}

    {b Storage model.}  Counter/span {e names} are interned in a
    process-global registry (so the key set reported by {!counters} is
    shared and stable); their {e values} live in a {!Ctx.t}.  The main
    domain runs on {!Ctx.root}; every other domain starts on a private
    context.  {!Ctx.use} scopes a context to a computation (how the
    parallel pool gives each task an isolated profile) and {!Ctx.merge}
    folds a finished worker's numbers into an aggregate after the join.

    The {!Gate} submodule is the consumer side: it diffs the
    [benchmarks_ns_per_run] section of two bench JSON files and flags
    regressions beyond a tolerance (the CI bench gate). *)

(** {1 Counters} *)

type counter
(** A named monotone counter.  Counters are interned: {!counter} returns
    the same slot for the same name, so modules can declare their
    counters at top level and share them.  The slot is just a name + an
    index — the value lives in the current domain's context. *)

val counter : string -> counter
(** [counter name] is the unique counter registered under [name]
    (created on first use, starting at 0 in every context). *)

val incr : counter -> unit
(** Add 1 (in the current domain's context). *)

val add : counter -> int -> unit
(** Add [n] (must be ≥ 0 — counters are monotone between resets). *)

val record_max : counter -> int -> unit
(** High-watermark update: [record_max c n] raises [c] to [n] if [n] is
    larger (used for peaks, e.g. live BDD nodes).  Counters touched by
    [record_max] are merged with [max] rather than [+] by {!Ctx.merge}. *)

val value : counter -> int

val counters : unit -> (string * int) list
(** Snapshot of every registered counter in the current context, sorted
    by name.  Counters that are still 0 are included: the key set is part
    of the interface (and is global — a counter declared by any module is
    listed in every context's snapshot). *)

(** {1 Monotonic clock and spans} *)

val now_ns : unit -> int64
(** Nanoseconds on the OS monotonic clock ([CLOCK_MONOTONIC]); the zero
    point is arbitrary, so only differences are meaningful.  Unlike
    [Sys.time] (CPU time) and [Unix.gettimeofday] (wall time, subject to
    adjustment) this is safe for measuring elapsed real time. *)

val time : string -> (unit -> 'a) -> 'a
(** [time name f] runs [f ()], accumulating its elapsed time under span
    [name] in the current context.  Re-entrant: nested spans each record
    their own interval (so a parent span's total includes its
    children's). *)

val spans : unit -> (string * int64 * int) list
(** Snapshot of the spans with at least one finished call in the current
    context, sorted by name: (name, total ns, calls). *)

val reset : unit -> unit
(** Zero every counter and span of the {e current} context (the registry
    and the sink are kept).  Call before a measured workload to scope the
    numbers to it. *)

(** {1 Event sink} *)

val enabled : unit -> bool
(** Whether a sink is installed in the current context.  Emit sites must
    guard: [if Kpt_obs.enabled () then Kpt_obs.emit "sst.iter" [ ... ]] —
    the field list is then never built when tracing is off. *)

val set_sink : (string -> (string * int) list -> unit) option -> unit
(** Install ([Some f]) or remove ([None]) the sink of the current
    context. *)

val emit : string -> (string * int) list -> unit
(** Send one event (a name plus labelled integer fields) to the current
    context's sink; no-op without one.  Guard with {!enabled} — see
    above. *)

val trace_sink : Format.formatter -> string -> (string * int) list -> unit
(** The standard renderer used by [--trace]:
    [trace: name field=value field=value].  Install it with
    [set_sink (Some (trace_sink fmt))]. *)

(** {1 Metric contexts} *)

module Ctx : sig
  type t
  (** A metric context: one domain's (or one task's) counter and span
      values plus its event sink.  Contexts are single-owner mutable
      state — exactly one domain may be {e current} on a context at a
      time; hand-off between domains must be ordered (e.g. by
      [Domain.join]). *)

  val create : unit -> t
  (** A fresh context with every counter at 0 and no sink. *)

  val root : t
  (** The process root context — what the main domain uses unless
      {!use} overrides it, and the destination the parallel pool merges
      worker profiles into. *)

  val current : unit -> t
  (** The current domain's context. *)

  val use : t -> (unit -> 'a) -> 'a
  (** [use t f] makes [t] the current context of this domain for the
      duration of [f] (restoring the previous one afterwards, also on
      exceptions). *)

  val merge : into:t -> t -> unit
  (** [merge ~into src] folds [src]'s numbers into [into]: counters and
      span totals/calls add; high-watermark counters ({!record_max})
      combine with [max].  Both contexts must be quiescent — call it
      after [Domain.join], never while a domain is still writing [src]. *)

  val counters : t -> (string * int) list
  (** {!counters}, but of an explicit context. *)

  val spans : t -> (string * int64 * int) list
  (** {!spans}, but of an explicit context. *)

  val reset : t -> unit
  (** {!reset}, but of an explicit context: zero every counter and span
      of [t], keeping the registry and the sink.  The serve daemon calls
      this between requests so no counter or span value from one request
      is ever visible to the next. *)

  val set_sink : t -> (string -> (string * int) list -> unit) option -> unit
  (** Install or remove the sink of an explicit context — the way a
      request handler arranges event streaming for an engine it is about
      to run ({!use} + the global {!set_sink} would race nothing, but
      this spelling works before the context is current). *)
end

(** {1 The bench gate} *)

module Gate : sig
  type verdict = {
    name : string;
    baseline_ns : float;
    current_ns : float;
    ratio : float;  (** current / baseline; > 1 is a slowdown *)
  }

  type report = {
    verdicts : verdict list;  (** every benchmark present in both files *)
    regressions : verdict list;  (** verdicts beyond the tolerance *)
    missing : string list;  (** in the baseline but not the current run *)
  }

  val benchmarks_of_json : string -> (string * float) list
  (** Extract the top-level ["benchmarks_ns_per_run"] object of a bench
      JSON file, parsed with {!Json.of_string}.
      @raise Failure if the file is not JSON or the section is absent or
      malformed. *)

  val counters_of_json : string -> (string * float) list
  (** Extract the cumulative ["counters"] object of a bench JSON file.
      @raise Failure if the section is absent or malformed. *)

  val scaling_of_json : string -> (string * int * int * float) list
  (** Extract the ["scaling_standard_protocol"] array as
      [(family, n, a, si_seconds)] rows.  Rows written before the
      [family] field existed read as ["seqtrans"].
      @raise Failure if the section is absent or malformed. *)

  val missing_section_message :
    file:string -> section:string -> ?benchmark:string -> unit -> string
  (** The one diagnostic an incomplete results file produces: names the
      file, the section, and (when given) the benchmark missing within
      it.  Pinned verbatim by the unit tests so CI logs stay
      greppable. *)

  val require_section :
    file:string -> section:string -> (string -> 'a) -> string -> 'a
  (** Run a section reader ({!benchmarks_of_json}, {!counters_of_json},
      {!scaling_of_json}), converting its bare [Failure] into
      {!missing_section_message}.
      @raise Failure with the structured message. *)

  val check : ?tolerance:float -> baseline:string -> string -> report
  (** [check ~baseline current] compares two bench JSON {e contents}
      (not paths).  A benchmark
      regresses when [current > baseline * (1 + tolerance)]; the default
      [tolerance] is [0.25].  Renamed or removed benchmarks appear in
      [missing] — refresh the baseline rather than letting them rot. *)

  val pp_report : Format.formatter -> report -> unit
  (** Human-readable table of every verdict, slowest ratio first. *)
end
