(** The collector behind [kpt stats]: run the canonical solving workload
    of a loaded [.unity] file with the observability counters scoped to
    it, and render the resulting engine profile.

    The workload is the one the other file commands perform: a standard
    program gets its reachable-state fixpoint ([SI], eqs. 1-5); a
    knowledge-based protocol gets the chaotic Ĝ-iteration (eq. 25).
    {!collect} resets the [Kpt_obs] counters and spans first, so the
    snapshot covers exactly this workload (parsing/elaboration happen
    before and are excluded). *)

open Kpt_predicate
open Kpt_core

type outcome =
  | Standard of { reachable : int; si_nodes : int }
      (** reachable states and BDD size of the [SI] predicate *)
  | Kbp_converged of { steps : int; states : int }
      (** chaotic iteration converged: fixpoint depth and solution size *)
  | Kbp_cycle of { period : int }  (** chaotic iteration entered an orbit *)

type t = {
  file : string;
  variables : int;
  statements : int;
  state_space : Bigcount.t;  (** exact — no float rounding at any size *)
  outcome : outcome;
  bdd : Bdd.stats;  (** the space's manager tables after the workload *)
  counters : (string * int) list;  (** full [Kpt_obs] snapshot, name-sorted *)
  spans : (string * int64 * int) list;  (** (name, total ns, calls) *)
}

val collect : file:string -> Space.t * Kbp.t -> t
(** Run the workload on a loaded file and snapshot the engine.  May raise
    whatever the underlying solvers raise (e.g. [Program.Ill_formed]). *)

val hit_rate : t -> float
(** Op-cache hit rate over the workload, in [0, 1] (0 when idle). *)

val pp : Format.formatter -> t -> unit
(** Human-readable profile: headline metrics, the counter table, and the
    span timings. *)

val json : ?timings:bool -> t -> Json.t
(** The machine-readable profile as a value.  [~timings:false] (default
    [true]) omits the [timings_ns] section — everything else is a
    deterministic function of the input file, which is what the golden
    test pins.  {!Check} nests it in its per-file reports. *)

val to_json : ?timings:bool -> t -> string
(** {!json}, pretty-printed ({!Json.pretty}). *)
