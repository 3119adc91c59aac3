(* The result of one benchmark run and its final JSON line.  Metric
   names and units are declared here once; BENCHMARK.json lists the
   same names. *)

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let end_to_end =
  [
    ("setup_s", "s");
    ("specs_per_s", "1/s");
    ("verdict_ms_typical", "ms");
    ("verdict_ms_tail", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("syntax.parse_ms", "ms");
    ("syntax.elaborate_ms", "ms");
    ("syntax.kb_per_s", "KB/s");
    ("analysis.lint_ms", "ms");
    ("analysis.lint_semantic_ms", "ms");
    ("unity.compile_ms", "ms");
    ("unity.fixpoint_ms", "ms");
    ("sst.iterations", "count");
    ("space.early_quant.images", "count");
    ("space.early_quant.steps", "count");
    ("space.quant_cache.hit_share", "ratio");
    ("bdd.nodes.created", "count");
    ("bdd.uid_high", "count");
    ("bdd.live_nodes_end", "count");
    ("bdd.op_cache.hit_share", "ratio");
    ("bdd.op_cache.misses", "count");
    ("bdd.op_cache.spills", "count");
    ("bdd.spill_nodes", "count");
    ("bdd.unique.grows", "count");
    ("reorder.ms", "ms");
    ("bdd.reorder.runs", "count");
    ("bdd.reorder.swaps", "count");
    ("reorder.us_per_swap", "us");
    ("bdd.gc.runs", "count");
    ("bdd.gc.freed", "count");
    ("core.iterate_ms", "ms");
    ("core.solve_ms", "ms");
    ("wcyl.calls", "count");
    ("knowledge.knows.calls", "count");
    ("kbp.g_operator.applications", "count");
    ("kbp.solutions.candidates", "count");
    ("analysis.render_ms", "ms");
    ("analysis.out_kb", "KB");
    ("par.efficiency", "ratio");
    ("par.tasks", "count");
    ("serve.handle_ms_p50", "ms");
    ("serve.overhead_ms_p50", "ms");
    ("serve.cache_hit_share", "ratio");
    ("serve.cache_evictions", "count");
    ("serve.sheds", "count");
    ("serve.io_timeouts", "count");
    ("serve.queue_depth_max", "count");
    ("serve.inflight_after_drain", "count");
    ("load.lag_ms_p99", "ms");
    ("gc.minor_mb", "MB");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("trace.overhead_s", "s");
    ("trace.layer_verdict_mismatches", "count");
    ("exact.counter_mismatches", "count");
    ("selftest.attribution_ok", "bool");
    ("selftest.corrupt_ref_flagged", "bool");
  ]

(* Every declared metric, in declaration order: a layer a workload does
   not load reads 0. *)
let fill names values =
  List.map (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name values))) names

let unit_of names name = Option.value ~default:"" (List.assoc_opt name names)

let to_json ~names r =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, v) ->
                  ( name,
                    Json.Obj
                      [
                        ("value", if Float.is_integer v then Json.Int (int_of_float v) else Json.Float v);
                        ("unit", Json.String (unit_of names name));
                      ] ))
                r.metrics) );
       ])

(* ---- GC accounting ---------------------------------------------------------------- *)

(* The OCaml runtime's work since [before] (a [Gc.quick_stat]). *)
let gc_metrics (before : Gc.stat) =
  let after = Gc.quick_stat () in
  [
    ("gc.minor_mb", (after.Gc.minor_words -. before.Gc.minor_words) *. 8.0 /. 1e6);
    ("gc.major_collections", float_of_int (after.Gc.major_collections - before.Gc.major_collections));
    ("gc.top_heap_mb", float_of_int after.Gc.top_heap_words *. 8.0 /. 1e6);
  ]
