(* The traced run of the in-process workloads: per-layer self times from
   the spans of {!Layers}, counters from [Kpt_obs], and the benchmark's
   self-tests (layer attribution, corrupted reference, exact counters,
   layer-by-layer verdicts equal to [Driver.check]'s). *)

open Run_check

let ms s = s *. 1e3

let layer_names =
  [
    "syntax.parse";
    "syntax.elaborate";
    "analysis.lint";
    "analysis.lint_semantic";
    "unity.compile";
    "unity.fixpoint";
    "core.iterate";
    "core.solve";
    "analysis.render";
    "spec";
  ]

(* Per-layer metrics of one traced pass: self times from [trace], work
   counts from [counters] (summed over every item of the pass), table
   sizes and bytes from the checked specs' [results]. *)
let layer_metrics ~trace ~counters (results : Layers.spec_result list) =
  let self name = ms (Trace.self_s trace name) in
  let get name = float_of_int (Layers.get counters name) in
  let share hits misses = if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses) in
  let sumf f = Util.sum (List.map f results) in
  let maxf f = List.fold_left (fun acc r -> max acc (f r)) 0.0 results in
  let bdd f r = match r.Layers.bdd with Some b -> float_of_int (f b) | None -> 0.0 in
  let reorder_ns =
    sumf (fun r ->
        match List.find_opt (fun (n, _, _) -> n = "bdd.reorder") r.Layers.lib_spans with
        | Some (_, ns, _) -> Int64.to_float ns
        | None -> 0.0)
  in
  let swaps = get "bdd.reorder.swaps" in
  let src_kb = sumf (fun r -> float_of_int r.Layers.source_bytes) /. 1024.0 in
  [
    ("syntax.parse_ms", self "syntax.parse");
    ("syntax.elaborate_ms", self "syntax.elaborate");
    ("syntax.kb_per_s", if self "syntax.parse" > 0.0 then src_kb /. (self "syntax.parse" /. 1e3) else 0.0);
    ("analysis.lint_ms", self "analysis.lint");
    ("analysis.lint_semantic_ms", self "analysis.lint_semantic");
    ("unity.compile_ms", self "unity.compile");
    ("unity.fixpoint_ms", self "unity.fixpoint");
    ("sst.iterations", get "sst.iterations");
    ("space.early_quant.images", get "space.early_quant.images");
    ("space.early_quant.steps", get "space.early_quant.steps");
    ("space.quant_cache.hit_share", share (get "space.quant_cache.hits") (get "space.quant_cache.misses"));
    ("bdd.nodes.created", get "bdd.nodes.created");
    ("bdd.uid_high", get "bdd.nodes.peak");
    ("bdd.live_nodes_end", maxf (bdd (fun b -> b.Kpt_predicate.Bdd.live_nodes)));
    ("bdd.op_cache.hit_share", share (get "bdd.op_cache.hits") (get "bdd.op_cache.misses"));
    ("bdd.op_cache.misses", get "bdd.op_cache.misses");
    ("bdd.op_cache.spills", get "bdd.op_cache.spills");
    ("bdd.spill_nodes", sumf (bdd (fun b -> b.Kpt_predicate.Bdd.spill_nodes)));
    ("bdd.unique.grows", get "bdd.unique.grows");
    ("reorder.ms", reorder_ns /. 1e6);
    ("bdd.reorder.runs", get "bdd.reorder.runs");
    ("bdd.reorder.swaps", swaps);
    ("reorder.us_per_swap", if swaps > 0.0 then reorder_ns /. 1e3 /. swaps else 0.0);
    ("bdd.gc.runs", get "bdd.gc.runs");
    ("bdd.gc.freed", get "bdd.gc.freed");
    ("core.iterate_ms", self "core.iterate");
    ("core.solve_ms", self "core.solve");
    ("wcyl.calls", get "wcyl.calls");
    ("knowledge.knows.calls", get "knowledge.knows.calls");
    ("kbp.g_operator.applications", get "kbp.g_operator.applications");
    ("kbp.solutions.candidates", get "kbp.solutions.candidates");
    ("analysis.render_ms", self "analysis.render");
    ("analysis.out_kb", sumf (fun r -> float_of_int r.Layers.out_bytes) /. 1024.0);
  ]

(* ---- self-tests ----------------------------------------------------------------- *)

(* Doubling one layer's call must raise that layer's self time and no
   other's.  Layers too small to time reliably (under 1 ms, or under 1%
   of the pass) are not judged. *)
let attribution_ok ~planted (base : Trace.t) (doubled : Trace.t) =
  let total = Trace.total_root_s base in
  let ratio name =
    let b = Trace.self_s base name and d = Trace.self_s doubled name in
    (b, if b > 0.0 then d /. b else 0.0)
  in
  let pb, pr = ratio planted in
  Util.say "self-test attribution: doubled %s: self %.2f ms -> ratio %.2f" planted (ms pb) pr;
  let others_ok =
    List.for_all
      (fun name ->
        if name = planted then true
        else
          let b, r = ratio name in
          if b < 1e-3 || b < 0.01 *. total then true
          else begin
            if r > 1.25 then
              Util.say "self-test attribution: %s also moved (ratio %.2f)" name r;
            r <= 1.25
          end)
      layer_names
  in
  pb >= 1e-3 && pr >= 1.5 && others_ok

(* The layer the attribution self-test calls twice: pure (it returns
   the same diagnostics for the same source every time) and large
   enough on every workload to time. *)
let planted_layer = "analysis.lint"

(* Two traces of the same items, one as usual and one with
   [planted_layer] called twice.  Each item runs under both back to back,
   in alternating order, so both traces see the same heap and host
   conditions. *)
let planted_passes run items =
  let base = Trace.create () and doubled = Trace.create () in
  let traced tr i x = Trace.span tr ~item:i "spec" (fun () -> run tr ~item:i x) in
  let with_planted f =
    Layers.planted := planted_layer;
    Fun.protect ~finally:(fun () -> Layers.planted := "") f
  in
  Gc.full_major ();
  List.iteri
    (fun i x ->
      if i mod 2 = 0 then begin
        traced base i x;
        with_planted (fun () -> traced doubled i x)
      end
      else begin
        with_planted (fun () -> traced doubled i x);
        traced base i x
      end)
    items;
  (base, doubled)

(* Corrupting one entry of a reference table — a copy of the frozen
   one when this seed has it, else one built from this run's verdicts —
   must be flagged exactly once by the same judging the run uses. *)
let corrupt_ref_flagged ?frozen entries =
  match entries with
  | [] -> false
  | (k0, _) :: _ ->
      let table =
        match frozen with
        | Some r -> Hashtbl.copy r.Verdict.table
        | None ->
            let t = Hashtbl.create 1024 in
            List.iter (fun (k, v) -> Hashtbl.replace t k v) entries;
            t
      in
      let judge_all refs =
        let t = Verdict.tally () in
        List.iter (fun (k, v) -> Verdict.judge t ~refs ~key:k v) entries;
        t.Verdict.mismatches
      in
      let clean = judge_all { Verdict.digest = ""; table } in
      Hashtbl.replace table k0 (Option.value ~default:"" (Hashtbl.find_opt table k0) ^ "!corrupted");
      let corrupted = judge_all { Verdict.digest = ""; table } in
      Util.say "self-test corrupted reference: %d mismatch(es) clean, %d with %s corrupted" clean
        corrupted k0;
      clean = 0 && corrupted = 1

(* ---- the traced run ------------------------------------------------------------------ *)

let run ctx tally ~trace_path =
  let jobs = nproc () in
  (* the jobs=N batch first: it also warms the heap for the two timed
     single-domain passes compared for the tracing overhead *)
  let tn, cn =
    match ctx.kind with
    | Corpus ->
        let _, tn, cn = driver_counters ~jobs ctx.specs in
        (tn, cn)
    | Scale -> (0.0, [])
  in
  let j1_outs, t1, c1 = driver_counters ~jobs:1 ctx.specs in
  verify ctx tally j1_outs;
  let g0 = Gc.quick_stat () in
  let base = traced_pass ctx in
  let gc = Report.gc_metrics g0 in
  (* layer-by-layer verdicts against Driver.check's, spec by spec *)
  let driver_verdicts =
    List.concat_map
      (fun (o : Kpt_analysis.Driver.outcome) -> Verdict.of_check_json o.Kpt_analysis.Driver.out)
      j1_outs
  in
  let layer_mismatches =
    List.fold_left2
      (fun acc (s : Inputs.spec) r ->
        let want =
          List.find_opt (fun (f : Verdict.file_verdict) -> f.Verdict.file = s.Inputs.key) driver_verdicts
        in
        match want with
        | Some f when f.Verdict.verdict = Layers.verdict r -> acc
        | _ ->
            Util.say "traced verdict differs from Driver.check on %s" s.Inputs.key;
            acc + 1)
      0 ctx.specs base.results
  in
  (* exact counters: the traced pass, the jobs=1 batch and the jobs=N
     batch must agree bit for bit *)
  let traced_counters = sum_counters (fun r -> r.Layers.merged) base.results in
  let diffs =
    List.filter_map Fun.id
      [
        Layers.first_difference c1 traced_counters;
        (if cn = [] then None else Layers.first_difference c1 cn);
      ]
  in
  List.iter (fun (k, a, b) -> Util.say "exact counter %s differs: %d vs %d" k a b) diffs;
  Util.say "exact counters digest %s" (Layers.digest c1);
  (* attribution self-test on the instances that run in under 3 s *)
  let durations = Array.of_list (Trace.durations base.trace "spec") in
  let quick = List.filteri (fun i _ -> durations.(i) < 3.0) ctx.specs in
  let attribution =
    let base, doubled =
      planted_passes (fun tr ~item s -> ignore (Layers.check_spec tr ~item ~reorder s)) quick
    in
    attribution_ok ~planted:planted_layer base doubled
  in
  let entries =
    List.map2 (fun (s : Inputs.spec) r -> (s.Inputs.key, Layers.verdict r)) ctx.specs base.results
  in
  let flagged = corrupt_ref_flagged ?frozen:ctx.refs entries in
  let traced_total = Trace.total_root_s base.trace in
  Util.say "%s traced: %d specs, traced total %.3f s, untraced jobs=1 total %.3f s" (kind_name ctx.kind)
    (List.length ctx.specs) traced_total t1;
  List.iter
    (fun (name, s) -> Util.say "  self %-24s %10.3f ms" name (ms s))
    (Trace.self_times base.trace);
  Trace.write base.trace ~path:trace_path
    ~counters:(List.mapi (fun i r -> (i, Layers.merge r.Layers.front r.Layers.merged)) base.results);
  Util.say "spans written to %s" trace_path;
  let par =
    match ctx.kind with
    | Corpus -> [ ("par.efficiency", t1 /. (tn *. float_of_int jobs)); ("par.tasks", float_of_int (List.length ctx.specs)) ]
    | Scale -> [ ("par.tasks", float_of_int (List.length ctx.specs)) ]
  in
  ( List.length ctx.specs,
    layer_metrics ~trace:base.trace
      ~counters:(sum_counters (fun r -> Layers.merge r.Layers.front r.Layers.merged) base.results)
      base.results
    @ par @ gc
    @ [
        ("trace.overhead_s", traced_total -. t1);
        ("trace.layer_verdict_mismatches", float_of_int layer_mismatches);
        ("exact.counter_mismatches", float_of_int (List.length diffs));
        ("selftest.attribution_ok", if attribution then 1.0 else 0.0);
        ("selftest.corrupt_ref_flagged", if flagged then 1.0 else 0.0);
      ],
    layer_mismatches = 0 && diffs = [] && attribution && flagged )
