(* The two in-process workloads, both through [Driver.check] — the entry
   point behind [kpt check] — with [--json] rendering and the CLI's
   default [--reorder auto]:

   - corpus-batch: the thousand-spec generated corpus as a closed batch
     at [jobs = nproc], one [Driver.check] per budget class, alternating
     with each spec checked alone, until the measuring time is used;
   - scale-check: a fixed set of large instances, one [Driver.check]
     each at [jobs = 1], repeated, each instance at its fastest.

   The traced variants take the same inputs through {!Layers} one spec
   at a time. *)

open Kpt_analysis
module Engine = Kpt_predicate.Engine

let reorder = Engine.Reorder_auto
let nproc = Util.nproc

type kind = Corpus | Scale

let kind_name = function Corpus -> "corpus-batch" | Scale -> "scale-check"

type ctx = {
  kind : kind;
  specs : Inputs.spec list;
  digest : string;
  refs : Verdict.refs option;
}

(* ---- set-up ------------------------------------------------------------------------ *)

let generate kind ~seed =
  let seed64 = Int64.of_int seed in
  match kind with Corpus -> Inputs.corpus ~seed:seed64 | Scale -> Inputs.scale ()

(* Specs sharing a budget go through one [Driver.check] call. *)
let budget_groups specs =
  let keys =
    List.sort_uniq compare (List.map (fun s -> Inputs.limits_to_string s.Inputs.limits) specs)
  in
  List.map
    (fun k -> List.filter (fun s -> Inputs.limits_to_string s.Inputs.limits = k) specs)
    keys

let check ~jobs specs =
  match specs with
  | [] -> []
  | s0 :: _ ->
      let opts =
        {
          Driver.default_options with
          Driver.jobs = Some jobs;
          json = true;
          limits = s0.Inputs.limits;
          reorder;
        }
      in
      [ Driver.check opts (List.map (fun s -> (s.Inputs.key, s.Inputs.source)) specs) ]

let batch ~jobs specs = List.concat_map (check ~jobs) (budget_groups specs)

let setup kind ~seed ~refs_dir =
  let specs = generate kind ~seed in
  let digest = Inputs.spec_digest specs in
  let refs =
    Verdict.load_refs (Verdict.refs_path ~dir:refs_dir ~workload:(kind_name kind) ~seed)
  in
  (* warm-up: the pool's domains, the code paths, the allocator *)
  (match kind with
  | Corpus -> ignore (batch ~jobs:(nproc ()) (List.filteri (fun i _ -> i < 4 * nproc ()) specs))
  | Scale ->
      ignore (check ~jobs:1 (List.filter (fun s -> s.Inputs.family = "ring") specs)));
  { kind; specs; digest; refs }

(* ---- verification ------------------------------------------------------------------ *)

(* Judge every per-file verdict of one batch's outputs: against the
   frozen references, the manifest envelope and, for enumerable
   standard programs, explicit BFS.  Also checks each call's exit code
   against its files' verdicts. *)
let verify ctx tally outcomes =
  let refs = Verdict.check_digest tally ctx.refs ~digest:ctx.digest in
  let by_key = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_key s.Inputs.key s) ctx.specs;
  List.iter
    (fun (o : Driver.outcome) ->
      match Verdict.of_check_json o.Driver.out with
      | exception (Failure m | Json.Parse_error m) ->
          Verdict.mismatch tally "unparsable check output: %s" m
      | files ->
          let exits =
            List.map
              (fun (f : Verdict.file_verdict) ->
                let spec = Hashtbl.find by_key f.Verdict.file in
                Verdict.judge tally ?refs
                  ?expected:(Option.map Verdict.of_difftest spec.Inputs.expected)
                  ~key:f.Verdict.file f.Verdict.verdict;
                Option.iter
                  (fun n ->
                    Verdict.judge_bfs tally ~key:f.Verdict.file ~source:spec.Inputs.source
                      ~reported:n)
                  f.Verdict.reachable;
                f.Verdict.exit_code)
              files
          in
          let want = if List.mem 3 exits then 3 else if List.mem 1 exits then 1 else 0 in
          if o.Driver.code <> want then
            Verdict.mismatch tally "batch exit %d, its files' verdicts imply %d" o.Driver.code want)
    outcomes

(* Reference entries for [--write-refs]: the verdict of every input. *)
let reference_entries outcomes =
  List.concat_map
    (fun (o : Driver.outcome) ->
      List.map
        (fun (f : Verdict.file_verdict) -> (f.Verdict.file, f.Verdict.verdict))
        (Verdict.of_check_json o.Driver.out))
    outcomes

(* ---- untraced measurement ----------------------------------------------------------- *)

let outputs outcomes = String.concat "\000" (List.map (fun (o : Driver.outcome) -> o.Driver.out) outcomes)

(* corpus-batch alternates two rounds until the measuring time is used:
   the whole corpus as one batch at [jobs = nproc], which [specs_per_s]
   reads, and every spec on its own at [jobs = 1], the way
   [kpt check spec.unity] runs it, which the per-spec figures read:
   [verdict_ms_typical] is the median over specs and [verdict_ms_tail]
   the 90th percentile.

   Each figure takes the fastest of its repetitions (the fastest batch;
   each spec at its fastest round): on a shared host, interference only
   ever adds time, and the minimum sets a short burst of it aside. *)
let measure_corpus ctx tally ~seconds =
  let jobs = nproc () in
  let specs = Array.of_list ctx.specs in
  let n = Array.length specs in
  let per_spec = Array.make n [] in
  let first = ref None and singles = ref None and times = ref [] in
  let same what prev outs =
    match !prev with
    | None -> prev := Some outs
    | Some f ->
        if outputs f <> outputs outs then
          Verdict.mismatch tally "%s %d output differs from the first round's" what (List.length !times)
  in
  let t_end = Util.now_s () +. seconds in
  while !times = [] || Util.now_s () < t_end do
    let outs, dt = Util.timed (fun () -> batch ~jobs ctx.specs) in
    times := dt :: !times;
    same "batch" first outs;
    let outs =
      List.concat
        (List.init n (fun i ->
             let o, dt = Util.timed (fun () -> check ~jobs:1 [ specs.(i) ]) in
             per_spec.(i) <- dt :: per_spec.(i);
             o))
    in
    same "single-spec round" singles outs
  done;
  let times = List.rev !times in
  let rss = Util.peak_rss_mb () in
  let batch_outs = Option.get !first in
  verify ctx tally batch_outs;
  (* each spec checked alone must get the verdict it gets in the batch *)
  let in_batch = Hashtbl.create 1024 in
  List.iter (fun (k, v) -> Hashtbl.replace in_batch k v) (reference_entries batch_outs);
  List.iter
    (fun (k, v) ->
      if Hashtbl.find_opt in_batch k <> Some v then
        Verdict.mismatch tally "%s: checked alone %s, in the batch %s" k v
          (Option.value ~default:"-" (Hashtbl.find_opt in_batch k)))
    (reference_entries (Option.get !singles));
  let spec_ms = Array.to_list (Array.map (fun ts -> Util.minimum ts *. 1e3) per_spec) in
  Util.say "corpus-batch: %d specs x %d rounds (batch at jobs=%d, then each spec alone at jobs=1); \
            batch wall s: %s" n (List.length times) jobs
    (String.concat " " (List.map (Printf.sprintf "%.3f") times));
  ( 2 * List.length times * n,
    [
      ("specs_per_s", float_of_int n /. Util.minimum times);
      ("verdict_ms_typical", Util.median spec_ms);
      ("verdict_ms_tail", Util.quantile 0.9 spec_ms);
      ("peak_rss_mb", rss);
    ] )

(* Each instance at least once, then more repetitions (up to [reps]) of
   every instance that still fits the remaining time; an instance's time
   is its fastest repetition, as for corpus-batch. *)
let reps = 5

let measure_scale ctx tally ~seconds =
  let specs = Array.of_list ctx.specs in
  let n = Array.length specs in
  let samples = Array.make n [] and first = Array.make n None in
  let run i =
    let outs, dt = Util.timed (fun () -> check ~jobs:1 [ specs.(i) ]) in
    samples.(i) <- dt :: samples.(i);
    match first.(i) with
    | None -> first.(i) <- Some outs
    | Some f ->
        if outputs f <> outputs outs then
          Verdict.mismatch tally "%s: repeated output differs" specs.(i).Inputs.key
  in
  let t_end = Util.now_s () +. seconds in
  for i = 0 to n - 1 do
    run i
  done;
  let progress = ref true in
  while !progress do
    progress := false;
    for i = 0 to n - 1 do
      let left = t_end -. Util.now_s () in
      if List.length samples.(i) < reps && Util.median samples.(i) < left then begin
        run i;
        progress := true
      end
    done
  done;
  let rss = Util.peak_rss_mb () in
  verify ctx tally (List.concat_map Option.get (Array.to_list first));
  let fastest = Array.map Util.minimum samples in
  Array.iteri
    (fun i s ->
      Util.say "scale-check: %-18s fastest %9.2f ms, median %9.2f ms over %d run(s)" s.Inputs.key
        (fastest.(i) *. 1e3) (Util.median samples.(i) *. 1e3) (List.length samples.(i)))
    specs;
  let ms = Array.to_list (Array.map (fun m -> m *. 1e3) fastest) in
  ( Util.sum_int (Array.to_list (Array.map List.length samples)),
    [
      ("specs_per_s", float_of_int n /. Util.sum (Array.to_list fastest));
      ("verdict_ms_typical", Util.geomean ms);
      ("verdict_ms_tail", List.fold_left max 0.0 ms);
      ("peak_rss_mb", rss);
    ] )

let measure ctx tally ~seconds =
  match ctx.kind with
  | Corpus -> measure_corpus ctx tally ~seconds
  | Scale -> measure_scale ctx tally ~seconds

(* ---- traced run ------------------------------------------------------------------- *)

type pass = {
  results : Layers.spec_result list;
  trace : Trace.t;
}

let traced_pass ctx =
  let tr = Trace.create () in
  let results =
    List.mapi
      (fun i s -> Trace.span tr ~item:i "spec" (fun () -> Layers.check_spec tr ~item:i ~reorder s))
      ctx.specs
  in
  { results; trace = tr }

let sum_counters f results = List.fold_left (fun acc r -> Layers.merge acc (f r)) [] results

(* Root-context counters around an untraced [Driver.check] batch: what
   the pool merged for it. *)
let driver_counters ~jobs specs =
  Kpt_obs.Ctx.reset Kpt_obs.Ctx.root;
  let outs, dt = Util.timed (fun () -> batch ~jobs specs) in
  (outs, dt, Kpt_obs.Ctx.counters Kpt_obs.Ctx.root)
