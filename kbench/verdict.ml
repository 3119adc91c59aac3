(* Verdicts: what the benchmark checks every output against.

   A verdict is a short canonical string extracted from a command's
   output — for [check] the {!Kpt_analysis.Difftest.verdict} class,
   codes and exit code followed by the exact answers (reachable states;
   the KBP fixpoint's steps and solution states; the cycle's period),
   the codes for [lint], the outcome numbers for [stats], the solution
   count and iteration outcome for [solve].  It deliberately leaves out
   work counters and timings, which a faster engine may change without
   changing a single answer.

   Three independent sources judge them:
   - the frozen references under [kbench/refs/], written once from the
     seed code for the default and held-out seeds;
   - the live manifest envelope [Kpt_gen.Gen] computes while
     generating;
   - explicit-state BFS ([Kpt_runs.Reachability]) for every
     standard-program instance small enough to enumerate. *)

open Kpt_analysis

let of_difftest (v : Difftest.verdict) =
  Printf.sprintf "%s;%s;%s;%d"
    (if v.Difftest.failed then "fail" else "ok")
    v.Difftest.klass
    (String.concat "," v.Difftest.codes)
    v.Difftest.exit_code

let crash = "crash"

(* The exact answers a check reports beside its class, in this order.
   They are results, not work counters: the fixpoint an engine reaches,
   however fast, must give the same numbers. *)
let answer_keys = [ "reachable"; "kbp_fixpoint_steps"; "solution_states"; "kbp_cycle_period" ]

let answers_of_outcome = function
  | Stats.Standard { reachable; _ } -> [ ("reachable", reachable) ]
  | Stats.Kbp_converged { steps; states } ->
      [ ("kbp_fixpoint_steps", steps); ("solution_states", states) ]
  | Stats.Kbp_cycle { period } -> [ ("kbp_cycle_period", period) ]

(* A check verdict with its answers: "class;codes;exit|key=n,...". *)
let with_answers verdict answers =
  verdict ^ "|" ^ String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) answers)

(* The part of a verdict the manifest envelope predicts: the class,
   codes and exit code, without the answers. *)
let envelope_part v = match String.index_opt v '|' with Some i -> String.sub v 0 i | None -> v

(* ---- parsing command outputs ----------------------------------------------------- *)

let member_exn k j =
  match Json.member k j with Some v -> v | None -> failwith ("missing field " ^ k)

let str_exn k j =
  match Option.bind (Json.member k j) Json.to_str with
  | Some s -> s
  | None -> failwith ("missing string " ^ k)

let list_exn k j =
  match Option.bind (Json.member k j) Json.to_list with
  | Some l -> l
  | None -> failwith ("missing list " ^ k)

let int_opt k j = Option.bind (Json.member k j) Json.to_int

let codes_of report =
  list_exn "diagnostics" report
  |> List.map (str_exn "code")
  |> List.sort_uniq compare

type file_verdict = {
  file : string;
  verdict : string;  (** class, codes and exit code, then the answers *)
  exit_code : int;
  reachable : int option;  (** the reported count, for the BFS cross-check *)
}

(* Per-file verdicts of a [check --json] output, with
   {!Difftest.verdict_of_report}'s class and exit-code rules. *)
let of_check_json out =
  let j = Json.of_string out in
  List.map
    (fun r ->
      let codes = codes_of r in
      let failed = str_exn "status" r = "fail" in
      let stats = member_exn "stats" r in
      let klass, reachable =
        match stats with
        | Json.Null -> ((if List.mem "KPT041" codes then "exhausted" else "error"), None)
        | s -> (
            match int_opt "reachable" s with
            | Some n -> ("standard", Some n)
            | None ->
                if Json.member "kbp_fixpoint_steps" s <> None then ("kbp_converged", None)
                else if Json.member "kbp_cycle_period" s <> None then ("kbp_cycle", None)
                else ("error", None))
      in
      let exit_code = if List.mem "KPT041" codes then 3 else if failed then 1 else 0 in
      let answers =
        match stats with
        | Json.Null -> []
        | s -> List.filter_map (fun k -> Option.map (fun n -> (k, n)) (int_opt k s)) answer_keys
      in
      {
        file = str_exn "file" r;
        verdict = with_answers (of_difftest { Difftest.failed; codes; klass; exit_code }) answers;
        exit_code;
        reachable;
      })
    (list_exn "reports" j)

let of_lint_json ~code out =
  let j = Json.of_string out in
  let codes = List.concat_map codes_of (list_exn "reports" j) |> List.sort_uniq compare in
  Printf.sprintf "exit=%d;codes=%s" code (String.concat "," codes)

let of_stats_json ~code out =
  if code <> 0 then Printf.sprintf "exit=%d" code
  else
    let j = Json.of_string out in
    let num k = match int_opt k j with Some v -> Printf.sprintf ";%s=%d" k v | None -> "" in
    Printf.sprintf "exit=0;kind=%s%s%s%s%s" (str_exn "kind" j) (num "reachable")
      (num "kbp_fixpoint_steps") (num "solution_states") (num "kbp_cycle_period")

(* The summary lines of [solve-file] text output, numbers kept, the
   printed predicates dropped. *)
let of_solve_text ~code out =
  let keep line =
    let starts p = String.length line >= String.length p && String.sub line 0 (String.length p) = p in
    if starts "No solution" then Some "none"
    else if starts "Solution enumeration: budget exhausted" then Some "enum-exhausted"
    else if starts "Chaotic iteration converged" then
      Some (List.nth (String.split_on_char ' ' line) 4 |> fun n -> "converged:" ^ n)
    else if starts "Chaotic iteration diverges" then Some "diverges"
    else if starts "Chaotic iteration: budget exhausted" then Some "iterate-exhausted"
    else
      match String.index_opt line ' ' with
      | Some i when String.sub line i (String.length line - i) = " solution(s):" ->
          Some ("solutions:" ^ String.sub line 0 i)
      | _ -> None
  in
  let parts = List.filter_map keep (String.split_on_char '\n' out) in
  Printf.sprintf "exit=%d;%s" code (String.concat ";" parts)

(* The verdict of one served (or in-process) answer to a request. *)
let of_outcome cmd (o : Driver.outcome) =
  match (cmd : Kpt_serve.Protocol.cmd) with
  | Check -> (
      match of_check_json o.Driver.out with
      | [ f ] -> f.verdict
      | _ -> failwith "check: expected exactly one report")
  | Lint -> of_lint_json ~code:o.Driver.code o.Driver.out
  | Stats -> of_stats_json ~code:o.Driver.code o.Driver.out
  | Solve -> of_solve_text ~code:o.Driver.code o.Driver.out
  | Slice | Ping | Shutdown -> Printf.sprintf "exit=%d" o.Driver.code

let of_outcome_safe cmd o =
  match of_outcome cmd o with v -> v | exception (Failure m | Json.Parse_error m) -> "unparsable:" ^ m

(* ---- explicit-state cross-check -------------------------------------------------- *)

(* State-space cap for the BFS oracle: finding the initial states
   enumerates the whole space. *)
let bfs_cap = 1 lsl 18

(* [Some ok] when the source elaborates to a standard program whose
   state space is under the cap: BFS must find exactly as many
   reachable states as reported; [None] when the check does not apply. *)
let bfs_agrees ~source ~reported =
  let eng = Kpt_predicate.Engine.create () in
  Kpt_predicate.Engine.use eng (fun () ->
      match Kpt_syntax.Elaborate.program (Kpt_syntax.Parser.program_of_string source) with
      | exception _ -> None
      | sp, kbp
        when Kpt_core.Kbp.is_standard kbp
             && Kpt_predicate.Bigcount.compare (Kpt_predicate.Space.state_count_exact sp)
                  (Kpt_predicate.Bigcount.of_int bfs_cap)
                <= 0 ->
          let prog = Kpt_core.Kbp.to_standard_program kbp in
          Some (List.length (Kpt_runs.Reachability.reachable prog) = reported)
      | _ -> None)

(* ---- frozen references ------------------------------------------------------------ *)

(* One file per (workload, seed): a header line with the input digest,
   then one [key<TAB>verdict] line per input.  Written by
   [main.exe --write-refs]. *)
type refs = { digest : string; table : (string, string) Hashtbl.t }

let refs_path ~dir ~workload ~seed = Filename.concat dir (Printf.sprintf "%s-seed%d.tsv" workload seed)

let load_refs path =
  if not (Sys.file_exists path) then None
  else
    let table = Hashtbl.create 1024 in
    let digest = ref "" in
    List.iter
      (fun line ->
        match String.index_opt line '\t' with
        | Some i ->
            let k = String.sub line 0 i and v = String.sub line (i + 1) (String.length line - i - 1) in
            if k = "#inputs" then digest := v else Hashtbl.replace table k v
        | None -> ())
      (String.split_on_char '\n' (Util.read_file path));
    Some { digest = !digest; table }

let save_refs path ~digest entries =
  let b = Buffer.create 65536 in
  Buffer.add_string b (Printf.sprintf "#inputs\t%s\n" digest);
  List.iter (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s\t%s\n" k v)) entries;
  Util.write_file path (Buffer.contents b)

(* ---- mismatch accounting ------------------------------------------------------------ *)

type tally = {
  mutable checked : int;
  mutable mismatches : int;
  mutable bfs_checked : int;
  mutable notes : string list;  (** the first few mismatches, for the log *)
}

let tally () = { checked = 0; mismatches = 0; bfs_checked = 0; notes = [] }

let mismatch t fmt =
  Printf.ksprintf
    (fun s ->
      t.mismatches <- t.mismatches + 1;
      if List.length t.notes < 8 then t.notes <- s :: t.notes)
    fmt

(* Judge one verdict against the frozen reference (when this seed has
   one) and the live expectation (when the input has one; it predicts
   the class, codes and exit code, not the answers). *)
let judge t ?refs ?expected ~key got =
  t.checked <- t.checked + 1;
  (match refs with
  | Some r -> (
      match Hashtbl.find_opt r.table key with
      | Some want when want = got -> ()
      | Some want -> mismatch t "%s: got %s, frozen reference %s" key got want
      | None -> mismatch t "%s: no frozen reference entry" key)
  | None -> ());
  match expected with
  | Some want when want <> envelope_part got ->
      mismatch t "%s: got %s, manifest envelope %s" key got want
  | _ -> ()

let judge_bfs t ~key ~source ~reported =
  match bfs_agrees ~source ~reported with
  | Some true -> t.bfs_checked <- t.bfs_checked + 1
  | Some false ->
      t.bfs_checked <- t.bfs_checked + 1;
      mismatch t "%s: BFS reachable count differs from the reported %d" key reported
  | None -> ()

(* The frozen references apply only when they were written for exactly
   these inputs; a generator change shows as one mismatch per run. *)
let check_digest t refs ~digest =
  match refs with
  | Some r when r.digest <> digest ->
      mismatch t "inputs digest %s differs from the frozen references' %s" digest r.digest;
      None
  | r -> r
