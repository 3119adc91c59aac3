open Kpt_syntax
open Kpt_predicate
open Kpt_unity
open Kpt_core
module S = Rw.S
module D = Diagnostic

(* ---- declaration environment --------------------------------------------- *)

type env = {
  file : string option;
  vars : S.t;  (* declared base names (scalars and arrays) *)
  var_ty : (string, Ast.ty) Hashtbl.t;
  var_span : (string, Loc.span) Hashtbl.t;
  enums : (string, int) Hashtbl.t;  (* enum literal → value index *)
  procs : (string, S.t * Loc.span) Hashtbl.t;
}

let env_of_program ?file (p : Ast.program) =
  let var_ty = Hashtbl.create 16 and var_span = Hashtbl.create 16 in
  let enums = Hashtbl.create 16 in
  let vars =
    List.fold_left
      (fun acc (names, ty) ->
        (match ty with
        | Ast.Tenum vs | Ast.Tarray (Ast.Tenum vs, _) ->
            List.iteri (fun i v -> Hashtbl.replace enums v i) vs
        | _ -> ());
        List.fold_left
          (fun acc (name, span) ->
            Hashtbl.replace var_ty name ty;
            if not (Hashtbl.mem var_span name) then Hashtbl.replace var_span name span;
            S.add name acc)
          acc names)
      S.empty p.Ast.p_vars
  in
  let procs = Hashtbl.create 8 in
  List.iter
    (fun (name, pvars, span) ->
      Hashtbl.replace procs name (S.of_list pvars, span))
    p.Ast.p_processes;
  { file; vars; var_ty; var_span; enums; procs }

let stmt_label i (s : Ast.stmt) =
  match s.Ast.s_name with Some n -> n | None -> Printf.sprintf "statement %d" (i + 1)

let names set = String.concat ", " (S.elements set)

(* ---- constant folding ----------------------------------------------------- *)

type const = CB of bool | CN of int

let rec fold env (e : Ast.expr) =
  let bool2 a b op =
    match (fold env a, fold env b) with
    | Some (CB x), Some (CB y) -> Some (CB (op x y))
    | _ -> None
  in
  let num2 a b op =
    match (fold env a, fold env b) with
    | Some (CN x), Some (CN y) -> Some (op x y)
    | _ -> None
  in
  match e.Ast.expr with
  | Ast.Etrue -> Some (CB true)
  | Ast.Efalse -> Some (CB false)
  | Ast.Enum n -> Some (CN n)
  | Ast.Eident name ->
      if S.mem name env.vars then None
      else Option.map (fun k -> CN k) (Hashtbl.find_opt env.enums name)
  | Ast.Enot a -> (
      match fold env a with Some (CB b) -> Some (CB (not b)) | _ -> None)
  | Ast.Eand (a, b) -> (
      match (fold env a, fold env b) with
      | Some (CB false), _ | _, Some (CB false) -> Some (CB false)
      | Some (CB true), Some (CB true) -> Some (CB true)
      | _ -> None)
  | Ast.Eor (a, b) -> (
      match (fold env a, fold env b) with
      | Some (CB true), _ | _, Some (CB true) -> Some (CB true)
      | Some (CB false), Some (CB false) -> Some (CB false)
      | _ -> None)
  | Ast.Eimp (a, b) -> (
      match (fold env a, fold env b) with
      | Some (CB false), _ | _, Some (CB true) -> Some (CB true)
      | Some (CB true), Some (CB false) -> Some (CB false)
      | _ -> None)
  | Ast.Eiff (a, b) -> bool2 a b ( = )
  | Ast.Eeq (a, b) -> (
      match (fold env a, fold env b) with
      | Some (CN x), Some (CN y) -> Some (CB (x = y))
      | Some (CB x), Some (CB y) -> Some (CB (x = y))
      | _ -> None)
  | Ast.Ene (a, b) -> (
      match (fold env a, fold env b) with
      | Some (CN x), Some (CN y) -> Some (CB (x <> y))
      | Some (CB x), Some (CB y) -> Some (CB (x <> y))
      | _ -> None)
  | Ast.Elt (a, b) -> num2 a b (fun x y -> CB (x < y))
  | Ast.Ele (a, b) -> num2 a b (fun x y -> CB (x <= y))
  | Ast.Egt (a, b) -> num2 a b (fun x y -> CB (x > y))
  | Ast.Ege (a, b) -> num2 a b (fun x y -> CB (x >= y))
  | Ast.Eadd (a, b) -> num2 a b (fun x y -> CN (x + y))
  | Ast.Esub (a, b) -> num2 a b (fun x y -> CN (max 0 (x - y)))  (* saturating *)
  | Ast.Eindex _ | Ast.Eknow _ | Ast.Egroup _ -> None

(* ---- pass: knowledge locality + interference (eq. 13) --------------------- *)

(* A statement whose guard names exactly one process in its knowledge
   operators is attributed to that process: eq. 13 makes [K_i p] a
   predicate on [vars_i], so everything the guard reads {e outside} the
   operators, and everything the statement writes, must be local to it. *)
let knowledge_pass env (stmts : (int * Ast.stmt * Rw.stmt_rw) list) =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let attributed = ref [] in
  List.iter
    (fun (i, s, rw) ->
      let label = stmt_label i s in
      List.iter
        (fun (k : Rw.kop) ->
          List.iter
            (fun agent ->
              if not (Hashtbl.mem env.procs agent) then
                emit
                  (D.error ?file:env.file ~span:k.Rw.kspan ~code:"KPT013"
                     (Printf.sprintf
                        "knowledge operator in %s refers to undeclared process %s" label
                        agent)))
            k.Rw.agents)
        rw.Rw.kops;
      let agents =
        List.concat_map (fun (k : Rw.kop) -> k.Rw.agents) rw.Rw.kops
        |> List.filter (Hashtbl.mem env.procs)
        |> List.sort_uniq compare
      in
      match agents with
      | [ p ] ->
          let pvars, _ = Hashtbl.find env.procs p in
          let guard_span =
            match s.Ast.s_guard with Some g -> Some g.Ast.espan | None -> None
          in
          let plain = S.inter rw.Rw.guard_plain env.vars in
          let non_local = S.diff plain pvars in
          if not (S.is_empty non_local) then
            emit
              (D.error ?file:env.file ?span:guard_span ~code:"KPT012"
                 ~hint:
                   (Printf.sprintf
                      "move the test under K[%s], or extend %s's variable set" p p)
                 (Printf.sprintf
                    "guard of %s mixes K[%s] with reads of %s, which %s cannot \
                     observe (eq. 13 makes knowledge local to a process's variables)"
                    label p (names non_local) p));
          let foreign = S.diff (S.inter rw.Rw.writes env.vars) pvars in
          if not (S.is_empty foreign) then
            emit
              (D.warning ?file:env.file ~span:s.Ast.s_span ~code:"KPT030"
                 (Printf.sprintf
                    "%s acts on %s's knowledge but writes %s, which %s cannot access"
                    label p (names foreign) p));
          attributed := (p, S.inter rw.Rw.writes env.vars, i, s) :: !attributed
      | _ -> ())
    stmts;
  (* interference: the same variable written on behalf of two processes *)
  let att = List.rev !attributed in
  List.iteri
    (fun n (p, writes, _, _) ->
      List.iteri
        (fun m (q, writes', i', s') ->
          if m > n && p <> q then begin
            let shared = S.inter writes writes' in
            if not (S.is_empty shared) then
              emit
                (D.warning ?file:env.file ~span:s'.Ast.s_span ~code:"KPT031"
                   (Printf.sprintf
                      "interference: %s is written on behalf of both %s and %s"
                      (names shared) p q));
            ignore i'
          end)
        att)
    att;
  List.rev !ds

(* ---- pass: K-polarity (eq. 25, Figures 1-2) ------------------------------- *)

let polarity_pass env (stmts : (int * Ast.stmt * Rw.stmt_rw) list) =
  let ds = ref [] in
  List.iter
    (fun (i, s, rw) ->
      let label = stmt_label i s in
      List.iter
        (fun (k : Rw.kop) ->
          let who = String.concat "," k.Rw.agents in
          if k.Rw.negative_position then
            ds :=
              D.warning ?file:env.file ~span:k.Rw.kspan ~code:"KPT011"
                ~hint:"rephrase the guard so knowledge appears positively"
                (Printf.sprintf
                   "knowledge operator K[%s] in negative position in the guard of \
                    %s: Ĝ need not be monotonic, so the KBP may be ill-posed \
                    (eq. 25)"
                   who label)
              :: !ds;
          let negs = S.inter k.Rw.negated_reads env.vars in
          if not (S.is_empty negs) then
            ds :=
              D.warning ?file:env.file ~span:k.Rw.kspan ~code:"KPT010"
                ~hint:
                  "knowledge of negated facts can be lost along a run; consider \
                   a positively-phrased, stable fact"
                (Printf.sprintf
                   "K[%s] is applied to a negated fact (%s occurs under negation): \
                    possibly ill-posed KBP — SI = strongest x : [ŜP.x ⇒ x] may \
                    have no solution or lose monotonicity in init (Figures 1-2)"
                   who (names negs))
              :: !ds)
        rw.Rw.kops)
    stmts;
  List.rev !ds

(* ---- pass: vacuity / hygiene ---------------------------------------------- *)

let is_identity_pair (t, (e : Ast.expr)) =
  match (t, e.Ast.expr) with
  | Ast.Tvar v, Ast.Eident v' -> v = v'
  | Ast.Tindex (a, i), Ast.Eindex (a', i') -> a = a' && Ast.equal_expr i i'
  | _ -> false

let hygiene_pass env (p : Ast.program) (stmts : (int * Ast.stmt * Rw.stmt_rw) list) =
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  (* variable usage *)
  let init_reads = Rw.reads ~vars:env.vars p.Ast.p_init in
  let reads, writes =
    List.fold_left
      (fun (r, w) (_, _, rw) -> (S.union r (Rw.all_reads rw), S.union w rw.Rw.writes))
      (init_reads, S.empty) stmts
  in
  S.iter
    (fun v ->
      let span = Hashtbl.find_opt env.var_span v in
      if (not (S.mem v reads)) && not (S.mem v writes) then
        emit
          (D.warning ?file:env.file ?span ~code:"KPT020"
             ~hint:"delete the declaration"
             (Printf.sprintf "variable %s is never used" v))
      else if S.mem v writes && not (S.mem v reads) then
        emit
          (D.info ?file:env.file ?span ~code:"KPT021"
             (Printf.sprintf
                "variable %s is write-only: it is assigned but never read or \
                 constrained by init"
                v)))
    env.vars;
  (* per-statement checks *)
  List.iter
    (fun (i, (s : Ast.stmt), _) ->
      let label = stmt_label i s in
      if
        List.length s.Ast.s_targets = List.length s.Ast.s_exprs
        && List.for_all is_identity_pair
             (List.combine s.Ast.s_targets s.Ast.s_exprs)
      then
        emit
          (D.warning ?file:env.file ~span:s.Ast.s_span ~code:"KPT022"
             (Printf.sprintf "%s assigns every target to itself (a no-op)" label));
      match s.Ast.s_guard with
      | None -> ()
      | Some g -> (
          match fold env g with
          | Some (CB false) ->
              emit
                (D.warning ?file:env.file ~span:g.Ast.espan ~code:"KPT024"
                   (Printf.sprintf
                      "guard of %s is constantly false: the statement can never be \
                       selected"
                      label))
          | Some (CB true) ->
              emit
                (D.info ?file:env.file ~span:g.Ast.espan ~code:"KPT025"
                   (Printf.sprintf "guard of %s is trivially true" label))
          | _ -> ()))
    stmts;
  (* duplicate statements *)
  List.iteri
    (fun n (i, s, _) ->
      List.iteri
        (fun m (j, s', _) ->
          if m > n && Ast.equal_stmt s s' then
            emit
              (D.warning ?file:env.file ~span:s'.Ast.s_span ~code:"KPT023"
                 (Printf.sprintf "%s duplicates %s (same targets, right-hand \
                                  sides and guard)"
                    (stmt_label j s') (stmt_label i s))))
        stmts)
    stmts;
  List.rev !ds

(* ---- pass: nat(k) range --------------------------------------------------- *)

let nat_bound env (e : Ast.expr) =
  let bound = function
    | Ast.Tnat k -> Some k
    | Ast.Tarray (Ast.Tnat k, _) -> Some k
    | _ -> None
  in
  match e.Ast.expr with
  | Ast.Eident v | Ast.Eindex (v, _) ->
      Option.bind (Hashtbl.find_opt env.var_ty v) (fun ty ->
          Option.map (fun k -> (v, k)) (bound ty))
  | _ -> None

let range_pass env (p : Ast.program) (stmts : (int * Ast.stmt * Rw.stmt_rw) list) =
  let ds = ref [] in
  let check span cmp a b =
    (* [cmp]: the comparison's outcome as [var OP const]; mirror if the
       constant is on the left *)
    let report v k n verdict =
      ds :=
        D.warning ?file:env.file ~span ~code:"KPT026"
          (Printf.sprintf
             "%s : nat(%d) is compared with %d, which is outside its range — the \
              comparison is always %b"
             v k n verdict)
        :: !ds
    in
    match (nat_bound env a, fold env b) with
    | Some (v, k), Some (CN n) when n > k -> report v k n (fst cmp)
    | _ -> (
        match (fold env a, nat_bound env b) with
        | Some (CN n), Some (v, k) when n > k -> report v k n (snd cmp)
        | _ -> ())
  in
  let rec walk (e : Ast.expr) =
    let span = e.Ast.espan in
    match e.Ast.expr with
    | Ast.Etrue | Ast.Efalse | Ast.Enum _ | Ast.Eident _ -> ()
    | Ast.Eindex (_, i) -> walk i
    | Ast.Enot a -> walk a
    | Ast.Eand (a, b) | Ast.Eor (a, b) | Ast.Eimp (a, b) | Ast.Eiff (a, b)
    | Ast.Eadd (a, b) | Ast.Esub (a, b) ->
        walk a;
        walk b
    (* (outcome if var OP const, outcome if const OP var) for out-of-range const *)
    | Ast.Eeq (a, b) -> check span (false, false) a b; walk a; walk b
    | Ast.Ene (a, b) -> check span (true, true) a b; walk a; walk b
    | Ast.Elt (a, b) -> check span (true, false) a b; walk a; walk b
    | Ast.Ele (a, b) -> check span (true, false) a b; walk a; walk b
    | Ast.Egt (a, b) -> check span (false, true) a b; walk a; walk b
    | Ast.Ege (a, b) -> check span (false, true) a b; walk a; walk b
    | Ast.Eknow (_, a) | Ast.Egroup (_, _, a) -> walk a
  in
  walk p.Ast.p_init;
  List.iter
    (fun (_, (s : Ast.stmt), _) ->
      List.iter walk s.Ast.s_exprs;
      List.iter (function Ast.Tindex (_, i) -> walk i | Ast.Tvar _ -> ()) s.Ast.s_targets;
      Option.iter walk s.Ast.s_guard)
    stmts;
  List.rev !ds

(* ---- pass: process declarations ------------------------------------------- *)

let process_pass env (p : Ast.program) =
  let ds = ref [] in
  List.iter
    (fun (name, pvars, span) ->
      List.iter
        (fun v ->
          if not (S.mem v env.vars) then
            ds :=
              D.error ?file:env.file ~span ~code:"KPT014"
                (Printf.sprintf "process %s lists undeclared variable %s" name v)
              :: !ds)
        pvars)
    p.Ast.p_processes;
  List.rev !ds

(* ---- entry points ---------------------------------------------------------- *)

let lint_ast ?file (p : Ast.program) =
  let env = env_of_program ?file p in
  let stmts =
    List.mapi (fun i s -> (i, s, Rw.of_stmt ~vars:env.vars s)) p.Ast.p_stmts
  in
  List.sort D.compare
    (process_pass env p @ knowledge_pass env stmts @ polarity_pass env stmts
    @ hygiene_pass env p stmts @ range_pass env p stmts)

let lint_source ?file src =
  match Parser.program_of_string src with
  | ast -> (
      let ds = lint_ast ?file ast in
      match Elaborate.program ast with
      | _ -> ds
      | exception (Elaborate.Elab_error _ as e) ->
          List.sort D.compare (Option.get (D.of_syntax_exn ?file e) :: ds)
      | exception Invalid_argument msg ->
          List.sort D.compare (D.error ?file ~code:"KPT003" msg :: ds))
  | exception ((Token.Lex_error _ | Parser.Parse_error _) as e) ->
      [ Option.get (D.of_syntax_exn ?file e) ]

(* The semantic tier rides on top of [lint_source]: re-elaborate the
   file and hand the loaded spec to {!Semantic.analyse}.  An
   unsatisfiable initial condition is the one semantic finding that
   cannot survive elaboration (both program constructors reject it), so
   it is recovered here from the elaboration error's message and
   upgraded from the generic KPT003 to its own KPT103 code. *)
let unsat_init_msg = "unsatisfiable initial condition"

let contains_unsat_init msg =
  let n = String.length unsat_init_msg and l = String.length msg in
  let rec go i = i + n <= l && (String.sub msg i n = unsat_init_msg || go (i + 1)) in
  go 0

let lint_source_semantic ?budget ~file src =
  let ds = lint_source ~file src in
  match Elaborate.program (Parser.program_of_string src) with
  | sp, kbp -> List.sort D.compare (ds @ Semantic.analyse ~file ?budget (sp, kbp))
  | exception Elaborate.Elab_error (span, msg) when contains_unsat_init msg ->
      let ds =
        List.filter
          (fun (d : D.t) -> not (d.D.code = "KPT003" && contains_unsat_init d.D.message))
          ds
      in
      List.sort D.compare
        (D.error ~file ?span ~code:"KPT103"
           ~hint:"no state satisfies init: the program has no runs at all"
           (Printf.sprintf "%s (eq. 5: SI = sst.init is the empty predicate)" msg)
        :: ds)
  | exception (Token.Lex_error _ | Parser.Parse_error _ | Elaborate.Elab_error _)
  | exception Invalid_argument _ ->
      (* already reported among [ds] by [lint_source] *)
      ds

(* ---- JSON rendering (the [kpt lint --json] shape) -------------------------- *)

let json_document reports =
  let counts ds =
    let n sev = Json.Int (List.length (List.filter (fun (d : D.t) -> d.D.severity = sev) ds)) in
    [ ("errors", n D.Error); ("warnings", n D.Warning); ("infos", n D.Info) ]
  in
  let diagnostic (d : D.t) =
    Json.Obj
      [
        ("code", Json.String d.D.code);
        ("severity", Json.String (D.severity_label d.D.severity));
        ("message", Json.String d.D.message);
      ]
  in
  let report (file, ds, extra) =
    Json.Obj
      ([
         ("file", Json.String file);
         ("status", Json.String (if List.exists D.is_error ds then "fail" else "ok"));
         ("findings", Json.Obj (counts ds));
         ("diagnostics", Json.List (List.map diagnostic ds));
       ]
      @ extra)
  in
  Json.Obj
    ((("files", Json.Int (List.length reports))
     :: counts (List.concat_map (fun (_, ds, _) -> ds) reports))
    @ [ ("reports", Json.List (List.map report reports)) ])

let render_json ppf reports =
  Format.pp_print_string ppf
    (Json.pretty (json_document (List.map (fun (file, ds) -> (file, ds, [])) reports)))

(* The file-set driver behind [kpt lint].  Rendering and exit policy are
   deliberately decoupled: [--quiet] silences every line of output
   (diagnostics, summaries, the "no findings" note) but the exit code is
   computed from the findings alone — errors always fail, warnings fail
   only under [--warn-error] — so scripts can rely on the code while
   discarding the text.  Lives here (not in bin/) so the flag matrix is
   unit-testable. *)
let run_sources ?jobs ?(semantic = false) ?budget ?(json = false)
    ?(warn_error = false) ?(quiet = false) ppf sources =
  (* findings are computed (possibly on worker domains — [jobs] defaults
     to [Kpt_par.recommended_jobs]) before any rendering, which happens
     here, in input order: output is independent of the pool size *)
  let task (file, src) =
    if semantic then lint_source_semantic ?budget ~file src
    else lint_source ~file src
  in
  let per_file = Kpt_par.map ?jobs task sources in
  if json && not quiet then
    render_json ppf (List.map2 (fun (file, _) ds -> (file, ds)) sources per_file);
  let all =
    List.concat
      (List.map2
         (fun (_, src) ds ->
           if (not quiet) && not json then
             List.iter
               (fun d -> Format.fprintf ppf "@[<v>%a@]@." (D.pp_excerpt ~src) d)
               ds;
           ds)
         sources per_file)
  in
  if (not quiet) && not json then begin
    match (all, sources) with
    | [], [ (p, _) ] -> Format.fprintf ppf "%s: no findings@." p
    | [], _ -> Format.fprintf ppf "%d files: no findings@." (List.length sources)
    | ds, _ -> Format.fprintf ppf "%s@." (D.summary ds)
  end;
  D.exit_code ~warn_error all

(* ---- semantic granularity: in-memory programs and KBPs --------------------- *)

module V = Rw.V

type spol = SPos | SNeg | SBoth

let sflip = function SPos -> SNeg | SNeg -> SPos | SBoth -> SBoth

let of_vars vs = List.fold_left (fun acc v -> V.add (Space.idx v) acc) V.empty vs

let vnames sp set =
  String.concat ", "
    (List.map (fun i -> Space.name (Rw.var_of_idx sp i)) (V.elements set))

(* variable occurrences at negative (or mixed) polarity in an expression *)
let expr_negated_vars e =
  let acc = ref V.empty in
  let grab e = acc := V.union !acc (of_vars (Expr.vars_of e)) in
  let rec go pol (e : Expr.t) =
    match e with
    | Expr.Cbool _ | Expr.Cint _ -> ()
    | Expr.Var _ -> if pol <> SPos then grab e
    | Expr.Not a -> go (sflip pol) a
    | Expr.And (a, b) | Expr.Or (a, b) ->
        go pol a;
        go pol b
    | Expr.Imp (a, b) ->
        go (sflip pol) a;
        go pol b
    | Expr.Iff (a, b) ->
        go SBoth a;
        go SBoth b
    | Expr.Ite (c, t, f) ->
        go SBoth c;
        go pol t;
        go pol f
    | Expr.Eq (a, b) | Expr.Lt (a, b) | Expr.Le (a, b)
    | Expr.Add (a, b) | Expr.Subsat (a, b) ->
        (* a comparison's variables occur at the comparison's polarity *)
        if pol <> SPos then begin
          grab a;
          grab b
        end
  in
  go SPos e;
  !acc

(* knowledge operators of a Kform guard, with position polarity and the
   negated reads of their bodies — the semantic mirror of {!Rw.kop} *)
type skop = {
  sagents : string list;
  snegated : V.t;
  sneg_position : bool;
}

let kform_ops guard =
  let ops = ref [] in
  let rec body_negs pol f acc =
    match f with
    | Kform.Base e ->
        if pol = SPos then V.union acc (expr_negated_vars e)
        else V.union acc (of_vars (Expr.vars_of e))
    | Kform.Knot f -> body_negs (sflip pol) f acc
    | Kform.Kand (a, b) | Kform.Kor (a, b) ->
        body_negs pol b (body_negs pol a acc)
    | Kform.Kimp (a, b) -> body_negs pol b (body_negs (sflip pol) a acc)
    | Kform.K (_, f) | Kform.Ek (_, f) | Kform.Ck (_, f) | Kform.Dk (_, f) ->
        (* nested operators get their own entry via [go] *)
        body_negs pol f acc
  in
  let rec go pol f =
    match f with
    | Kform.Base _ -> ()
    | Kform.Knot f -> go (sflip pol) f
    | Kform.Kand (a, b) | Kform.Kor (a, b) ->
        go pol a;
        go pol b
    | Kform.Kimp (a, b) ->
        go (sflip pol) a;
        go pol b
    | Kform.K (p, body) -> op pol [ p ] body
    | Kform.Ek (ps, body) | Kform.Ck (ps, body) | Kform.Dk (ps, body) ->
        op pol ps body
  and op pol agents body =
    ops :=
      {
        sagents = agents;
        snegated = body_negs SPos body V.empty;
        sneg_position = pol <> SPos;
      }
      :: !ops;
    go SPos body
  in
  go SPos guard;
  List.rev !ops

(* reads of the guard outside any knowledge operator *)
let rec kform_plain_reads = function
  | Kform.Base e -> of_vars (Expr.vars_of e)
  | Kform.Knot f -> kform_plain_reads f
  | Kform.Kand (a, b) | Kform.Kor (a, b) | Kform.Kimp (a, b) ->
      V.union (kform_plain_reads a) (kform_plain_reads b)
  | Kform.K _ | Kform.Ek _ | Kform.Ck _ | Kform.Dk _ -> V.empty

let rec kform_all_reads = function
  | Kform.Base e -> of_vars (Expr.vars_of e)
  | Kform.Knot f -> kform_all_reads f
  | Kform.Kand (a, b) | Kform.Kor (a, b) | Kform.Kimp (a, b) ->
      V.union (kform_all_reads a) (kform_all_reads b)
  | Kform.K (_, f) | Kform.Ek (_, f) | Kform.Ck (_, f) | Kform.Dk (_, f) ->
      kform_all_reads f

let init_vars sp init =
  Rw.vars_of_support sp (Bdd.support (Space.manager sp) init)

let usage_diags ?file sp ~init ~reads ~writes =
  let iv = init_vars sp init in
  let ds = ref [] in
  List.iter
    (fun v ->
      let i = Space.idx v in
      let read = V.mem i reads || V.mem i iv in
      let written = V.mem i writes in
      if (not read) && not written then
        ds :=
          D.warning ?file ~code:"KPT020"
            (Printf.sprintf "variable %s is never used" (Space.name v))
          :: !ds
      else if written && not read then
        ds :=
          D.info ?file ~code:"KPT021"
            (Printf.sprintf
               "variable %s is write-only: it is assigned but never read or \
                constrained by init"
               (Space.name v))
          :: !ds)
    (Space.vars sp);
  List.rev !ds

let lint_program ?file prog =
  let sp = Program.space prog in
  let stmts = Program.statements prog in
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  List.iter
    (fun (s : Stmt.t) ->
      if
        s.Stmt.assigns <> []
        && List.for_all (fun (v, rhs) -> rhs = Expr.Var v) s.Stmt.assigns
      then
        emit
          (D.warning ?file ~code:"KPT022"
             (Printf.sprintf "%s assigns every target to itself (a no-op)"
                (Stmt.name s)));
      if Bdd.is_false (Stmt.guard_pred sp s) then
        emit
          (D.warning ?file ~code:"KPT024"
             (Printf.sprintf
                "guard of %s is unsatisfiable: the statement can never be selected"
                (Stmt.name s))))
    stmts;
  let key (s : Stmt.t) =
    (s.Stmt.guard, List.sort (fun (a, _) (b, _) -> compare a b) s.Stmt.assigns)
  in
  List.iteri
    (fun n s ->
      List.iteri
        (fun m s' ->
          if m > n && key s = key s' then
            emit
              (D.warning ?file ~code:"KPT023"
                 (Printf.sprintf
                    "%s duplicates %s (same guard and assignments)" (Stmt.name s')
                    (Stmt.name s))))
        stmts)
    stmts;
  let reads =
    List.fold_left (fun acc s -> V.union acc (Rw.stmt_reads sp s)) V.empty stmts
  in
  let writes =
    List.fold_left (fun acc s -> V.union acc (Rw.stmt_writes s)) V.empty stmts
  in
  List.sort D.compare
    (List.rev !ds @ usage_diags ?file sp ~init:(Program.init prog) ~reads ~writes)

let lint_kbp ?file kbp =
  let sp = Kbp.space kbp in
  let procs = Kbp.processes kbp in
  let find_proc name = List.find_opt (fun p -> Process.name p = name) procs in
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let attributed = ref [] in
  let kstmts = Kbp.kstmts kbp in
  List.iter
    (fun (s : Kbp.kstmt) ->
      let ops = kform_ops s.Kbp.kguard in
      let writes = of_vars (List.map fst s.Kbp.kassigns) in
      (* polarity (eq. 25, Figures 1-2) *)
      List.iter
        (fun op ->
          let who = String.concat "," op.sagents in
          if op.sneg_position then
            emit
              (D.warning ?file ~code:"KPT011"
                 (Printf.sprintf
                    "knowledge operator K[%s] in negative position in the guard \
                     of %s: Ĝ need not be monotonic, so the KBP may be ill-posed \
                     (eq. 25)"
                    who s.Kbp.kname));
          if not (V.is_empty op.snegated) then
            emit
              (D.warning ?file ~code:"KPT010"
                 (Printf.sprintf
                    "K[%s] in %s is applied to a negated fact (%s occurs under \
                     negation): possibly ill-posed KBP (Figures 1-2)"
                    who s.Kbp.kname
                    (vnames sp op.snegated))))
        ops;
      (* locality (eq. 13) *)
      List.iter
        (fun op ->
          List.iter
            (fun a ->
              if find_proc a = None then
                emit
                  (D.error ?file ~code:"KPT013"
                     (Printf.sprintf
                        "knowledge operator in %s refers to undeclared process %s"
                        s.Kbp.kname a)))
            op.sagents)
        ops;
      let agents =
        List.concat_map (fun op -> op.sagents) ops
        |> List.filter (fun a -> find_proc a <> None)
        |> List.sort_uniq compare
      in
      (match agents with
      | [ p ] ->
          let proc = Option.get (find_proc p) in
          let local = of_vars (Process.vars proc) in
          let non_local = V.diff (kform_plain_reads s.Kbp.kguard) local in
          if not (V.is_empty non_local) then
            emit
              (D.error ?file ~code:"KPT012"
                 (Printf.sprintf
                    "guard of %s mixes K[%s] with reads of %s, which %s cannot \
                     observe (eq. 13)"
                    s.Kbp.kname p (vnames sp non_local) p));
          let foreign = V.diff writes local in
          if not (V.is_empty foreign) then
            emit
              (D.warning ?file ~code:"KPT030"
                 (Printf.sprintf
                    "%s acts on %s's knowledge but writes %s, which %s cannot \
                     access"
                    s.Kbp.kname p (vnames sp foreign) p));
          attributed := (p, writes, s.Kbp.kname) :: !attributed
      | _ -> ());
      (* hygiene *)
      if
        s.Kbp.kassigns <> []
        && List.for_all (fun (v, rhs) -> rhs = Expr.Var v) s.Kbp.kassigns
      then
        emit
          (D.warning ?file ~code:"KPT022"
             (Printf.sprintf "%s assigns every target to itself (a no-op)"
                s.Kbp.kname)))
    kstmts;
  (* interference between processes *)
  let att = List.rev !attributed in
  List.iteri
    (fun n (p, w, _) ->
      List.iteri
        (fun m (q, w', name') ->
          if m > n && p <> q then begin
            let shared = V.inter w w' in
            if not (V.is_empty shared) then
              emit
                (D.warning ?file ~code:"KPT031"
                   (Printf.sprintf
                      "interference at %s: %s is written on behalf of both %s and \
                       %s"
                      name' (vnames sp shared) p q))
          end)
        att)
    att;
  (* duplicates *)
  let key (s : Kbp.kstmt) =
    (s.Kbp.kguard, List.sort (fun (a, _) (b, _) -> compare a b) s.Kbp.kassigns)
  in
  List.iteri
    (fun n s ->
      List.iteri
        (fun m s' ->
          if m > n && key s = key s' then
            emit
              (D.warning ?file ~code:"KPT023"
                 (Printf.sprintf "%s duplicates %s (same guard and assignments)"
                    s'.Kbp.kname s.Kbp.kname)))
        kstmts)
    kstmts;
  let reads =
    List.fold_left
      (fun acc (s : Kbp.kstmt) ->
        let rhs =
          List.fold_left
            (fun acc (_, rhs) -> V.union acc (of_vars (Expr.vars_of rhs)))
            V.empty s.Kbp.kassigns
        in
        V.union acc (V.union rhs (kform_all_reads s.Kbp.kguard)))
      V.empty kstmts
  in
  let writes =
    List.fold_left
      (fun acc (s : Kbp.kstmt) -> V.union acc (of_vars (List.map fst s.Kbp.kassigns)))
      V.empty kstmts
  in
  List.sort D.compare
    (List.rev !ds @ usage_diags ?file sp ~init:(Kbp.init kbp) ~reads ~writes)
