open Kpt_predicate

(* The resilience matrix: re-verify each subject protocol's properties
   under each fault model and record which property survives which
   fault.  Subjects are closure-based so this module stays below the
   protocol builders in the dependency order — [Kpt_analysis.Resilience]
   instantiates it for the bundled protocols. *)

type verdict =
  | Holds
  | Fails
  | Exhausted of Budget.reason
  | Error of string (* the builder or checker rejected this fault model *)

type property = { prop : string; check : unit -> bool }
type subject = { subject : string; build : Model.t -> property list }

type cell = { subject : string; fault : string; prop : string; verdict : verdict }

type t = { faults : string list; cells : cell list }

let default_faults =
  List.filter (fun (n, _) -> n <> "duplicating") Model.named

let verdict_to_string = function
  | Holds -> "holds"
  | Fails -> "breaks"
  | Exhausted r -> "exhausted:" ^ Budget.reason_slug r
  | Error _ -> "error"

let run ?(budget = Budget.unlimited) ?(faults = default_faults) subjects =
  let cells =
    List.concat_map
      (fun (s : subject) ->
        List.concat_map
          (fun (fname, model) ->
            let cell prop verdict = { subject = s.subject; fault = fname; prop; verdict } in
            match s.build model with
            | props ->
                List.map
                  (fun (p : property) ->
                    cell p.prop
                      (match Engine.with_budget budget p.check with
                      | true -> Holds
                      | false -> Fails
                      | exception Budget.Exhausted r -> Exhausted r
                      | exception (Failure msg | Invalid_argument msg) -> Error msg))
                  props
            | exception (Failure msg | Invalid_argument msg) ->
                [ cell "(build)" (Error msg) ])
          faults)
      subjects
  in
  { faults = List.map fst faults; cells }

let subjects t =
  List.fold_left
    (fun acc c -> if List.mem c.subject acc then acc else acc @ [ c.subject ])
    [] t.cells

let props_of t subject =
  List.fold_left
    (fun acc c ->
      if c.subject = subject && not (List.mem c.prop acc) then acc @ [ c.prop ] else acc)
    [] t.cells

let find t ~subject ~fault ~prop =
  List.find_opt (fun c -> c.subject = subject && c.fault = fault && c.prop = prop) t.cells

(* Any property that holds under the paper's channel but not under
   [fault] — the "what did this fault break" view. *)
let broken_by t ~subject ~fault ~baseline =
  List.filter_map
    (fun prop ->
      match (find t ~subject ~fault:baseline ~prop, find t ~subject ~fault ~prop) with
      | Some { verdict = Holds; _ }, Some { verdict = Fails; _ } -> Some prop
      | _ -> None)
    (props_of t subject)

let cell_mark = function
  | Holds -> "ok"
  | Fails -> "BREAK"
  | Exhausted _ -> "exh"
  | Error _ -> "err"

let pp fmt t =
  let prop_w =
    List.fold_left (fun w c -> max w (String.length c.prop)) 8 t.cells
  in
  let col_w = List.fold_left (fun w f -> max w (String.length f)) 5 t.faults in
  List.iter
    (fun subject ->
      Format.fprintf fmt "@[<v>%s@," subject;
      Format.fprintf fmt "  %-*s" prop_w "";
      List.iter (fun f -> Format.fprintf fmt "  %-*s" col_w f) t.faults;
      Format.fprintf fmt "@,";
      List.iter
        (fun prop ->
          Format.fprintf fmt "  %-*s" prop_w prop;
          List.iter
            (fun fault ->
              let mark =
                match find t ~subject ~fault ~prop with
                | Some c -> cell_mark c.verdict
                | None -> "-"
              in
              Format.fprintf fmt "  %-*s" col_w mark)
            t.faults;
          Format.fprintf fmt "@,")
        (props_of t subject);
      Format.fprintf fmt "@]@.")
    (subjects t)

let to_json t =
  let cell c =
    Json.Obj
      [
        ("subject", Json.String c.subject);
        ("fault", Json.String c.fault);
        ("property", Json.String c.prop);
        ("verdict", Json.String (verdict_to_string c.verdict));
      ]
  in
  Json.pretty
    (Json.Obj
       [
         ("faults", Json.List (List.map (fun f -> Json.String f) t.faults));
         ("cells", Json.List (List.map cell t.cells));
       ])
