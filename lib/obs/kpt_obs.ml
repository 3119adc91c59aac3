(* Observability with domain-safe storage.

   The *names* of counters and spans are process-global: an intern table
   (guarded by a mutex — interning is rare) assigns each name a fixed
   slot index, so the registered key set is shared by every domain and a
   snapshot always lists every counter the program has ever declared.

   The *values* live in a metric context ([Ctx.t]): plain int arrays
   indexed by slot, plus the event sink.  Exactly one context is current
   per domain (domain-local storage); the main domain starts on the
   process root context, and every freshly spawned domain starts on its
   own private context, so two domains never write the same cell — a
   counter bump stays a plain array store, unsynchronised and
   allocation-free, without being a data race.  A worker's context is
   merged into its parent's after the join ([Ctx.merge]), which is the
   only cross-domain hand-off and is ordered by [Domain.join] itself. *)

(* ---- the intern registry (process-global, mutex-guarded) ----------------- *)

type counter = {
  cname : string;
  cslot : int;
  mutable cmax : bool;
      (* a high-watermark counter ([record_max]): merged with max, not + .
         Flipped (idempotently) on first use; a racy write of [true] is
         benign under the OCaml memory model. *)
}

type span_id = { sname : string; sslot : int }

let reg_mutex = Mutex.create ()
let counter_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64
let n_counter_slots = ref 0
let span_tbl : (string, span_id) Hashtbl.t = Hashtbl.create 16
let n_span_slots = ref 0

let locked f =
  Mutex.lock reg_mutex;
  match f () with
  | v ->
      Mutex.unlock reg_mutex;
      v
  | exception e ->
      Mutex.unlock reg_mutex;
      raise e

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counter_tbl name with
      | Some c -> c
      | None ->
          let c = { cname = name; cslot = !n_counter_slots; cmax = false } in
          incr n_counter_slots;
          Hashtbl.add counter_tbl name c;
          c)

let span_id name =
  locked (fun () ->
      match Hashtbl.find_opt span_tbl name with
      | Some s -> s
      | None ->
          let s = { sname = name; sslot = !n_span_slots } in
          incr n_span_slots;
          Hashtbl.add span_tbl name s;
          s)

(* Snapshots of the registry itself (cheap; taken outside hot paths). *)
let all_counters () = locked (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) counter_tbl [])
let all_spans () = locked (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) span_tbl [])

(* ---- metric contexts ------------------------------------------------------ *)

type ctx = {
  mutable cvals : int array; (* counter slot → value *)
  mutable stotal : int array; (* span slot → total ns (int ns: 292 years) *)
  mutable scalls : int array; (* span slot → call count *)
  mutable sink : (string -> (string * int) list -> unit) option;
}

let ctx_make () = { cvals = [||]; stotal = [||]; scalls = [||]; sink = None }
let root_ctx = ctx_make ()

(* The domain-local current context.  New domains default to a private
   context of their own, so code that runs in an unmanaged domain is safe
   by default (its numbers are simply lost unless someone merges them);
   the main domain is pointed at the root below, at module-init time. *)
let dls_key = Domain.DLS.new_key ctx_make
let () = Domain.DLS.set dls_key root_ctx
let current_ctx () = Domain.DLS.get dls_key

let grown a need =
  let n = Array.length a in
  let b = Array.make (max 16 (max need (2 * n))) 0 in
  Array.blit a 0 b 0 n;
  b

(* ---- counters ------------------------------------------------------------- *)

let[@inline] bump t slot delta =
  let a = t.cvals in
  if slot < Array.length a then a.(slot) <- a.(slot) + delta
  else begin
    t.cvals <- grown a (slot + 1);
    t.cvals.(slot) <- delta
  end

let incr c = bump (current_ctx ()) c.cslot 1
let add c n = bump (current_ctx ()) c.cslot n

let record_max c n =
  if not c.cmax then c.cmax <- true;
  let t = current_ctx () in
  let a = t.cvals in
  if c.cslot < Array.length a then begin
    if n > a.(c.cslot) then a.(c.cslot) <- n
  end
  else begin
    t.cvals <- grown a (c.cslot + 1);
    t.cvals.(c.cslot) <- max n 0
  end

let read t slot = if slot < Array.length t.cvals then t.cvals.(slot) else 0
let value c = read (current_ctx ()) c.cslot

let counters_of t =
  all_counters ()
  |> List.map (fun c -> (c.cname, read t c.cslot))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters () = counters_of (current_ctx ())

(* ---- monotonic clock and spans -------------------------------------------- *)

let now_ns = Monotonic_clock.now

let finish t s t0 =
  let slot = s.sslot in
  if slot >= Array.length t.stotal then begin
    t.stotal <- grown t.stotal (slot + 1);
    t.scalls <- grown t.scalls (slot + 1)
  end;
  t.stotal.(slot) <- t.stotal.(slot) + Int64.to_int (Int64.sub (now_ns ()) t0);
  t.scalls.(slot) <- t.scalls.(slot) + 1

let time name f =
  let s = span_id name in
  let t0 = now_ns () in
  match f () with
  | r ->
      finish (current_ctx ()) s t0;
      r
  | exception e ->
      finish (current_ctx ()) s t0;
      raise e

let spans_of t =
  all_spans ()
  |> List.filter_map (fun s ->
         if s.sslot < Array.length t.scalls && t.scalls.(s.sslot) > 0 then
           Some (s.sname, Int64.of_int t.stotal.(s.sslot), t.scalls.(s.sslot))
         else None)
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let spans () = spans_of (current_ctx ())

let reset_ctx t =
  Array.fill t.cvals 0 (Array.length t.cvals) 0;
  Array.fill t.stotal 0 (Array.length t.stotal) 0;
  Array.fill t.scalls 0 (Array.length t.scalls) 0

let reset () = reset_ctx (current_ctx ())

(* ---- event sink ------------------------------------------------------------ *)

let enabled () = (current_ctx ()).sink <> None
let set_sink f = (current_ctx ()).sink <- f

let emit name fields =
  match (current_ctx ()).sink with None -> () | Some f -> f name fields

let trace_sink fmt name fields =
  Format.fprintf fmt "trace: %s" name;
  List.iter (fun (k, v) -> Format.fprintf fmt " %s=%d" k v) fields;
  Format.fprintf fmt "@."

(* ---- the context API -------------------------------------------------------- *)

module Ctx = struct
  type t = ctx

  let create () = ctx_make ()
  let root = root_ctx
  let current = current_ctx

  let use t f =
    let prev = Domain.DLS.get dls_key in
    Domain.DLS.set dls_key t;
    Fun.protect ~finally:(fun () -> Domain.DLS.set dls_key prev) f

  (* Both contexts must be quiescent: call after [Domain.join], never
     concurrently with a domain still writing [src]. *)
  let merge ~into src =
    if into != src then begin
      List.iter
        (fun c ->
          let v = read src c.cslot in
          if v <> 0 then
            if c.cmax then begin
              if v > read into c.cslot then begin
                if c.cslot >= Array.length into.cvals then
                  into.cvals <- grown into.cvals (c.cslot + 1);
                into.cvals.(c.cslot) <- v
              end
            end
            else bump into c.cslot v)
        (all_counters ());
      List.iter
        (fun s ->
          if s.sslot < Array.length src.scalls && src.scalls.(s.sslot) > 0 then begin
            if s.sslot >= Array.length into.stotal then begin
              into.stotal <- grown into.stotal (s.sslot + 1);
              into.scalls <- grown into.scalls (s.sslot + 1)
            end;
            into.stotal.(s.sslot) <- into.stotal.(s.sslot) + src.stotal.(s.sslot);
            into.scalls.(s.sslot) <- into.scalls.(s.sslot) + src.scalls.(s.sslot)
          end)
        (all_spans ())
    end

  let counters = counters_of
  let spans = spans_of
  let reset = reset_ctx
  let set_sink t f = t.sink <- f
end

(* ---- the bench gate -------------------------------------------------------- *)

module Gate = struct
  type verdict = { name : string; baseline_ns : float; current_ns : float; ratio : float }

  type report = {
    verdicts : verdict list;
    regressions : verdict list;
    missing : string list;
  }

  let fail fmt = Printf.ksprintf failwith fmt

  (* A top-level member of a bench results file. *)
  let section name src =
    match Json.of_string src with
    | exception Json.Parse_error m -> fail "bench gate: malformed JSON: %s" m
    | doc -> (
        match Json.member name doc with
        | Some v -> v
        | None -> fail "bench gate: %S not found in JSON" name)

  let number = function
    | Json.Int i -> float_of_int i
    | Json.Float f -> f
    | _ -> fail "bench gate: expected a number"

  (* "string": number members of a named top-level object *)
  let object_members name src =
    match section name src with
    | Json.Obj kvs -> List.map (fun (k, v) -> (k, number v)) kvs
    | _ -> fail "bench gate: %S is not an object" name

  let benchmarks_of_json src = object_members "benchmarks_ns_per_run" src
  let counters_of_json src = object_members "counters" src

  (* The one message an incomplete results file produces — structured
     enough to act on (which file, which section, optionally which
     benchmark within it), and pinned verbatim by the unit tests so the
     CI log stays greppable. *)
  let missing_section_message ~file ~section ?benchmark () =
    match benchmark with
    | None ->
        Printf.sprintf
          "%s is incomplete — section %S is missing or malformed; re-run the bench \
           suite to regenerate it"
          file section
    | Some b ->
        Printf.sprintf "%s is incomplete — benchmark %S is missing from section %S" file
          b section

  (* [require_section ~file ~section parse src]: run a section reader,
     converting its bare [Failure] into the structured message above. *)
  let require_section ~file ~section parse src =
    try parse src
    with Failure _ -> failwith (missing_section_message ~file ~section ())

  let scaling_of_json src =
    let row = function
      | Json.Obj _ as r ->
          let num k = Option.fold ~none:0.0 ~some:number (Json.member k r) in
          (* rows written before the family field default to the standard
             protocol, the only family the sweep had then *)
          ( Option.value ~default:"seqtrans" (Option.bind (Json.member "family" r) Json.to_str),
            int_of_float (num "n"),
            int_of_float (num "a"),
            num "si_s" )
      | _ -> fail "bench gate: a scaling row is not an object"
    in
    match section "scaling_standard_protocol" src with
    | Json.List rows -> List.map row rows
    | _ -> fail "bench gate: \"scaling_standard_protocol\" is not an array"

  let check ?(tolerance = 0.25) ~baseline current =
    let base = benchmarks_of_json baseline in
    let cur = benchmarks_of_json current in
    let verdicts, missing =
      List.fold_left
        (fun (vs, miss) (name, baseline_ns) ->
          match List.assoc_opt name cur with
          | Some current_ns ->
              ({ name; baseline_ns; current_ns; ratio = current_ns /. baseline_ns } :: vs, miss)
          | None -> (vs, name :: miss))
        ([], []) base
    in
    let verdicts = List.sort (fun a b -> Float.compare b.ratio a.ratio) verdicts in
    let regressions = List.filter (fun v -> v.ratio > 1.0 +. tolerance) verdicts in
    { verdicts; regressions; missing = List.rev missing }

  let pp_report fmt r =
    List.iter
      (fun v ->
        Format.fprintf fmt "  %-62s %12.1f → %12.1f ns/run  ×%.2f%s@." v.name v.baseline_ns
          v.current_ns v.ratio
          (if List.memq v r.regressions then "  REGRESSION" else ""))
      r.verdicts;
    List.iter
      (fun name -> Format.fprintf fmt "  %-62s missing from the current run@." name)
      r.missing
end
