(* The serve probe of corpus-batch's traced run: the repo's own
   [kpt serve] daemon as a child process ([--serve-jobs nproc], default
   cache and queue), fed the seeded served mix ({!Inputs.requests}) on
   an open-loop Poisson schedule from this one process, over at most
   [nproc] connections at a time, one request per connection.

   Each request is timed from its due time, so a stall is charged to
   every request it delays; a request due while every connection is
   busy waits on this side and its wait counts.  A step whose backlog
   keeps growing is cut short and its unsent requests count as misses.

   The probe serves two steps, a low rate and the reference rate, then
   replays the same requests in-process: once through [Handler.handle]
   with the daemon's cache (per-request protocol and handler spans),
   twice through a cache-off handler (the pure compute time, and the
   exact counters' repeat), and once layer by layer from this side. *)

open Kpt_serve
module Driver = Kpt_analysis.Driver

let nproc = Util.nproc

(* ---- the schedule ------------------------------------------------------------------- *)

type step = { rate : float; share : float }

(* The two open-loop steps, each a share of the run's seconds: a low
   rate, at which served latency is the handler's time plus the wire and
   dispatch overhead, and the served mix's reference rate, which the
   2-vCPU host it was tuned on serves with its cache warm and no
   backlog. *)
let steps = [ { rate = 20.0; share = 0.12 }; { rate = 100.0; share = 0.5 } ]

(* A step is cut when a due request has waited this long to be sent: its
   backlog is growing. *)
let backlog_limit_s = 1.0

(* A request unanswered this long after its due time counts as a
   timeout. *)
let request_deadline_s = 30.0

(* The served latency above which an answer counts as a miss, written
   down in settings.json beside the benchmark's other recorded choices. *)
let p99_limit_ms settings_path =
  match
    Option.bind
      (Json.member "serve_mix" (Json.of_string (Util.read_file settings_path)))
      (Json.member "p99_limit_ms")
  with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> failwith ("missing serve_mix.p99_limit_ms in " ^ settings_path)

(* ---- the daemon ---------------------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some fd
  | exception Unix.Unix_error _ ->
      close_quiet fd;
      None

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let spawn ~kpt ~state_dir =
  let socket = Filename.concat state_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  (try Sys.remove socket with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat state_dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process kpt
      [| kpt; "serve"; "--socket"; socket; "--serve-jobs"; string_of_int (nproc ()) |]
      null null log
  in
  close_quiet null;
  close_quiet log;
  let d = { pid; socket } in
  let t_end = Util.now_s () +. 20.0 in
  let rec wait () =
    match connect socket with
    | Some fd -> close_quiet fd
    | None ->
        if Util.now_s () > t_end || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
          failwith ("kpt serve did not come up on " ^ socket)
        else begin
          Unix.sleepf 0.01;
          wait ()
        end
  in
  wait ();
  d

(* One blocking request/response exchange (warm-up, ping, shutdown). *)
let exchange socket line =
  match connect socket with
  | None -> None
  | Some fd ->
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      (try Protocol.write_line fd line with Unix.Unix_error _ -> ());
      let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
      let rec read () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n -> (
            Buffer.add_subbytes buf chunk 0 n;
            match String.index_opt (Buffer.contents buf) '\n' with
            | Some i -> Some (String.sub (Buffer.contents buf) 0 i)
            | None -> read ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
        | exception Unix.Unix_error _ -> None
      in
      read ()

let control_line cmd =
  Json.to_string
    (Protocol.request_to_json
       { Protocol.id = 0; cmd; files = []; opts = Driver.default_options })

let ping d =
  match Option.map (fun l -> Protocol.response_of_json (Json.of_string l)) (exchange d.socket (control_line Protocol.Ping)) with
  | Some (Ok (Protocol.Result { daemon; _ })) -> daemon
  | _ -> []

let stop d =
  ignore (exchange d.socket (control_line Protocol.Shutdown));
  let t_end = Util.now_s () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now_s () < t_end ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_retry d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  try Sys.remove d.socket with Sys_error _ -> ()

(* ---- set-up -------------------------------------------------------------------------- *)

type ctx = {
  p99_limit_ms : float;
  seconds : float;
  warmup : Inputs.request list;
  requests : Inputs.request array;
  schedule : float array list;  (** arrival offsets per step *)
  digest : string;  (** this run's requests and schedule *)
  ref_digest : string;  (** the request stream, independent of the run length *)
  refs : Verdict.refs option;
  daemon : daemon;
}

let live : daemon option ref = ref None

let () =
  at_exit (fun () ->
      match !live with
      | Some d ->
          live := None;
          stop d
      | None -> ())

type inputs = {
  i_warmup : Inputs.request list;
  i_requests : Inputs.request array;
  i_schedule : float array list;
  i_digest : string;
  i_ref_digest : string;
}

(* The frozen references cover the first [ref_horizon] requests of the
   stream, whatever the run length; their digest covers the serve corpus
   and the first [digest_prefix] requests. *)
let ref_horizon = 6000
let digest_prefix = 256

(* The request sequence and the arrival schedule of every step. *)
let make_inputs ~seed ~seconds =
  let seed64 = Int64.of_int seed in
  let corpus = Inputs.serve_corpus ~seed:seed64 in
  let schedule =
    List.mapi
      (fun i st ->
        Array.of_list
          (Inputs.arrivals ~seed:seed64 ~step:i ~rate:st.rate ~duration:(st.share *. seconds)))
      steps
  in
  let n = Util.sum_int (List.map Array.length schedule) in
  let warmup, stream = Inputs.requests ~seed:seed64 corpus (max n digest_prefix) in
  let requests = Array.sub (Array.of_list stream) 0 n in
  ( corpus,
    {
      i_warmup = warmup;
      i_requests = requests;
      i_schedule = schedule;
      i_digest =
        Inputs.request_digest (Array.to_list requests) (List.concat_map Array.to_list schedule);
      i_ref_digest =
        Util.md5_hex
          (Inputs.spec_digest (List.map fst corpus)
          ^ Inputs.request_digest (warmup @ List.filteri (fun i _ -> i < digest_prefix) stream) []);
    } )

(* Inputs, references, the daemon spawned and bound, and warmed with the
   stream's unmeasured prefix (one request at a time), so its cache
   holds the popular requests when measuring starts. *)
let setup ~p99_limit_ms ~seed ~seconds ~refs_dir ~state_dir ~kpt =
  let _, inputs = make_inputs ~seed ~seconds in
  let refs = Verdict.load_refs (Verdict.refs_path ~dir:refs_dir ~workload:"serve-mix" ~seed) in
  let daemon = spawn ~kpt ~state_dir in
  live := Some daemon;
  List.iter (fun r -> ignore (exchange daemon.socket r.Inputs.line)) inputs.i_warmup;
  {
    p99_limit_ms;
    seconds;
    warmup = inputs.i_warmup;
    requests = inputs.i_requests;
    schedule = inputs.i_schedule;
    digest = inputs.i_digest;
    ref_digest = inputs.i_ref_digest;
    refs;
    daemon;
  }

(* ---- the open-loop load generator ------------------------------------------------------ *)

type outcome =
  | Answered of { exit_code : int; cached : bool; out : string }
  | Failed of string  (** crash | timeout | shed | lost | error | interrupted *)

type sample = {
  req : Inputs.request;
  due : float;
  lag : float;  (** send time minus due time *)
  latency : float;  (** response time minus due time *)
  outcome : outcome;
}

type step_result = {
  rate : float;
  samples : sample list;
  unsent : int;  (** due but never sent: the step was cut for a growing backlog *)
  window : float;  (** the schedule's length, seconds *)
  queue_depth_max : int;
}

type conn = {
  fd : Unix.file_descr;
  creq : Inputs.request option;  (** [None]: a ping *)
  cdue : float;
  sent : float;
  buf : Buffer.t;
}

let kind_of_error = function
  | Protocol.Overloaded -> "shed"
  | Protocol.Timeout -> "timeout"
  | Protocol.Interrupted -> "interrupted"
  | Protocol.Generic | Protocol.Version_mismatch -> "error"

let decode line =
  match Protocol.response_of_json (Json.of_string line) with
  | Ok (Protocol.Result { exit_code; cached; out; daemon; _ }) -> (Answered { exit_code; cached; out }, daemon)
  | Ok (Protocol.Error_frame { kind; _ }) -> (Failed (kind_of_error kind), [])
  | Ok (Protocol.Event _) | Error _ -> (Failed "error", [])
  | exception Json.Parse_error _ -> (Failed "error", [])

let ping_interval = 0.25
let chunk = Bytes.create 65536

let run_step ctx ~rate ~window ~(arrivals : float array) ~(reqs : Inputs.request array) =
  let conc = nproc () in
  let n = Array.length arrivals in
  let t0 = Util.now_s () +. 0.01 in
  let inflight = ref [] and samples = ref [] in
  let next = ref 0 and unsent = ref 0 and qmax = ref 0 in
  let next_ping = ref t0 in
  let finish c now outcome =
    close_quiet c.fd;
    inflight := List.filter (fun c' -> c'.fd != c.fd) !inflight;
    Option.iter
      (fun req ->
        samples :=
          { req; due = c.cdue; lag = c.sent -. c.cdue; latency = now -. c.cdue; outcome } :: !samples)
      c.creq
  in
  let start creq due =
    let sent = Util.now_s () in
    let line = match creq with Some r -> r.Inputs.line | None -> control_line Protocol.Ping in
    match connect ctx.daemon.socket with
    | None -> (
        match creq with
        | Some req ->
            samples := { req; due; lag = sent -. due; latency = sent -. due; outcome = Failed "lost" } :: !samples
        | None -> ())
    | Some fd -> (
        let c = { fd; creq; cdue = due; sent; buf = Buffer.create 4096 } in
        match Protocol.write_line fd line with
        | () -> inflight := c :: !inflight
        | exception Unix.Unix_error _ ->
            inflight := c :: !inflight;
            finish c (Util.now_s ()) (Failed "lost"))
  in
  let on_readable c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> finish c (Util.now_s ()) (Failed "crash")
    | k -> (
        Buffer.add_subbytes c.buf chunk 0 k;
        let s = Buffer.contents c.buf in
        match String.index_opt s '\n' with
        | Some i ->
            let now = Util.now_s () in
            let outcome, daemon = decode (String.sub s 0 i) in
            (match List.assoc_opt "queue_depth" daemon with
            | Some q -> qmax := max !qmax q
            | None -> ());
            finish c now outcome
        | None -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> finish c (Util.now_s ()) (Failed "lost")
  in
  let rec loop () =
    let now = Util.now_s () in
    while !next < n && List.length !inflight < conc && t0 +. arrivals.(!next) <= now do
      start (Some reqs.(!next)) (t0 +. arrivals.(!next));
      incr next
    done;
    if !next < n && now -. (t0 +. arrivals.(!next)) > backlog_limit_s then begin
      unsent := n - !next;
      next := n
    end;
    if List.length !inflight < conc && now >= !next_ping && !next < n then begin
      start None now;
      next_ping := now +. ping_interval
    end;
    List.iter
      (fun c -> if now -. c.cdue > request_deadline_s then finish c now (Failed "timeout"))
      !inflight;
    if !next < n || !inflight <> [] then begin
      let wait =
        if !next < n && List.length !inflight < conc then
          Float.max 0.0 (Float.min 0.05 (t0 +. arrivals.(!next) -. now))
        else 0.05
      in
      let fds = List.map (fun c -> c.fd) !inflight in
      (match Unix.select fds [] [] wait with
      | ready, _, _ ->
          List.iter
            (fun fd ->
              match List.find_opt (fun c -> c.fd == fd) !inflight with
              | Some c -> on_readable c
              | None -> ())
            ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  { rate; samples = List.rev !samples; unsent = !unsent; window; queue_depth_max = !qmax }

(* ---- step statistics ------------------------------------------------------------------- *)

let latencies_ms st =
  List.filter_map
    (fun s -> match s.outcome with Answered _ -> Some (s.latency *. 1e3) | Failed _ -> None)
    st.samples

let failures st =
  List.filter_map (fun s -> match s.outcome with Failed k -> Some k | Answered _ -> None) st.samples

let attempted st = List.length st.samples + st.unsent

(* Share of the step's requests that missed the limit: failed, unsent,
   or answered later than [limit_ms]. *)
let miss_share ~limit_ms st =
  let slow = List.length (List.filter (fun l -> l > limit_ms) (latencies_ms st)) in
  float_of_int (slow + List.length (failures st) + st.unsent) /. float_of_int (max 1 (attempted st))

let lag_p99_ms st = Util.quantile 0.99 (List.map (fun s -> s.lag *. 1e3) st.samples)

let count_kinds kinds =
  List.sort_uniq compare kinds |> List.map (fun k -> (k, List.length (List.filter (( = ) k) kinds)))

(* ---- verification ------------------------------------------------------------------------ *)

(* The content address of a request: what its verdict is a function of. *)
let request_key (r : Inputs.request) =
  Util.md5_hex
    (String.concat "\000"
       [
         Protocol.cmd_to_string r.Inputs.cmd;
         r.Inputs.spec.Inputs.key;
         Inputs.limits_to_string r.Inputs.spec.Inputs.limits;
         r.Inputs.spec.Inputs.source;
       ])

(* Served verdicts against the frozen references (crashes included:
   the seed code's crash is recorded as such), check verdicts against
   the base spec's manifest envelope, and every repeat of a request
   against its first answer. *)
let verify ctx tally samples =
  let refs = Verdict.check_digest tally ctx.refs ~digest:ctx.ref_digest in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let r = s.req in
      let key = request_key r in
      let got =
        match s.outcome with
        | Answered { exit_code; out; _ } ->
            Some (Verdict.of_outcome_safe r.Inputs.cmd { Driver.code = exit_code; out; err = "" })
        | Failed "crash" -> Some Verdict.crash
        | Failed _ -> None
      in
      match got with
      | None -> ()
      | Some got ->
          let expected =
            match r.Inputs.cmd with
            | Protocol.Check -> Option.map Verdict.of_difftest r.Inputs.spec.Inputs.expected
            | _ -> None
          in
          (* a later program that answers where the seed code crashed is
             not a mismatch; its answer is then judged on repeats *)
          let refs =
            match refs with
            | _ when r.Inputs.rid >= ref_horizon -> None
            | Some rf when Hashtbl.find_opt rf.Verdict.table key = Some Verdict.crash -> None
            | rf -> rf
          in
          Verdict.judge tally ?refs ?expected ~key got;
          (match Hashtbl.find_opt seen key with
          | Some first when first <> got -> Verdict.mismatch tally "%s: repeat answered %s, first %s" key got first
          | Some _ -> ()
          | None -> Hashtbl.replace seen key got))
    samples

(* ---- traced run -------------------------------------------------------------------------- *)

module Layer = struct
  open Kpt_predicate
  open Kpt_analysis

  (* One request's computation, taken apart from this side the way
     {!Driver} composes it. *)
  let compute tr ~item (r : Inputs.request) =
    let s = r.Inputs.spec in
    let file = s.Inputs.key and src = s.Inputs.source in
    let eng = Engine.create () in
    Engine.set_reorder_mode eng (Some Engine.Reorder_auto);
    let parse () =
      let ast = Layers.layer tr ~item "syntax.parse" (fun () -> Kpt_syntax.Parser.program_of_string src) in
      Layers.layer tr ~item "syntax.elaborate" (fun () -> Kpt_syntax.Elaborate.program ast)
    in
    match r.Inputs.cmd with
    | Protocol.Check -> `Check (Layers.check_spec tr ~item ~reorder:Engine.Reorder_auto s)
    | Protocol.Lint ->
        let budget = if Budget.is_unlimited s.Inputs.limits then None else Some s.Inputs.limits in
        Engine.use eng (fun () ->
            Layers.layer tr ~item "analysis.lint_semantic" (fun () ->
                ignore (Lint.lint_source_semantic ?budget ~file src)));
        `Other (Engine.counters eng)
    | Protocol.Stats ->
        Engine.use eng (fun () ->
            match parse () with
            | loaded -> ignore (Layers.collect tr ~item ~file loaded)
            | exception _ -> ());
        `Other (Engine.counters eng)
    | Protocol.Solve ->
        Engine.use eng (fun () ->
            match parse () with
            | _, kbp -> (
                (try
                   ignore
                     (Layers.layer tr ~item "core.solve" (fun () ->
                          Engine.with_budget s.Inputs.limits (fun () -> Kpt_core.Kbp.solutions kbp)))
                 with Invalid_argument _ | Budget.Exhausted _ -> ());
                try
                  ignore
                    (Layers.layer tr ~item "core.iterate" (fun () ->
                         Kpt_core.Kbp.solve ~budget:s.Inputs.limits kbp))
                with Invalid_argument _ -> ())
            | exception _ -> ());
        `Other (Engine.counters eng)
    | _ -> `Other []
end

let replay_layers reqs =
  let tr = Trace.create () in
  let results =
    List.mapi
      (fun i r -> Trace.span tr ~item:i "request" (fun () -> Layer.compute tr ~item:i r))
      reqs
  in
  (tr, results)

let split_requests ctx =
  let offset = ref 0 in
  List.map
    (fun arr ->
      let reqs = Array.sub ctx.requests !offset (Array.length arr) in
      offset := !offset + Array.length arr;
      (arr, reqs))
    ctx.schedule

let print_step ~limit_ms (st : step_result) =
  let ls = latencies_ms st in
  Util.say
    "serve probe: rate %6.1f/s  n=%5d  p50 %7.3f  p90 %7.3f  p99 %8.3f ms  misses over %.0f ms %.4f  \
     lag p99 %8.3f ms  unsent %d"
    st.rate (attempted st) (Util.median ls) (Util.quantile 0.9 ls) (Util.quantile 0.99 ls) limit_ms
    (miss_share ~limit_ms st) (lag_p99_ms st) st.unsent

let traced ctx tally ~trace_path =
  (* served: the low rate, then the reference rate *)
  let steps =
    List.map2
      (fun (arrivals, reqs) (st : step) ->
        let r = run_step ctx ~rate:st.rate ~window:(st.share *. ctx.seconds) ~arrivals ~reqs in
        print_step ~limit_ms:ctx.p99_limit_ms r;
        (r, reqs))
      (split_requests ctx) steps
  in
  let low = fst (List.hd steps) in
  let daemon = ping ctx.daemon in
  let samples = List.concat_map (fun (r, _) -> r.samples) steps in
  verify ctx tally samples;
  let answered_in st = List.filter (fun s -> match s.outcome with Answered _ -> true | Failed _ -> false) st.samples in
  let served = answered_in low in
  let field k = float_of_int (Option.value ~default:0 (List.assoc_opt k daemon)) in
  (* in-process replays of the same request sequence *)
  let reqs = List.concat_map (fun (_, reqs) -> Array.to_list reqs) steps in
  let handler_replay ~cache_size =
    let h = Handler.create ~cache_size in
    if cache_size > 0 then
      List.iter
      (fun (r : Inputs.request) ->
        match Protocol.request_of_json (Json.of_string r.Inputs.line) with
        | Ok req -> ( try ignore (Handler.handle h req) with Invalid_argument _ -> ())
        | Error _ -> ())
      ctx.warmup;
    let tr = Trace.create () in
    let times =
      List.mapi
        (fun i (r : Inputs.request) ->
          Trace.span tr ~item:i "request" (fun () ->
              let req =
                Trace.span tr ~item:i "serve.protocol" (fun () ->
                    Result.get_ok (Protocol.request_of_json (Json.of_string r.Inputs.line)))
              in
              let t0 = Util.now_s () in
              let o =
                Trace.span tr ~item:i "serve.handle" (fun () ->
                    match Handler.handle h req with o -> Some o | exception Invalid_argument _ -> None)
              in
              let dt = Util.now_s () -. t0 in
              (match o with
              | Some (o, cached) ->
                  Trace.span tr ~item:i "serve.protocol" (fun () ->
                      ignore
                        (Json.to_string
                           (Protocol.response_to_json
                              (Protocol.Result
                                 {
                                   id = req.Protocol.id;
                                   exit_code = o.Driver.code;
                                   cached;
                                   out = o.Driver.out;
                                   err = o.Driver.err;
                                   daemon = [];
                                 }))))
              | None -> ());
              (r, dt, o)))
        reqs
    in
    (tr, times)
  in
  (* the cache-off replay twice: [Driver]'s counters must repeat bit
     for bit *)
  let driver_replay () =
    Kpt_obs.Ctx.reset Kpt_obs.Ctx.root;
    let _, times = handler_replay ~cache_size:0 in
    (times, Kpt_obs.Ctx.counters Kpt_obs.Ctx.root)
  in
  let cache_off, driver_counters = driver_replay () in
  let _, driver_counters2 = driver_replay () in
  let g0 = Gc.quick_stat () in
  let tr_on, cache_on = handler_replay ~cache_size:256 in
  let gc = Report.gc_metrics g0 in
  (* in-process verdicts must equal the served ones *)
  let layer_mismatches =
    List.fold_left
      (fun acc s ->
        match (s.outcome, List.find_opt (fun (r, _, _) -> r.Inputs.rid = s.req.Inputs.rid) cache_off) with
        | Answered { exit_code; out; _ }, Some (r, _, Some (o, _)) ->
            let served = Verdict.of_outcome_safe r.Inputs.cmd { Driver.code = exit_code; out; err = "" } in
            if served = Verdict.of_outcome_safe r.Inputs.cmd o then acc
            else begin
              Util.say "in-process verdict differs from the served one on request %d" r.Inputs.rid;
              acc + 1
            end
        | _ -> acc)
      0
      (List.concat_map (fun (r, _) -> answered_in r) steps)
  in
  let handle_ms = List.map (fun (_, dt, _) -> dt *. 1e3) cache_off in
  List.iter
    (fun cmd ->
      let ms =
        List.filter_map
          (fun ((r : Inputs.request), dt, _) -> if r.Inputs.cmd = cmd then Some (dt *. 1e3) else None)
          cache_off
      in
      if ms <> [] then
        Util.say "in-process handle, cache off: %-5s n=%4d p50 %8.3f ms  max %9.3f ms"
          (Protocol.cmd_to_string cmd) (List.length ms) (Util.median ms)
          (List.fold_left max 0.0 ms))
    Protocol.[ Check; Lint; Stats; Solve ];
  let handle_on = Hashtbl.create 256 in
  List.iter (fun ((r : Inputs.request), dt, _) -> Hashtbl.replace handle_on r.Inputs.rid dt) cache_on;
  let overhead =
    List.filter_map
      (fun s ->
        Option.map (fun dt -> (s.latency -. dt) *. 1e3) (Hashtbl.find_opt handle_on s.req.Inputs.rid))
      served
  in
  (* layer by layer; then the attribution self-test, on the check
     requests (the ones that reach the doubled layer) *)
  let tr_layers, results = replay_layers reqs in
  let attribution =
    let checks = List.filter (fun (r : Inputs.request) -> r.Inputs.cmd = Protocol.Check) reqs in
    let base, doubled =
      Traced.planted_passes (fun tr ~item r -> ignore (Layer.compute tr ~item r)) checks
    in
    Traced.attribution_ok ~planted:Traced.planted_layer base doubled
  in
  let diffs = Option.to_list (Layers.first_difference driver_counters driver_counters2) in
  List.iter (fun (k, a, b) -> Util.say "exact counter %s differs: %d vs %d" k a b) diffs;
  Util.say "exact counters digest %s" (Layers.digest driver_counters);
  let check_results = List.filter_map (function `Check r -> Some r | `Other _ -> None) results in
  let all_counters =
    List.fold_left
      (fun acc -> function
        | `Check (r : Layers.spec_result) -> Layers.merge acc (Layers.merge r.Layers.front r.Layers.merged)
        | `Other cs -> Layers.merge acc cs)
      [] results
  in
  let entries =
    List.filter_map
      (fun s ->
        match s.outcome with
        | Answered { exit_code; out; _ } ->
            Some (request_key s.req, Verdict.of_outcome_safe s.req.Inputs.cmd { Driver.code = exit_code; out; err = "" })
        | Failed _ -> None)
      samples
    |> List.sort_uniq compare
  in
  let flagged = Traced.corrupt_ref_flagged ?frozen:ctx.refs entries in
  (* merge the handler spans into the layer trace's self times *)
  let self_on = Trace.self_times tr_on in
  Util.say "serve-mix traced: %d requests replayed in-process" (List.length reqs);
  List.iter (fun (name, s) -> Util.say "  self %-24s %10.3f ms" name (s *. 1e3)) (self_on @ Trace.self_times tr_layers);
  Trace.write tr_layers ~path:trace_path
    ~counters:
      (List.mapi
         (fun i -> function
           | `Check (r : Layers.spec_result) -> (i, Layers.merge r.Layers.front r.Layers.merged)
           | `Other cs -> (i, cs))
         results);
  Util.say "spans written to %s" trace_path;
  let answered = List.filter_map (fun s -> match s.outcome with Answered { cached; _ } -> Some cached | Failed _ -> None) samples in
  let both = { low with samples; unsent = Util.sum_int (List.map (fun (r, _) -> r.unsent) steps);
               queue_depth_max = List.fold_left (fun acc (r, _) -> max acc r.queue_depth_max) 0 steps } in
  let hits = List.length (List.filter Fun.id answered) in
  ( attempted both,
    count_kinds (failures both),
    Traced.layer_metrics ~trace:tr_layers ~counters:all_counters check_results
    @ gc
    @ [
        ("serve.handle_ms_p50", Util.median handle_ms);
        ("serve.overhead_ms_p50", Util.median overhead);
        ("serve.cache_hit_share", float_of_int hits /. float_of_int (max 1 (List.length answered)));
        ("serve.cache_evictions", field "cache_evictions");
        ("serve.sheds", field "sheds");
        ("serve.io_timeouts", field "io_timeouts");
        ("serve.queue_depth_max", float_of_int both.queue_depth_max);
        (* the ping that reads the gauge is itself in flight *)
        ("serve.inflight_after_drain", field "in_flight" -. 1.0);
        ("load.lag_ms_p99", lag_p99_ms both);
        ("trace.overhead_s", Trace.total_root_s tr_layers -. Util.sum (List.map (fun (_, dt, _) -> dt) cache_off));
        ("trace.layer_verdict_mismatches", float_of_int layer_mismatches);
        ("exact.counter_mismatches", float_of_int (List.length diffs));
        ("selftest.attribution_ok", if attribution then 1.0 else 0.0);
        ("selftest.corrupt_ref_flagged", if flagged then 1.0 else 0.0);
      ],
    layer_mismatches = 0 && diffs = [] && attribution && flagged )

(* ---- entry point ----------------------------------------------------------------------- *)

let request_verdict (r : Inputs.request) =
  match Handler.dispatch r.Inputs.cmd (Inputs.options_for r.Inputs.cmd r.Inputs.spec.Inputs.limits)
          [ (r.Inputs.spec.Inputs.key, r.Inputs.spec.Inputs.source) ]
  with
  | o -> Verdict.of_outcome_safe r.Inputs.cmd o
  | exception Invalid_argument _ -> Verdict.crash

type run = {
  seed : int;
  seconds : float;
  refs_dir : string;
  state_dir : string;
  kpt : string;
  settings_path : string;
}

let write_refs (a : run) =
  let corpus, inputs = make_inputs ~seed:a.seed ~seconds:a.seconds in
  let seen = Hashtbl.create 1024 in
  let entries =
    snd (Inputs.requests ~seed:(Int64.of_int a.seed) corpus ref_horizon)
    |> List.filter_map (fun r ->
           let key = request_key r in
           if Hashtbl.mem seen key then None
           else begin
             Hashtbl.replace seen key ();
             Some (key, request_verdict r)
           end)
  in
  let path = Verdict.refs_path ~dir:a.refs_dir ~workload:"serve-mix" ~seed:a.seed in
  Verdict.save_refs path ~digest:inputs.i_ref_digest entries;
  Util.say "wrote %s" path

(* The probe: the daemon set up, the two steps served and replayed,
   the daemon stopped; the failures by kind are printed, and their sum
   is the result's [failed]. *)
let probe (a : run) : Report.t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Util.mkdir_p a.state_dir;
  let tally = Verdict.tally () in
  let ctx =
    setup ~p99_limit_ms:(p99_limit_ms a.settings_path) ~seed:a.seed ~seconds:a.seconds
      ~refs_dir:a.refs_dir ~state_dir:a.state_dir ~kpt:a.kpt
  in
  let trace_path =
    Filename.concat a.state_dir (Printf.sprintf "trace-serve-mix-seed%d.jsonl" a.seed)
  in
  let attempted, kinds, layer, selftests_ok = traced ctx tally ~trace_path in
  stop ctx.daemon;
  live := None;
  Util.say "serve probe seed=%d inputs=%s verdict_mismatches=%d (%d verdicts judged)" a.seed
    ctx.digest tally.Verdict.mismatches tally.Verdict.checked;
  List.iter (fun n -> Util.say "  mismatch: %s" n) (List.rev tally.Verdict.notes);
  let failed = Util.sum_int (List.map snd kinds) in
  Util.say "serve probe failed_share = %.6f (ratio; %d of %d; %s)"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted
    (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) kinds));
  Report.{ correct = tally.Verdict.mismatches = 0 && selftests_ok; attempted; failed; metrics = layer }
