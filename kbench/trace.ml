(* In-memory spans recorded from the benchmark's own side of each layer
   call, written out as Chrome trace-event JSON lines when the run ends
   (one "X" complete event per span; any trace viewer opens them).

   Spans nest: [span] pushes onto a stack, so each span knows its
   parent, and the self time of a span is its duration minus the time
   its direct children cover. *)

type span = {
  name : string;
  item : int;  (** the spec or request id the span belongs to *)
  start_ns : int64;
  mutable stop_ns : int64;
  parent : int;  (** index of the parent span, -1 at the root *)
  mutable child_ns : int64;
}

type t = { mutable spans : span array; mutable n : int; mutable stack : int list }

let create () = { spans = [||]; n = 0; stack = [] }

let push t s =
  if t.n = Array.length t.spans then
    t.spans <- Array.append t.spans (Array.make (max 256 t.n) s);
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

let span t ~item name f =
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  let i =
    push t { name; item; start_ns = Kpt_obs.now_ns (); stop_ns = 0L; parent; child_ns = 0L }
  in
  t.stack <- i :: t.stack;
  let finish () =
    let s = t.spans.(i) in
    s.stop_ns <- Kpt_obs.now_ns ();
    t.stack <- List.tl t.stack;
    if parent >= 0 then
      let p = t.spans.(parent) in
      p.child_ns <- Int64.add p.child_ns (Int64.sub s.stop_ns s.start_ns)
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let duration_ns s = Int64.sub s.stop_ns s.start_ns
let self_ns s = Int64.sub (duration_ns s) s.child_ns

let iter t f =
  for i = 0 to t.n - 1 do
    f t.spans.(i)
  done

(* Self time per span name, in seconds, name-sorted. *)
let self_times t =
  let h = Hashtbl.create 32 in
  iter t (fun s ->
      let prev = Option.value ~default:0L (Hashtbl.find_opt h s.name) in
      Hashtbl.replace h s.name (Int64.add prev (self_ns s)));
  Hashtbl.fold (fun k v acc -> (k, Int64.to_float v /. 1e9) :: acc) h []
  |> List.sort compare

let self_s t name = Option.value ~default:0.0 (List.assoc_opt name (self_times t))

(* Durations (not self times) of every span with this name, seconds. *)
let durations t name =
  let acc = ref [] in
  iter t (fun s -> if s.name = name then acc := (Int64.to_float (duration_ns s) /. 1e9) :: !acc);
  List.rev !acc

let total_root_s t =
  let acc = ref 0L in
  iter t (fun s -> if s.parent < 0 then acc := Int64.add !acc (duration_ns s));
  Int64.to_float !acc /. 1e9

(* Chrome trace-event JSON lines: [counters] adds one instant event per
   item carrying that item's counter snapshot. *)
let write t ~path ~counters =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  let t0 = if t.n = 0 then 0L else t.spans.(0).start_ns in
  let us ns = Int64.to_float (Int64.sub ns t0) /. 1e3 in
  iter t (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("name", Json.String s.name);
                ("ph", Json.String "X");
                ("ts", Json.Float (us s.start_ns));
                ("dur", Json.Float (Int64.to_float (duration_ns s) /. 1e3));
                ("pid", Json.Int 1);
                ("tid", Json.Int 1);
                ("args", Json.Obj [ ("item", Json.Int s.item); ("self_us", Json.Float (Int64.to_float (self_ns s) /. 1e3)) ]);
              ]));
      output_char oc '\n');
  List.iter
    (fun (item, cs) ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("name", Json.String "counters");
                ("ph", Json.String "i");
                ("ts", Json.Float 0.0);
                ("pid", Json.Int 1);
                ("tid", Json.Int 1);
                ("args",
                  Json.Obj
                    (("item", Json.Int item)
                    :: List.filter_map
                         (fun (k, v) -> if v = 0 then None else Some (k, Json.Int v))
                         cs));
              ]));
      output_char oc '\n')
    counters
