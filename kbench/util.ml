(* Small helpers shared by the benchmark workloads: clocks, order
   statistics, hashing, process memory and output formatting. *)

let now_s () = Int64.to_float (Kpt_obs.now_ns ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Linear interpolation between closest ranks on the sorted sample
   (the "inclusive" definition), [q] in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let minimum xs = List.fold_left min infinity xs

let geomean = function
  | [] -> nan
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let nproc () = Domain.recommended_domain_count ()

(* Run a set-up [k] times and keep the last result (dropping the
   others), with the median set-up time: one slow set-up must not move
   [setup_s].  Each starts from a compacted heap, so it does not pay for
   collecting what the one before it left. *)
let setup_median k setup =
  let rec go i times =
    Gc.compact ();
    let r, dt = timed setup in
    if i + 1 = k then (r, median (dt :: times))
    else go (i + 1) (dt :: times)
  in
  go 0 []

let sum = List.fold_left ( +. ) 0.0
let sum_int = List.fold_left ( + ) 0
let md5_hex s = Digest.to_hex (Digest.string s)

(* ---- process memory ---------------------------------------------------------- *)

(* A "Field:   1234 kB" line of /proc/self/status, in MB. *)
let proc_status_mb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > String.length field
                    && String.sub line 0 (String.length field) = field -> (
            let rest = String.sub line (String.length field + 1)
                         (String.length line - String.length field - 1) in
            match String.split_on_char ' ' (String.trim rest) with
            | kb :: _ -> (
                match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> 0.0)
            | [] -> 0.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let peak_rss_mb () = proc_status_mb "VmHWM:"

(* Restart the peak at the current resident size (Linux clear_refs), so
   the peak covers only what follows; a no-op where unsupported. *)
let reset_peak_rss () =
  try
    let oc = open_out "/proc/self/clear_refs" in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
  with Sys_error _ -> ()

(* ---- files ------------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* ---- output ------------------------------------------------------------------ *)

(* Every human-readable line goes to stdout before the final JSON
   object; the prefix keeps them greppable. *)
let say fmt = Printf.ksprintf (fun s -> print_string ("kbench: " ^ s ^ "\n"); flush stdout) fmt

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x
