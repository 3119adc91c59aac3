(* The one JSON layer: the strict parser on outside input (the serve
   wire parses client requests with it), the pretty printer's layout
   rule, and a check report carrying control characters in a file name
   through the printer and back. *)

let parses_to name expected src =
  Alcotest.(check string) name expected
    (match Json.of_string src with Json.String s -> s | _ -> Alcotest.fail "not a string")

let rejects name src =
  match Json.of_string src with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: %S was accepted" name src

(* A JSON string literal of backslash-u escapes, one per hex code unit. *)
let escapes units = "\"" ^ String.concat "" (List.map (fun h -> "\\" ^ "u" ^ h) units) ^ "\""

(* Python's json.dumps writes a non-BMP character as a surrogate pair *)
let test_surrogate_pair_is_utf8 () =
  parses_to "U+1F600 decodes to 4-byte UTF-8" "\xf0\x9f\x98\x80" (escapes [ "d83d"; "de00" ]);
  parses_to "upper-case hex digits" "\xf0\x9f\x98\x80" (escapes [ "D83D"; "DE00" ]);
  parses_to "U+10000, the first pair" "\xf0\x90\x80\x80" (escapes [ "d800"; "dc00" ]);
  parses_to "U+10FFFF, the last pair" "\xf4\x8f\xbf\xbf" (escapes [ "dbff"; "dfff" ]);
  parses_to "BMP escapes are unchanged" "A\xc3\xa9\xe2\x82\xac"
    (escapes [ "0041"; "00e9"; "20ac" ])

let test_lone_surrogates_rejected () =
  rejects "lone high surrogate at the end" (escapes [ "d83d" ]);
  rejects "high surrogate before a plain character"
    (String.sub (escapes [ "d83d" ]) 0 7 ^ "x\"");
  rejects "high surrogate before a non-surrogate escape" (escapes [ "d83d"; "0041" ]);
  rejects "two high surrogates" (escapes [ "d83d"; "d83d" ]);
  rejects "lone low surrogate" (escapes [ "de00" ])

let test_u_escape_takes_four_hex_digits () =
  rejects "underscore inside the digits" (escapes [ "0_41" ]);
  rejects "sign inside the digits" (escapes [ "+041" ]);
  rejects "OCaml-style prefix" (escapes [ "0x41" ]);
  rejects "three digits" (escapes [ "041" ]);
  rejects "truncated at the end of input" (String.sub (escapes [ "0041" ]) 0 5)

let test_pretty_layout_rule () =
  let v =
    Json.Obj
      [
        ("n", Json.Int 1);
        ("rate", Json.fixed 4 0.5);
        ("big", Json.Num "18446744073709551616");
        ("flat", Json.Obj [ ("a", Json.Int 1); ("b", Json.Bool true) ]);
        ("names", Json.List [ Json.String "x"; Json.String "y" ]);
        ("table", Json.Table [ ("c.d", Json.Int 2) ]);
        ("rows", Json.List [ Json.Obj [ ("k", Json.Null) ] ]);
        ("nested", Json.List [ Json.Obj [ ("t", Json.Table []); ("e", Json.List []) ] ]);
      ]
  in
  Alcotest.(check string) "one rule, no per-caller layout"
    {|{
  "n": 1,
  "rate": 0.5000,
  "big": 18446744073709551616,
  "flat": { "a": 1, "b": true },
  "names": ["x", "y"],
  "table": {
    "c.d": 2
  },
  "rows": [
    { "k": null }
  ],
  "nested": [
  {
    "t": {},
    "e": []
  }
  ]
}
|}
    (Json.pretty v);
  Alcotest.(check string) "compact bytes ignore the layout markers"
    {|{"n":1,"rate":0.5000,"big":18446744073709551616,"flat":{"a":1,"b":true},"names":["x","y"],"table":{"c.d":2},"rows":[{"k":null}],"nested":[{"t":{},"e":[]}]}|}
    (Json.to_string v);
  (* numbers read back as Int/Float, never as the printer's literal *)
  match Json.of_string (Json.pretty v) with
  | Json.Obj kvs ->
      Alcotest.(check bool) "fixed-point reads back as Float" true
        (List.assoc "rate" kvs = Json.Float 0.5);
      Alcotest.(check bool) "int reads back as Int" true (List.assoc "n" kvs = Json.Int 1)
  | _ -> Alcotest.fail "not an object"

let read_spec name =
  let ic = open_in_bin ("../examples/specs/" ^ name) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The one intended byte change of the single escaper: control
   characters in a file name are short escapes, and the report decodes
   back to the exact name. *)
let test_check_json_file_name_round_trips () =
  let name = "odd\tname\nwith\rcontrols.unity" in
  let src = read_spec "transmit.unity" in
  let module Driver = Kpt_analysis.Driver in
  let o = Driver.check { Driver.default_options with Driver.json = true } [ (name, src) ] in
  Alcotest.(check bool) "short escapes on the wire" true
    (contains o.Driver.out {|"odd\tname\nwith\rcontrols.unity"|});
  let file_of report = Option.bind (Json.member "file" report) Json.to_str in
  match Option.bind (Json.member "reports" (Json.of_string o.Driver.out)) Json.to_list with
  | Some [ report ] ->
      Alcotest.(check (option string)) "report file name" (Some name) (file_of report);
      Alcotest.(check (option string)) "stats file name" (Some name)
        (Option.bind (Json.member "stats" report) file_of)
  | _ -> Alcotest.fail "expected exactly one report"

(* Several files under [stats --json] are one JSON array of the files
   that profiled, even when the first one fails to parse. *)
let test_stats_json_array_skips_failures () =
  let module Driver = Kpt_analysis.Driver in
  let spec name = (name, read_spec name) in
  let sources =
    [ ("broken.unity", "program broken\n  this is not unity\n"); spec "mutex.unity"; spec "relay.unity" ]
  in
  let o = Driver.stats { Driver.default_options with Driver.json = true } sources in
  Alcotest.(check int) "a failing file exits 1" 1 o.Driver.code;
  let files =
    match Json.of_string o.Driver.out with
    | Json.List profiles ->
        List.map (fun p -> Option.bind (Json.member "file" p) Json.to_str) profiles
    | _ -> Alcotest.fail "not a JSON array"
  in
  Alcotest.(check (list (option string))) "the profiled files, in input order"
    [ Some "mutex.unity"; Some "relay.unity" ] files

let suite =
  [
    Alcotest.test_case "surrogate pairs decode to 4-byte UTF-8" `Quick
      test_surrogate_pair_is_utf8;
    Alcotest.test_case "lone surrogates are rejected" `Quick test_lone_surrogates_rejected;
    Alcotest.test_case "\\u takes exactly four hex digits" `Quick
      test_u_escape_takes_four_hex_digits;
    Alcotest.test_case "pretty printer layout rule" `Quick test_pretty_layout_rule;
    Alcotest.test_case "check --json round-trips a file name with controls" `Quick
      test_check_json_file_name_round_trips;
    Alcotest.test_case "stats --json over several files is one array" `Quick
      test_stats_json_array_skips_failures;
  ]
