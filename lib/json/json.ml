type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Num of string
  | Table of (string * t) list

exception Parse_error of string

(* ---- printing -------------------------------------------------------------- *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_quoted b s =
  Buffer.add_char b '"';
  escape_into b s;
  Buffer.add_char b '"'

let sep_by b sep f xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b sep;
      f x)
    xs

let rec encode b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      (* round-trippable, and never "nan"/"inf" (not JSON): degrade to null *)
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | Num lit -> Buffer.add_string b lit
  | String s -> add_quoted b s
  | List l ->
      Buffer.add_char b '[';
      sep_by b "," (encode b) l;
      Buffer.add_char b ']'
  | Obj kvs | Table kvs ->
      Buffer.add_char b '{';
      sep_by b ","
        (fun (k, v) ->
          add_quoted b k;
          Buffer.add_char b ':';
          encode b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  encode b v;
  Buffer.contents b

let fixed digits x = Num (Printf.sprintf "%.*f" digits x)

(* The layout rule of [pretty]: a container whose children are all
   scalars fits on one line; anything else, and every non-empty [Table],
   gets one member per line.  One-line elements of a multi-line list are
   indented one step; multi-line elements sit at the list's own indent. *)
let is_scalar = function List _ | Obj _ | Table _ -> false | _ -> true

let one_line = function
  | List l -> List.for_all is_scalar l
  | Obj kvs -> List.for_all (fun (_, v) -> is_scalar v) kvs
  | Table kvs -> kvs = []
  | _ -> true

let rec layout b ind v =
  let newline ind =
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make ind ' ')
  in
  let member ind (k, v) =
    add_quoted b k;
    Buffer.add_string b ": ";
    layout b ind v
  in
  match v with
  | List l when one_line v ->
      Buffer.add_char b '[';
      sep_by b ", " (encode b) l;
      Buffer.add_char b ']'
  | Obj [] | Table [] -> Buffer.add_string b "{}"
  | Obj kvs when one_line v ->
      Buffer.add_string b "{ ";
      sep_by b ", " (member ind) kvs;
      Buffer.add_string b " }"
  | List l ->
      Buffer.add_char b '[';
      sep_by b ","
        (fun x ->
          let ind = if one_line x then ind + 2 else ind in
          newline ind;
          layout b ind x)
        l;
      newline ind;
      Buffer.add_char b ']'
  | Obj kvs | Table kvs ->
      Buffer.add_char b '{';
      sep_by b ","
        (fun kv ->
          newline (ind + 2);
          member (ind + 2) kv)
        kvs;
      newline ind;
      Buffer.add_char b '}'
  | scalar -> encode b scalar

let pretty v =
  let b = Buffer.create 1024 in
  layout b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ---- parsing --------------------------------------------------------------- *)

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* Encode a Unicode code point as UTF-8 (for \uXXXX escapes). *)
let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail "expected '%c' at offset %d, got '%c'" c !pos c'
    | None -> fail "expected '%c' at offset %d, got end of input" c !pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "invalid literal at offset %d" !pos
  in
  (* the code unit of the [\uXXXX] escape at [i]: exactly four hex digits *)
  let code_unit i =
    if i + 6 > n || s.[i] <> '\\' || s.[i + 1] <> 'u' then
      fail "expected a \\u escape at offset %d" i;
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "invalid \\u escape at offset %d" i
    in
    let v = ref 0 in
    for k = i + 2 to i + 5 do
      v := (16 * !v) + digit s.[k]
    done;
    !v
  in
  (* a [\u] escape, or a UTF-16 surrogate pair of two, as one code point *)
  let escaped_code_point () =
    let at = !pos in
    let hi = code_unit at in
    pos := at + 6;
    let is_low u = u >= 0xdc00 && u <= 0xdfff in
    if is_low hi then fail "lone low surrogate at offset %d" at
    else if hi < 0xd800 || hi > 0xdbff then hi
    else
      match code_unit !pos with
      | lo when is_low lo ->
          pos := at + 12;
          0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00)
      | _ | (exception Parse_error _) -> fail "lone high surrogate at offset %d" at
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 32 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' when !pos + 1 < n && s.[!pos + 1] = 'u' ->
            add_utf8 b (escaped_code_point ());
            go ()
        | '\\' ->
            if !pos + 1 >= n then fail "truncated escape";
            (match s.[!pos + 1] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | c -> fail "invalid escape '\\%c'" c);
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char b c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "invalid number %S at offset %d" tok start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}' at offset %d" !pos
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']' at offset %d" !pos
          in
          List (elements [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input at offset %d" !pos;
  v

(* ---- accessors ------------------------------------------------------------- *)

let member k = function Obj kvs | Table kvs -> List.assoc_opt k kvs | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
