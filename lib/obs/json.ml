(* Minimal JSON: a value type, a renderer, and a strict recursive-descent
   parser. Kept dependency-free so every layer of the flow can stream traces
   and metrics documents without pulling in a JSON package. The renderer and
   parser round-trip: [of_string (to_string v) = Ok v] for any value free of
   NaN/infinity (JSON has no spelling for those; they render as null). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- rendering --- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The C primitive behind [Printf]'s [%g]: [Printf.sprintf "%.12g" x] is
   exactly [format_float "%.12g" x], minus the interpretation of a format
   string on every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* shortest decimal form that reads back to the same float; integral values
   keep a ".0" so they re-parse as Float, not Int *)
let float_repr x =
  if not (Float.is_finite x) then "null"
  else
    let s = format_float "%.12g" x in
    let s = if float_of_string s = x then s else format_float "%.17g" x in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let nl_pad ~indent buf lv =
  if indent > 0 then begin
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (indent * lv) ' ')
  end

(* the one spelling of an object: [value] writes each field's value *)
let fields_to ~indent ~level buf value kvs =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, x) ->
      if i > 0 then Buffer.add_char buf ',';
      nl_pad ~indent buf (level + 1);
      escape_to buf k;
      Buffer.add_char buf ':';
      if indent > 0 then Buffer.add_char buf ' ';
      value x)
    kvs;
  nl_pad ~indent buf level;
  Buffer.add_char buf '}'

let rec render ~indent ~level buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_repr x)
  | Str s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          nl_pad ~indent buf (level + 1);
          render ~indent ~level:(level + 1) buf x)
        xs;
      nl_pad ~indent buf level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs -> fields_to ~indent ~level buf (render ~indent ~level:(level + 1) buf) kvs

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  render ~indent:(if pretty then 2 else 0) ~level:0 buf v;
  Buffer.contents buf

let rendered_obj fields =
  let buf = Buffer.create 256 in
  fields_to ~indent:0 ~level:0 buf (Buffer.add_string buf) fields;
  Buffer.contents buf

(* --- parsing --- *)

exception Malformed of string

type cursor = { s : string; mutable pos : int }

let error cur msg =
  raise (Malformed (Printf.sprintf "%s at byte %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let next cur =
  if cur.pos >= String.length cur.s then error cur "unexpected end of input";
  let c = cur.s.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let skip_ws cur =
  while
    cur.pos < String.length cur.s
    && match cur.s.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  match peek cur with
  | Some d when d = c -> cur.pos <- cur.pos + 1
  | _ -> error cur (Printf.sprintf "expected '%c'" c)

let literal cur word v =
  let n = String.length word in
  if cur.pos + n <= String.length cur.s && String.sub cur.s cur.pos n = word then begin
    cur.pos <- cur.pos + n;
    v
  end
  else error cur (Printf.sprintf "expected '%s'" word)

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex4 cur =
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match next cur with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> error cur "bad \\u escape"
    in
    v := (!v lsl 4) lor d
  done;
  !v

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match next cur with
    | '"' -> Buffer.contents buf
    | '\\' ->
        (match next cur with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            let code = hex4 cur in
            let code =
              (* combine surrogate pairs when both halves are present *)
              if
                code >= 0xD800 && code <= 0xDBFF
                && cur.pos + 1 < String.length cur.s
                && cur.s.[cur.pos] = '\\'
                && cur.s.[cur.pos + 1] = 'u'
              then begin
                let save = cur.pos in
                cur.pos <- cur.pos + 2;
                let lo = hex4 cur in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
                else begin
                  cur.pos <- save;
                  code
                end
              end
              else code
            in
            add_utf8 buf code
        | _ -> error cur "bad escape");
        go ()
    | c when Char.code c < 0x20 -> error cur "unescaped control character"
    | c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number cur =
  let start = cur.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while cur.pos < String.length cur.s && is_num_char cur.s.[cur.pos] do
    cur.pos <- cur.pos + 1
  done;
  let token = String.sub cur.s start (cur.pos - start) in
  let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') token in
  if is_float then
    match float_of_string_opt token with
    | Some x -> Float x
    | None -> error cur "bad number"
  else
    match int_of_string_opt token with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt token with
        | Some x -> Float x
        | None -> error cur "bad number")

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | Some '{' ->
      expect cur '{';
      skip_ws cur;
      if peek cur = Some '}' then begin
        expect cur '}';
        Obj []
      end
      else begin
        let kvs = ref [] in
        let rec pair () =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          kvs := (k, v) :: !kvs;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              expect cur ',';
              pair ()
          | Some '}' -> expect cur '}'
          | _ -> error cur "expected ',' or '}'"
        in
        pair ();
        Obj (List.rev !kvs)
      end
  | Some '[' ->
      expect cur '[';
      skip_ws cur;
      if peek cur = Some ']' then begin
        expect cur ']';
        List []
      end
      else begin
        let xs = ref [] in
        let rec item () =
          let v = parse_value cur in
          xs := v :: !xs;
          skip_ws cur;
          match peek cur with
          | Some ',' ->
              expect cur ',';
              item ()
          | Some ']' -> expect cur ']'
          | _ -> error cur "expected ',' or ']'"
        in
        item ();
        List (List.rev !xs)
      end
  | Some '"' -> Str (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> error cur (Printf.sprintf "unexpected '%c'" c)
  | None -> error cur "unexpected end of input"

let of_string s =
  let cur = { s; pos = 0 } in
  match parse_value cur with
  | v ->
      skip_ws cur;
      if cur.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" cur.pos)
      else Ok v
  | exception Malformed m -> Error m

(* --- accessors --- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
