(** A minimal JSON reader and writer, shared by the trace sinks and the
    daemon protocol.

    The tracer emits JSON; something in the tree must be able to read it
    back, or the golden tests and [jahob trace-check] would be trusting
    the writer to check itself.  The reader is a plain recursive-descent parser
    over the full JSON grammar (RFC 8259): [\uXXXX] escapes are decoded
    to UTF-8 (surrogate pairs combine into astral code points; lone
    surrogates become U+FFFD), and numbers are held as [float]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string * int  (** message, byte offset *)

let fail pos msg = raise (Error (msg, pos))

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st.pos (Printf.sprintf "expected %c, found %c" c c')
  | None -> fail st.pos (Printf.sprintf "expected %c, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "expected %s" word)

let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

let hex_val = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> assert false

(* UTF-8 encode one Unicode scalar value *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
      | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
      | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
      | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
      | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
      | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
      | Some 'u' ->
        advance st;
        let hex4 () =
          let v = ref 0 in
          for _ = 1 to 4 do
            match peek st with
            | Some c when is_hex c ->
              advance st;
              v := (!v lsl 4) lor hex_val c
            | _ -> fail st.pos "invalid \\u escape"
          done;
          !v
        in
        let u = hex4 () in
        (if u < 0xD800 || u > 0xDFFF then add_utf8 buf u
         else if
           (* a high surrogate followed by [\uDC00-\uDFFF] combines
              into one astral code point *)
           u <= 0xDBFF
           && st.pos + 1 < String.length st.src
           && st.src.[st.pos] = '\\'
           && st.src.[st.pos + 1] = 'u'
         then begin
           advance st;
           advance st;
           let u2 = hex4 () in
           if u2 >= 0xDC00 && u2 <= 0xDFFF then
             add_utf8 buf
               (0x10000 + ((u - 0xD800) lsl 10) + (u2 - 0xDC00))
           else begin
             (* the high surrogate was lone after all: U+FFFD for it,
                then the second escape stands on its own *)
             add_utf8 buf 0xFFFD;
             if u2 >= 0xD800 && u2 <= 0xDFFF then add_utf8 buf 0xFFFD
             else add_utf8 buf u2
           end
         end
         else
           (* lone surrogate: legal JSON, but names no scalar value *)
           add_utf8 buf 0xFFFD);
        go ()
      | _ -> fail st.pos "invalid escape")
    | Some c when Char.code c < 0x20 -> fail st.pos "control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume_digits () =
    let had = ref false in
    let rec go () =
      match peek st with
      | Some '0' .. '9' ->
        had := true;
        advance st;
        go ()
      | _ -> ()
    in
    go ();
    if not !had then fail st.pos "expected digit"
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  (* integer part: a lone 0, or [1-9] digits — no leading zeros *)
  (match peek st with
  | Some '0' -> (
    advance st;
    match peek st with
    | Some '0' .. '9' -> fail st.pos "leading zero in number"
    | _ -> ())
  | _ -> consume_digits ());
  (match peek st with
  | Some '.' ->
    advance st;
    consume_digits ()
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    consume_digits ()
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some x -> Num x
  | None -> fail start ("bad number: " ^ text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((k, v) :: acc)
        | Some '}' ->
          advance st;
          Obj (List.rev ((k, v) :: acc))
        | _ -> fail st.pos "expected , or } in object"
      in
      members []
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elements (v :: acc)
        | Some ']' ->
          advance st;
          Arr (List.rev (v :: acc))
        | _ -> fail st.pos "expected , or ] in array"
      in
      elements []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected character %c" c)

(** Parse a complete JSON document; trailing garbage is an error. *)
let parse (s : string) : t =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st.pos "trailing characters";
  v

let parse_opt (s : string) : t option =
  match parse s with v -> Some v | exception Error _ -> None

(** Object field lookup; [None] on non-objects and missing keys. *)
let member (key : string) (v : t) : t option =
  match v with Obj kvs -> List.assoc_opt key kvs | _ -> None

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

(** Append [s] as a JSON string literal: quotes, backslashes and control
    characters escaped, every other byte (UTF-8 included) verbatim. *)
let add_string (b : Buffer.t) (s : string) : unit =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(** Append a parsed value back as JSON (integral numbers print without a
    fraction, so an echoed request id reads back as it was sent). *)
let rec add_value (b : Buffer.t) (v : t) : unit =
  let seq add_item xs =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        add_item x)
      xs
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" f)
    else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Str s -> add_string b s
  | Arr xs ->
    Buffer.add_char b '[';
    seq (add_value b) xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    seq
      (fun (k, x) ->
        add_string b k;
        Buffer.add_char b ':';
        add_value b x)
      kvs;
    Buffer.add_char b '}'
