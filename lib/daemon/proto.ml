(** The daemon wire protocol: JSON Lines, one request and one response
    per line.

    A client writes one JSON object per line and reads one JSON object
    back per request, in order.  The same protocol runs over a Unix
    domain socket ([jahob serve --socket PATH]) and over
    stdin/stdout ([jahob serve --stdio] — what the tests and
    [make serve-smoke] use).

    Requests ([id] is optional and echoed back verbatim):

    {v
    {"id":1,"cmd":"verify","files":["examples/list/List.java", ...]}
    {"id":1,"cmd":"verify","files":[...],"incremental":true}
    {"id":2,"cmd":"prove","hyps":["x <= y","y <= z"],"goal":"x <= z"}
    {"id":3,"cmd":"stats"}
    {"id":4,"cmd":"ping"}
    {"id":5,"cmd":"save"}
    {"id":6,"cmd":"shutdown"}
    v}

    Responses carry ["id"] and either the command's payload or
    ["error"].  A malformed line still gets a one-line error response
    (with ["id"] when one could be parsed), so a client never
    desynchronizes. *)

module Json = Trace.Json

type request =
  | Verify of { id : Json.t option; files : string list; incremental : bool }
      (* [incremental]: consult the method/dependency index and re-verify
         only invalidated methods; each method in the response then
         carries ["changed"] and (when re-verified) ["invalidated_by"] *)
  | Prove of { id : Json.t option; hyps : string list; goal : string }
  | Stats of { id : Json.t option }
  | Ping of { id : Json.t option }
  | Save of { id : Json.t option }
  | Shutdown of { id : Json.t option }

(* ------------------------------------------------------------------ *)
(* Response construction                                               *)
(* ------------------------------------------------------------------ *)

type field = string * (Buffer.t -> unit)

let fld_str k v : field = (k, fun b -> Json.add_string b v)
let fld_int k v : field = (k, fun b -> Buffer.add_string b (string_of_int v))
let fld_bool k v : field =
  (k, fun b -> Buffer.add_string b (if v then "true" else "false"))
let fld_float k v : field =
  (k, fun b -> Buffer.add_string b (Printf.sprintf "%.6f" v))
let fld_json k v : field = (k, fun b -> Json.add_value b v)
let fld_arr k (items : (Buffer.t -> unit) list) : field =
  ( k,
    fun b ->
      Buffer.add_char b '[';
      List.iteri
        (fun i it ->
          if i > 0 then Buffer.add_char b ',';
          it b)
        items;
      Buffer.add_char b ']' )

let obj (fields : field list) : Buffer.t -> unit =
 fun b ->
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Json.add_string b k;
      Buffer.add_char b ':';
      v b)
    fields;
  Buffer.add_char b '}'

(** Render one response line (no trailing newline). *)
let line (fields : field list) : string =
  let b = Buffer.create 256 in
  obj fields b;
  Buffer.contents b

(** The fields every response opens with: the echoed id (if any). *)
let id_fields (id : Json.t option) : field list =
  match id with None -> [] | Some v -> [ fld_json "id" v ]

let error_line ?(id : Json.t option) (msg : string) : string =
  line (id_fields id @ [ fld_str "error" msg ])

(* ------------------------------------------------------------------ *)
(* Request parsing                                                     *)
(* ------------------------------------------------------------------ *)

let string_list_member (key : string) (v : Json.t) :
    (string list option, string) result =
  match Json.member key v with
  | None -> Ok None
  | Some (Json.Arr xs) ->
    let rec go acc = function
      | [] -> Ok (Some (List.rev acc))
      | Json.Str s :: rest -> go (s :: acc) rest
      | _ -> Error (Printf.sprintf "\"%s\" must be an array of strings" key)
    in
    go [] xs
  | Some _ -> Error (Printf.sprintf "\"%s\" must be an array of strings" key)

(** Parse one request line.  [Error (msg, id)] still carries the request
    id when one was present, so the error response can be correlated. *)
let parse_request (s : string) : (request, string * Json.t option) result =
  match Json.parse_opt s with
  | None -> Error ("malformed JSON", None)
  | Some v -> (
    let id = Json.member "id" v in
    match Json.member "cmd" v with
    | Some (Json.Str cmd) -> (
      match cmd with
      | "verify" -> (
        match string_list_member "files" v with
        | Ok (Some (_ :: _ as files)) ->
          let incremental =
            match Json.member "incremental" v with
            | Some (Json.Bool b) -> b
            | _ -> false
          in
          Ok (Verify { id; files; incremental })
        | Ok _ -> Error ("\"verify\" needs a non-empty \"files\" array", id)
        | Error e -> Error (e, id))
      | "prove" -> (
        match (string_list_member "hyps" v, Json.member "goal" v) with
        | Ok hyps, Some (Json.Str goal) ->
          Ok (Prove { id; hyps = Option.value hyps ~default:[]; goal })
        | Ok _, _ -> Error ("\"prove\" needs a string \"goal\"", id)
        | Error e, _ -> Error (e, id))
      | "stats" -> Ok (Stats { id })
      | "ping" -> Ok (Ping { id })
      | "save" -> Ok (Save { id })
      | "shutdown" -> Ok (Shutdown { id })
      | other -> Error (Printf.sprintf "unknown cmd %S" other, id))
    | Some _ -> Error ("\"cmd\" must be a string", id)
    | None -> Error ("missing \"cmd\"", id))
