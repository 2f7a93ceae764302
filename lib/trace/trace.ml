(** Structured tracing for the prover pipeline.

    Every stage an obligation passes through — parse, desugar, wp,
    simplify, each prover attempt — can be bracketed in a {e span}; spans
    carry attributes (prover name, verdict, formula size, cache hit/miss,
    queue wait under the domain pool) and feed three sinks:

    + {b aggregate counters}: one table of span totals and named
      counters under one mutex, read for [--stats]-style reports;
    + {b a JSON-lines event log} ([--trace FILE]): one begin/end/instant
      event per line, validated by {!check_jsonl_file};
    + {b a Chrome [trace_event] export} ([--trace-format chrome]): the
      same events as a JSON array that chrome://tracing or Perfetto load
      directly, making [-j N] scheduling gaps visible on a timeline.

    The whole layer is {e off} by default.  Every operation first reads
    one atomic flag and returns immediately when disabled — argument
    lists are thunks, so a disabled call never allocates or formats
    anything.  The bench suite asserts this fast path costs under 5% on
    the per-obligation hot loop. *)

module Json = Json

type value = S of string | I of int | F of float | B of bool

type args = (string * value) list

type format = Jsonl | Chrome

(* ------------------------------------------------------------------ *)
(* The fast-path switch and the clock                                  *)
(* ------------------------------------------------------------------ *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

(* timestamps are seconds since [start_collecting], so traces from
   different runs are comparable and small enough to print compactly *)
let epoch = Atomic.make 0.

let now_s () = Clock.now () -. Atomic.get epoch

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

type agg = { mutable count : int; mutable total_s : float }

let agg_mutex = Mutex.create ()
let span_aggs : (string, agg) Hashtbl.t = Hashtbl.create 32 (* "cat:name" *)
let counts : (string, int ref) Hashtbl.t = Hashtbl.create 32

(** Record one observation of [dt] seconds under [key] (spans do this on
    finish; usable directly for durations measured by other means). *)
let observe (key : string) (dt : float) : unit =
  if Atomic.get enabled_flag then
    Mutex.protect agg_mutex (fun () ->
        match Hashtbl.find_opt span_aggs key with
        | Some g ->
          g.count <- g.count + 1;
          g.total_s <- g.total_s +. dt
        | None -> Hashtbl.add span_aggs key { count = 1; total_s = dt })

(** Add [n] to the named counter (no-op while disabled). *)
let add (name : string) (n : int) : unit =
  if Atomic.get enabled_flag then
    Mutex.protect agg_mutex (fun () ->
        match Hashtbl.find_opt counts name with
        | Some r -> r := !r + n
        | None -> Hashtbl.add counts name (ref n))

let incr (name : string) : unit = add name 1

(* ------------------------------------------------------------------ *)
(* Event sinks                                                         *)
(* ------------------------------------------------------------------ *)

type sink = {
  channel : out_channel;
  format : format;
  mutable first : bool; (* Chrome: comma placement between events *)
}

let sink_mutex = Mutex.create ()
let sink : sink option ref = ref None

let add_json_value buf = function
  | S s -> Json.add_string buf s
  | I n -> Buffer.add_string buf (string_of_int n)
  | F x ->
    Buffer.add_string buf
      (if Float.is_finite x then Printf.sprintf "%.6g" x else "0")
  | B b -> Buffer.add_string buf (if b then "true" else "false")

let add_json_args buf (args : args) =
  Buffer.add_string buf "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Json.add_string buf k;
      Buffer.add_char buf ':';
      add_json_value buf v)
    args;
  Buffer.add_char buf '}'

(* one event, formatted for the sink's dialect *)
let format_event ~format ~ph ~ts ~tid ~cat ~name (args : args) : string =
  let buf = Buffer.create 128 in
  (match format with
  | Jsonl ->
    Buffer.add_string buf (Printf.sprintf "{\"ph\":\"%c\",\"ts\":%.6f,\"tid\":%d,\"cat\":" ph ts tid);
    Json.add_string buf cat;
    Buffer.add_string buf ",\"name\":";
    Json.add_string buf name;
    if args <> [] then begin
      Buffer.add_char buf ',';
      add_json_args buf args
    end;
    Buffer.add_string buf "}\n"
  | Chrome ->
    (* trace_event format: timestamps in microseconds, one process *)
    Buffer.add_string buf
      (Printf.sprintf "{\"ph\":\"%c\",\"ts\":%.1f,\"pid\":1,\"tid\":%d,\"cat\":" ph
         (ts *. 1e6) tid);
    Json.add_string buf cat;
    Buffer.add_string buf ",\"name\":";
    Json.add_string buf name;
    if args <> [] then begin
      Buffer.add_char buf ',';
      add_json_args buf args
    end;
    Buffer.add_char buf '}');
  Buffer.contents buf

(* format outside the lock, then write the whole line under it, so
   lines from different threads never interleave.  A thread still
   writing past [stop] finds no sink and drops its events. *)
let emit ~ph ~ts ~tid ~cat ~name (args : args) : unit =
  match !sink with
  | None -> ()
  | Some sk ->
    let line = format_event ~format:sk.format ~ph ~ts ~tid ~cat ~name args in
    Mutex.protect sink_mutex (fun () ->
        match !sink with
        | Some cur when cur == sk ->
          if sk.format = Chrome then
            if sk.first then sk.first <- false
            else output_string sk.channel ",\n";
          output_string sk.channel line
        | Some _ | None -> ())

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = { s_name : string; s_cat : string; s_t0 : float; s_tid : int; s_live : bool }

let null_span = { s_name = ""; s_cat = ""; s_t0 = 0.; s_tid = 0; s_live = false }

let force_args = function None -> [] | Some f -> (f () : args)

let span_key cat name = if cat = "" then name else cat ^ ":" ^ name

(** Open a span.  Returns {!null_span} (and does nothing) while tracing
    is disabled; [args] is only forced when an event sink is attached. *)
let start_span ?(cat = "") ?(args : (unit -> args) option) name : span =
  if not (Atomic.get enabled_flag) then null_span
  else begin
    let ts = now_s () in
    let tid = Thread.id (Thread.self ()) in
    if !sink <> None then emit ~ph:'B' ~ts ~tid ~cat ~name (force_args args);
    { s_name = name; s_cat = cat; s_t0 = ts; s_tid = tid; s_live = true }
  end

(** Close a span: records its duration in the aggregate accumulators and
    emits the end event (with [args] attached, so attributes computed
    from the result — verdicts, cache attribution — ride on the end). *)
let finish_span ?(args : (unit -> args) option) (sp : span) : unit =
  if sp.s_live then begin
    let ts = now_s () in
    observe (span_key sp.s_cat sp.s_name) (ts -. sp.s_t0);
    if !sink <> None then
      emit ~ph:'E' ~ts ~tid:sp.s_tid ~cat:sp.s_cat ~name:sp.s_name
        (force_args args)
  end

(** [with_span name f] brackets [f ()] in a span.  Exceptions propagate;
    the span closes with a ["raised"] attribute. *)
let with_span ?cat ?args name (f : unit -> 'a) : 'a =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let sp = start_span ?cat ?args name in
    match f () with
    | v ->
      finish_span sp;
      v
    | exception e ->
      finish_span ~args:(fun () -> [ ("raised", S (Printexc.to_string e)) ]) sp;
      raise e
  end

(** A point event (no duration). *)
let instant ?(cat = "") ?(args : (unit -> args) option) name : unit =
  if Atomic.get enabled_flag && !sink <> None then
    emit ~ph:'i' ~ts:(now_s ()) ~tid:(Thread.id (Thread.self ())) ~cat ~name
      (force_args args)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(** Turn collection on (aggregates always; events once a sink is open). *)
let start_collecting () : unit =
  Atomic.set epoch (Clock.now ());
  Atomic.set enabled_flag true

(** Attach a file sink.  Call before or after {!start_collecting};
    events only flow while collection is on. *)
let open_sink ?(format = Jsonl) (path : string) : unit =
  let channel = open_out path in
  if format = Chrome then output_string channel "[\n";
  Mutex.lock sink_mutex;
  sink := Some { channel; format; first = true };
  Mutex.unlock sink_mutex

(** Turn collection off and close the sink (writing the Chrome array
    footer).  Aggregates survive for {!span_stats} / {!counter_list}. *)
let stop () : unit =
  Atomic.set enabled_flag false;
  Mutex.lock sink_mutex;
  (match !sink with
  | Some sk ->
    if sk.format = Chrome then output_string sk.channel "\n]\n";
    close_out sk.channel
  | None -> ());
  sink := None;
  Mutex.unlock sink_mutex

(** Drop all accumulated aggregates (tests). *)
let reset () : unit =
  Mutex.protect agg_mutex (fun () ->
      Hashtbl.reset span_aggs;
      Hashtbl.reset counts)

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type stat = { count : int; total_s : float }

(** Span aggregates, sorted by key. *)
let span_stats () : (string * stat) list =
  Mutex.protect agg_mutex (fun () ->
      Hashtbl.fold
        (fun k (g : agg) l ->
          (k, { count = g.count; total_s = g.total_s }) :: l)
        span_aggs [])
  |> List.sort compare

(** Named counters, sorted by name. *)
let counter_list () : (string * int) list =
  Mutex.protect agg_mutex (fun () ->
      Hashtbl.fold (fun k r l -> (k, !r) :: l) counts [])
  |> List.sort compare

let counter_value (name : string) : int =
  Option.value ~default:0 (List.assoc_opt name (counter_list ()))

let pp_report ppf () =
  let stats = span_stats () in
  let counters = counter_list () in
  Format.fprintf ppf "@[<v 2>trace:";
  if stats = [] && counters = [] then Format.fprintf ppf "@,  (empty)";
  List.iter
    (fun (k, s) ->
      Format.fprintf ppf "@,  %-28s %7d spans %9.3fs total %9.1fus mean" k
        s.count s.total_s
        (if s.count = 0 then 0. else 1e6 *. s.total_s /. float_of_int s.count))
    stats;
  List.iter
    (fun (k, n) -> Format.fprintf ppf "@,  %-28s %7d" k n)
    counters;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Trace-file validation (jahob trace-check, golden tests)             *)
(* ------------------------------------------------------------------ *)

type check_summary = {
  events : int;
  spans : int; (* matched begin/end pairs *)
  max_depth : int; (* deepest nesting on any one thread *)
}

(** Validate a JSON-lines trace: every line parses as a JSON object with
    the event fields, and begin/end events nest properly per thread. *)
let check_jsonl_file (path : string) : (check_summary, string) result =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let events = ref 0 and spans = ref 0 and max_depth = ref 0 in
  let err line msg = Error (Printf.sprintf "line %d: %s" line msg) in
  let rec go line =
    match input_line ic with
    | exception End_of_file ->
      let unbalanced =
        Hashtbl.fold (fun _ stack n -> n + List.length stack) stacks 0
      in
      if unbalanced > 0 then
        Error (Printf.sprintf "%d unclosed span(s) at end of trace" unbalanced)
      else Ok { events = !events; spans = !spans; max_depth = !max_depth }
    | text -> (
      match Json.parse text with
      | exception Json.Error (msg, pos) ->
        err line (Printf.sprintf "invalid JSON at offset %d: %s" pos msg)
      | v -> (
        let str k = match Json.member k v with Some (Json.Str s) -> Some s | _ -> None in
        let num k = match Json.member k v with Some (Json.Num x) -> Some x | _ -> None in
        match str "ph", str "name", num "ts", num "tid" with
        | None, _, _, _ -> err line "missing or non-string \"ph\""
        | _, None, _, _ -> err line "missing or non-string \"name\""
        | _, _, None, _ -> err line "missing or non-numeric \"ts\""
        | _, _, _, None -> err line "missing or non-numeric \"tid\""
        | Some ph, Some name, Some ts, Some tid ->
          if ts < 0. then err line "negative timestamp"
          else begin
            Stdlib.incr events;
            let tid = int_of_float tid in
            let stack =
              Option.value ~default:[] (Hashtbl.find_opt stacks tid)
            in
            match ph with
            | "B" ->
              let stack = name :: stack in
              Hashtbl.replace stacks tid stack;
              if List.length stack > !max_depth then
                max_depth := List.length stack;
              go (line + 1)
            | "E" -> (
              match stack with
              | top :: rest when top = name ->
                Stdlib.incr spans;
                Hashtbl.replace stacks tid rest;
                go (line + 1)
              | top :: _ ->
                err line
                  (Printf.sprintf "end of %S does not match open span %S" name
                     top)
              | [] -> err line (Printf.sprintf "end of %S with no open span" name))
            | "i" | "C" -> go (line + 1)
            | other -> err line (Printf.sprintf "unknown event phase %S" other)
          end))
  in
  go 1
