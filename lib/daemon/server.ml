(** The resident verification server behind [jahob serve], and the
    one verify path of [jahob verify] too: the CLI builds a server from
    its flags and calls {!verify} (twice for [--since]).

    One server owns one {!Jahob_core.Jahob.engine} — worker pool and
    verdict cache — and optionally one on-disk {!Store}.  Requests arrive as JSONL (see {!Proto}) over a
    Unix domain socket or stdio; each request is answered from the warm
    engine, so the Nth client pays neither prover startup nor re-proving
    of obligations any earlier client (or any earlier run, via the
    store) already settled.

    Batching model: requests are handled {e serially}, one at a time —
    the parallelism lives {e inside} a request (the engine's domain
    pool fans the batch's obligations out).  That keeps
    the cache's epoch/trim discipline trivially correct: each request is
    one batch, [new_epoch] on entry, [trim] on exit (both inside
    [Jahob.verify]).

    Store discipline: the store preloads the cache at startup (a warm
    start is logged, as is a cold start); after any request that took a
    cache miss or changed a method record, the cache's settled verdicts
    are written back with the atomic temp-then-rename write, so even a
    [kill -9] of the daemon loses at most the last request's verdicts
    and never tears the file.  A request answered wholly from the cache
    writes nothing. *)

open Jahob_core

type config = {
  opts : Jahob.options;
  store_path : string option;
  log : string -> unit; (* daemon log line sink (stderr in the CLI) *)
  reserved : unit;
      (* no setting: e2ebench/e2e.ml builds a config as
         [{ (default_config ()) with opts; store_path; log }], and were
         those all the fields, that update would be warning 23 (error
         under dune's dev profile).  Goes when that update does. *)
}

let default_config () : config =
  { opts = Jahob.default_options ();
    store_path = None;
    log = (fun msg -> Printf.eprintf "[jahob-serve] %s\n%!" msg);
    reserved = () }

type t = {
  cfg : config;
  engine : Jahob.engine;
  store : Store.t option;
  mem_source : Jahob.method_source;
      (* incremental method records when no on-disk store is configured:
         they live as long as the daemon, so successive incremental
         requests in one session still skip unchanged methods *)
  started : float; (* Clock.now at creation, for uptime *)
  mutable requests : int;
}

(** Build the resident engine and open the store (logging warm/cold),
    which warms the verdict cache. *)
let create (cfg : config) : t =
  let engine = Jahob.create_engine cfg.opts in
  let store =
    Option.map
      (Store.load ~log:cfg.log ~cache:(Jahob.engine_cache engine))
      cfg.store_path
  in
  { cfg; engine; store; mem_source = Jahob.hashtbl_source ();
    started = Clock.now (); requests = 0 }

(** Where incremental verify reads/writes method records: the on-disk
    store when configured, else the daemon-lifetime in-memory source. *)
let method_source (t : t) : Jahob.method_source =
  match t.store with Some s -> Store.source s | None -> t.mem_source

let store (t : t) : Store.t option = t.store
let engine (t : t) : Jahob.engine = t.engine

(** Write the cache and method records to disk if a request may have
    changed them. *)
let persist (t : t) : unit = Option.iter Store.sync t.store

(** One verify request: parse [files] as one program, verify it on the
    resident engine (incrementally against {!method_source} when
    [incremental]) and {!persist}.  Front-end and prover exceptions
    propagate; nothing is persisted then. *)
let verify (t : t) ~(incremental : bool) (files : string list) :
    Jahob.program_report =
  let prog =
    Trace.with_span ~cat:"frontend"
      ~args:(fun () -> [ ("files", Trace.I (List.length files)) ])
      "parse"
      (fun () -> List.concat_map Javaparser.Jparser.parse_program_file files)
  in
  let source = if incremental then Some (method_source t) else None in
  let report = Jahob.verify t.engine ?source prog in
  persist t;
  report

let shutdown (t : t) : unit =
  persist t;
  Jahob.shutdown_engine t.engine

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

let verdict_fields (v : Logic.Sequent.verdict) : Proto.field list =
  Proto.
    [ fld_str "verdict" (Logic.Sequent.verdict_kind v);
      fld_str "detail" (Logic.Sequent.verdict_to_string v) ]

let report_obj (r : Dispatch.report) : Buffer.t -> unit =
  Proto.obj
    (Proto.fld_str "name" r.Dispatch.sequent.Logic.Sequent.name
     :: verdict_fields r.Dispatch.verdict
    @ [ Proto.fld_str "prover" (Option.value r.Dispatch.prover ~default:"-");
        Proto.fld_bool "cached" r.Dispatch.cached ])

let method_obj (m : Jahob.method_report) : Buffer.t -> unit =
  let s = m.Jahob.obligations in
  let provenance_fields =
    match m.Jahob.provenance with
    | Jahob.Fresh -> []
    | Jahob.Unchanged -> [ Proto.fld_bool "changed" false ]
    | Jahob.Invalidated why ->
      [ Proto.fld_bool "changed" true;
        Proto.fld_arr "invalidated_by"
          (List.map (fun w b -> Proto.Json.add_string b w) why) ]
  in
  Proto.obj
    ([ Proto.fld_str "method" m.Jahob.method_name;
       Proto.fld_int "total" s.Dispatch.total;
       Proto.fld_int "valid" s.Dispatch.valid;
       Proto.fld_int "invalid" s.Dispatch.invalid;
       Proto.fld_int "unknown" s.Dispatch.unknown ]
    @ provenance_fields
    @ [ Proto.fld_arr "obligations"
          (List.map report_obj s.Dispatch.reports) ])

let handle_verify (t : t) id ~(incremental : bool) (files : string list) :
    string =
  match verify t ~incremental files with
  | report ->
    let counts =
      if not incremental then []
      else
        let unchanged, reverified =
          List.partition
            (fun (m : Jahob.method_report) ->
              m.Jahob.provenance = Jahob.Unchanged)
            report.Jahob.methods
        in
        [ Proto.fld_bool "incremental" true;
          Proto.fld_int "unchanged" (List.length unchanged);
          Proto.fld_int "reverified" (List.length reverified) ]
    in
    Proto.line
      (Proto.id_fields id
      @ [ Proto.fld_bool "ok" report.Jahob.ok ]
      @ counts
      @ [ Proto.fld_arr "methods"
            (List.map method_obj report.Jahob.methods) ])
  | exception e -> Proto.error_line ?id (Printexc.to_string e)

let handle_prove (t : t) id (hyps : string list) (goal : string) : string =
  let parse_all texts =
    List.fold_left
      (fun acc text ->
        match acc with
        | Error _ -> acc
        | Ok fs -> (
          match Logic.Parser.parse_opt text with
          | Some f -> Ok (f :: fs)
          | None -> Error (Printf.sprintf "unparseable formula %S" text)))
      (Ok []) texts
  in
  match (parse_all hyps, Logic.Parser.parse_opt goal) with
  | Error e, _ -> Proto.error_line ?id e
  | Ok _, None -> Proto.error_line ?id (Printf.sprintf "unparseable goal %S" goal)
  | Ok rev_hyps, Some g -> (
    let s = Logic.Sequent.make ~name:"prove" (List.rev rev_hyps) g in
    let d = Jahob.engine_dispatcher t.engine in
    Option.iter Dispatch.Cache.new_epoch (Jahob.engine_cache t.engine);
    match Dispatch.prove_sequent d s with
    | r ->
      Option.iter
        (fun c -> ignore (Dispatch.Cache.trim c))
        (Jahob.engine_cache t.engine);
      persist t;
      Proto.line
        (Proto.id_fields id
        @ verdict_fields r.Dispatch.verdict
        @ [ Proto.fld_str "prover" (Option.value r.Dispatch.prover ~default:"-");
            Proto.fld_bool "cached" r.Dispatch.cached ])
    | exception e -> Proto.error_line ?id (Printexc.to_string e))

let handle_stats (t : t) id : string =
  let cache_fields =
    match Jahob.engine_cache t.engine with
    | None -> [ Proto.fld_bool "cache" false ]
    | Some c ->
      let k = Dispatch.Cache.counters c in
      [ Proto.fld_int "cache_hits" k.Dispatch.Cache.hit_count;
        Proto.fld_int "cache_misses" k.Dispatch.Cache.miss_count;
        Proto.fld_int "cache_entries" k.Dispatch.Cache.entries;
        Proto.fld_int "cache_unknown_entries" k.Dispatch.Cache.unknown_entries;
        Proto.fld_int "cache_unknown_replayed" k.Dispatch.Cache.unknown_replayed;
        Proto.fld_int "cache_evicted" k.Dispatch.Cache.evicted_count ]
  in
  let store_fields =
    match t.store with
    | None -> []
    | Some s ->
      [ Proto.fld_str "store" (Store.path s);
        Proto.fld_str "store_status" (Store.status_to_string (Store.status s));
        Proto.fld_int "store_entries" (Store.entries s);
        Proto.fld_int "store_methods" (Store.method_count s) ]
  in
  Proto.line
    (Proto.id_fields id
    @ [ Proto.fld_int "requests" t.requests;
        Proto.fld_float "uptime_s" (Clock.now () -. t.started) ]
    @ cache_fields @ store_fields)

(** Handle one request line; [`Stop] after a shutdown request. *)
let handle (t : t) (line : string) : string * [ `Continue | `Stop ] =
  t.requests <- t.requests + 1;
  match Proto.parse_request line with
  | Error (msg, id) -> (Proto.error_line ?id msg, `Continue)
  | Ok (Proto.Verify { id; files; incremental }) ->
    (handle_verify t id ~incremental files, `Continue)
  | Ok (Proto.Prove { id; hyps; goal }) ->
    (handle_prove t id hyps goal, `Continue)
  | Ok (Proto.Stats { id }) -> (handle_stats t id, `Continue)
  | Ok (Proto.Ping { id }) ->
    (Proto.line (Proto.id_fields id @ [ Proto.fld_str "pong" "jahob" ]), `Continue)
  | Ok (Proto.Save { id }) ->
    persist t;
    ( Proto.line
        (Proto.id_fields id
        @ [ Proto.fld_bool "saved" true;
            Proto.fld_int "store_entries"
              (match t.store with Some s -> Store.entries s | None -> 0) ]),
      `Continue )
  | Ok (Proto.Shutdown { id }) ->
    (Proto.line (Proto.id_fields id @ [ Proto.fld_bool "bye" true ]), `Stop)

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

(** Serve one channel pair until EOF or a shutdown request.  Returns
    [`Stop] if shutdown was requested, [`Eof] otherwise.  Used directly
    for [--stdio] and per-connection for the socket transport. *)
let serve_channels (t : t) (ic : in_channel) (oc : out_channel) :
    [ `Stop | `Eof ] =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> `Eof
    | line ->
      if String.trim line = "" then loop ()
      else begin
        let resp, continue = handle t line in
        output_string oc resp;
        output_char oc '\n';
        flush oc;
        match continue with `Continue -> loop () | `Stop -> `Stop
      end
  in
  loop ()

(** Serve stdio until EOF, then persist and release the engine. *)
let serve_stdio (t : t) : unit =
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () -> ignore (serve_channels t stdin stdout))

(** Accept loop on a Unix domain socket: one connection at a time (the
    batch model), each served to EOF; a [shutdown] request ends the
    loop.  A stale socket file from a dead daemon is replaced. *)
let serve_unix (t : t) (path : string) : unit =
  (if Sys.file_exists path then
     (* stale socket from a previous daemon; a live one would still be
        listening, and binding over it would steal its clients anyway *)
     try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      shutdown t)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      t.cfg.log (Printf.sprintf "listening on %s" path);
      let rec accept_loop () =
        match Unix.accept sock with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | fd, _ ->
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          let outcome =
            Fun.protect
              ~finally:(fun () ->
                (try flush oc with Sys_error _ -> ());
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                try serve_channels t ic oc with Sys_error _ -> `Eof)
          in
          (match outcome with `Eof -> accept_loop () | `Stop -> ())
      in
      accept_loop ())
