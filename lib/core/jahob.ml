(** Jahob: the top-level driver.

    [verify] runs the full pipeline of the paper on a parsed program:
    desugar to guarded commands, generate weakest-precondition
    obligations, decompose goals, and dispatch each obligation to the
    decision-procedure portfolio — on every method, or, given a method
    source, on the methods no record answers for.  [verify_files] parses
    the annotated Java subset first. *)

module Ast = Javaparser.Ast

type provenance =
  | Fresh (* cold verification: VCs generated and dispatched *)
  | Unchanged (* incremental: answered entirely from the method store *)
  | Invalidated of string list
      (* incremental: re-verified, with the reasons — "new", "method",
         "ctx", "options", or the dep keys whose digests changed *)

type method_report = {
  method_name : string;
  obligations : Dispatch.summary;
  provenance : provenance;
}

type program_report = {
  methods : method_report list;
  ok : bool; (* every obligation of every method proved *)
  dispatcher : Dispatch.t; (* for the verdict-cache statistics *)
}

(** The default portfolio, in dispatch order: the cheap SMT core first,
    then BAPA for cardinality goals, and the first-order prover as the
    catch-all for set-algebraic goals.  The MONA route ([lib/fca]) is not
    in it: it has settled no corpus obligation, so it runs only in the
    bench and the fuzzer. *)
let default_provers () : Logic.Sequent.prover list =
  [ Smt.prover; Bapa.prover; Fol.prover ]

type options = {
  provers : Logic.Sequent.prover list;
  infer_loop_invariants : bool; (* use symbolic shape analysis *)
  jobs : int; (* worker domains; 1 = sequential *)
  use_cache : bool; (* memoize verdicts of repeated obligations *)
  cache_cap : int; (* verdict-cache entry cap; 0 = the generous default *)
  budget_s : float option; (* wall-clock budget per prover call *)
}

let default_options () =
  { provers = default_provers (); infer_loop_invariants = true;
    jobs = 1; use_cache = true; cache_cap = 0; budget_s = None }

(* a ceiling on worker domains: beyond any real core count, more domains
   only add stop-the-world GC synchronization cost *)
let max_jobs = 128

(** Resolve a requested [jobs] value: [j <= 0] means "auto" — one worker
    per core as reported by [Domain.recommended_domain_count] — and
    anything above {!max_jobs} is clamped.  The CLI exposes this as
    [-j 0]; the library default stays [jobs = 1] (deterministic
    sequential verification) for embedders. *)
let effective_jobs (j : int) : int =
  if j <= 0 then min (Domain.recommended_domain_count ()) max_jobs
  else min j max_jobs

let vcgen_options ?(drop = []) (opts : options) (dispatcher : Dispatch.t)
    (task : Gcl.Desugar.method_task) : Vcgen.options =
  if opts.infer_loop_invariants then
    { Vcgen.infer_invariant =
        Shape.infer ~drop dispatcher ~seeds:task.Gcl.Desugar.task_seeds }
  else Vcgen.default_options

(* ------------------------------------------------------------------ *)
(* The resident engine                                                 *)
(* ------------------------------------------------------------------ *)

(** Everything that should stay warm across verification requests: the
    worker pool and the one dispatcher, with its verdict cache, that
    proves both the obligations and shape inference's Houdini checks.  A
    one-shot [verify_files] builds a throwaway engine; [jahob serve]
    builds one at startup and answers every request from it. *)
type engine = {
  eng_opts : options;
  eng_pool : Dispatch.Pool.t option;
  eng_dispatcher : Dispatch.t;
  eng_drop_memo : (string, Logic.Form.t list) Hashtbl.t;
  eng_drop_lock : Mutex.t;
      (* converged counterexample-driven drop lists per method, keyed by
         the digests of the method's round-0 obligations.  The verdict
         cache replays the doomed inferred conjuncts' deterministic
         Unknowns, but a resident engine re-verifying an unchanged method
         would still regenerate and look up every round's obligations
         (and re-run shape inference for each) just to re-discover the
         same drops.  Jumping straight to the converged round makes
         e2ebench's warm resubmits about a third faster and its edit
         streams about a quarter faster than replay alone.  Only
         fixpoints are memoized, so a warm replay proves the exact same
         obligation set as the round the cold run converged to. *)
}

let create_engine (opts : options) : engine =
  (* one pool serves both fan-out levels: methods are verified in
     parallel and each method's obligations fan out on the same shared
     queue (Pool.map nests safely) *)
  let jobs = effective_jobs opts.jobs in
  let pool = if jobs > 1 then Some (Dispatch.Pool.create ~jobs) else None in
  let cache =
    if opts.use_cache then
      Some
        (if opts.cache_cap > 0 then
           Dispatch.Cache.create ~cap:opts.cache_cap ()
         else Dispatch.Cache.create ())
    else None
  in
  (* shape inference's initiation and preservation checks go through
     this dispatcher too: they repeat across weakening rounds and across
     daemon requests, and the cache settles each once *)
  { eng_opts = opts; eng_pool = pool;
    eng_dispatcher =
      Dispatch.create ?pool ?cache ?budget_s:opts.budget_s opts.provers;
    eng_drop_memo = Hashtbl.create 32;
    eng_drop_lock = Mutex.create () }

(* identity of a method for the drop memo: its name plus the digests of
   its round-0 obligations (canonical, so stable across requests even
   though desugaring re-mints fresh constants) *)
let drop_key (task : Gcl.Desugar.method_task)
    (obligations : Logic.Sequent.t list) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf task.Gcl.Desugar.task_name;
  List.iter
    (fun sq ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (Logic.Sequent.digest sq))
    obligations;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let drop_memo_find (e : engine) (k : string) : Logic.Form.t list option =
  Mutex.lock e.eng_drop_lock;
  let r = Hashtbl.find_opt e.eng_drop_memo k in
  Mutex.unlock e.eng_drop_lock;
  r

let drop_memo_add (e : engine) (k : string) (v : Logic.Form.t list) : unit =
  Mutex.lock e.eng_drop_lock;
  (if not (Hashtbl.mem e.eng_drop_memo k) then Hashtbl.replace e.eng_drop_memo k v);
  Mutex.unlock e.eng_drop_lock

let engine_cache (e : engine) : Dispatch.Cache.t option =
  Dispatch.cache e.eng_dispatcher
let engine_dispatcher (e : engine) : Dispatch.t = e.eng_dispatcher

let shutdown_engine (e : engine) : unit =
  Option.iter Dispatch.Pool.shutdown e.eng_pool

(* Verify one method task on the engine: the counterexample-driven
   weakening loop — inferred invariant conjuncts that fail their own
   initiation or preservation check are dropped and the method is retried
   (the speculative-engine loop of Section 2.4).  {!verify} runs it on
   every method it does not replay from a record. *)
let verify_task_summary (e : engine) (task : Gcl.Desugar.method_task) :
    Dispatch.summary =
  let opts = e.eng_opts in
  let dispatcher = e.eng_dispatcher in
  let rec attempt round key (drop : Logic.Form.t list) =
    Trace.with_span ~cat:"verify"
      ~args:(fun () ->
        [ ("method", Trace.S task.Gcl.Desugar.task_name);
          ("round", Trace.I round);
          ("dropped", Trace.I (List.length drop)) ])
      "round"
      (fun () -> attempt_once round key drop)
  and attempt_once round key (drop : Logic.Form.t list) =
    let vopts = vcgen_options ~drop opts dispatcher task in
    let obligations = Vcgen.method_obligations ~opts:vopts task in
    let key =
      if round = 0 then Some (drop_key task obligations) else key
    in
    match
      if round = 0 then Option.bind key (drop_memo_find e) else None
    with
    | Some drops ->
      (* a previous request converged on this exact method: skip
         straight to the fixpoint round instead of replaying the
         rounds that drop the doomed conjuncts *)
      Trace.incr "jahob.drop_memo_hit";
      attempt 1 key drops
    | None ->
    let reports = Dispatch.prove_all dispatcher obligations in
    let summary = Dispatch.summarize reports in
    (* a failing inferred conjunct announces itself in its label as
       "loop invariant <stage> :: <formula>" *)
    let failed_inferred =
      List.filter_map
        (fun (r : Dispatch.report) ->
          match r.Dispatch.verdict with
          | Logic.Sequent.Valid -> None
          | _ ->
            let name = r.Dispatch.sequent.Logic.Sequent.name in
            let find_sub sub =
              try Some (Javaparser.Str_index.find name sub)
              with Not_found -> None
            in
            if find_sub "loop invariant" = None then None
            else
              match find_sub " :: " with
              | Some i when opts.infer_loop_invariants -> (
                let text =
                  String.sub name (i + 4) (String.length name - i - 4)
                in
                match Logic.Parser.parse_opt text with
                | Some f -> Some f
                | None -> None)
              | _ -> None)
        reports
    in
    let new_drops =
      List.filter
        (fun g -> not (List.exists (Logic.Form.equal g) drop))
        failed_inferred
    in
    if new_drops <> [] && round < 3 then
      attempt (round + 1) key (drop @ new_drops)
    else begin
      (* memoize only fixpoints reached after actual weakening: a
         replay then provably reproduces this very round, while a
         round-limit abort keeps replaying the full loop unchanged *)
      (if new_drops = [] && drop <> [] then
         Option.iter (fun k -> drop_memo_add e k drop) key);
      summary
    end
  in
  Trace.with_span ~cat:"verify"
    ~args:(fun () -> [ ("method", Trace.S task.Gcl.Desugar.task_name) ])
    "method"
    (fun () -> attempt 0 None [])

let report_ok (methods : method_report list) : bool =
  List.for_all
    (fun m -> m.obligations.Dispatch.valid = m.obligations.Dispatch.total)
    methods

(* ------------------------------------------------------------------ *)
(* Incremental re-verification                                         *)
(* ------------------------------------------------------------------ *)

type stored_method = {
  sm_name : string; (* "List.add" *)
  sm_digest : string; (* structural digest of the method itself *)
  sm_ctx : string; (* Vcgen.Deps.context_digest at record time *)
  sm_infer : bool; (* infer_loop_invariants when the verdicts were made *)
  sm_deps : (string * string) list; (* dep key -> digest at record time *)
  sm_verdicts : (string * string * string) list;
      (* (obligation name, verdict kind, prover); only settled verdicts
         ("valid"/"invalid") are ever recorded *)
}

(** Where incremental verification reads and writes per-method records.
    [jahob serve] and [--store] back this with the persistent
    {!module:Daemon.Store}; tests back it with a hashtable.  All four
    functions may be called concurrently from pool worker domains, so
    implementations must be thread-safe. *)
type method_source = {
  find_method : string -> stored_method option;
  record_method : stored_method -> unit;
  remove_method : string -> unit;
  list_methods : unit -> string list;
}

(** A method source over a plain hashtable — a store-less daemon's (and
    so a store-less [jahob verify]'s) records, and the tests'. *)
let hashtbl_source () : method_source =
  let tbl : (string, stored_method) Hashtbl.t = Hashtbl.create 32 in
  let lock = Mutex.create () in
  let locked f = Mutex.lock lock; Fun.protect ~finally:(fun () -> Mutex.unlock lock) f in
  { find_method = (fun n -> locked (fun () -> Hashtbl.find_opt tbl n));
    record_method =
      (fun sm -> locked (fun () -> Hashtbl.replace tbl sm.sm_name sm));
    remove_method = (fun n -> locked (fun () -> Hashtbl.remove tbl n));
    list_methods =
      (fun () ->
        locked (fun () -> Hashtbl.fold (fun n _ acc -> n :: acc) tbl [])) }

(* the record that answers for a method, or why it must be re-verified *)
let check_record (opts : options) (source : method_source) ~(ctx : string)
    (prog : Ast.program) ~(home : string) (name : string) (digest : string) :
    (stored_method, string list) result =
  match source.find_method name with
  | None -> Error [ "new" ]
  | Some sm ->
    if sm.sm_ctx <> ctx then Error [ "ctx" ]
    else if sm.sm_infer <> opts.infer_loop_invariants then Error [ "options" ]
    else if sm.sm_digest <> digest then Error [ "method" ]
    else begin
      let changed =
        List.filter_map
          (fun (key, old) ->
            match Vcgen.Deps.digest_of_key prog ~home key with
            | None -> Some key (* unparseable record: treat as changed *)
            | Some d -> if d <> old then Some key else None)
          sm.sm_deps
      in
      if changed = [] then Ok sm else Error changed
    end

(* a stored verdict replayed as a report: the obligation itself is not
   regenerated (that is the whole point), so the sequent is a named
   placeholder *)
let replay_report ((oname, kind, prover) : string * string * string) :
    Dispatch.report =
  { Dispatch.sequent = Logic.Sequent.make ~name:oname [] Logic.Form.mk_true;
    verdict =
      (if kind = "valid" then Logic.Sequent.Valid
       else Logic.Sequent.Invalid "stored countermodel");
    prover = (if prover = "" then None else Some prover);
    cached = true;
    limited = false }

(** Verify every method of a parsed program on a resident engine.  One
    request batch: opens a cache recency epoch on entry and trims the
    cache back under its cap on exit.  Without [source] every method is
    verified and reports [Fresh]; no digest is computed and nothing is
    recorded.  With [source], each method is re-verified iff it is new,
    its own structural digest changed, the global desugaring context
    changed, or one of its recorded dependency digests changed —
    otherwise its stored verdicts are replayed and the method reports
    [Unchanged].  Re-verified methods with fully settled obligations are
    recorded back, so a run against an empty source doubles as the base
    run. *)
let verify (e : engine) ?(source : method_source option) (prog : Ast.program)
    : program_report =
  let opts = e.eng_opts in
  Option.iter Dispatch.Cache.new_epoch (engine_cache e);
  let ctx =
    match source with
    | None -> ""
    | Some _ ->
      Trace.with_span ~cat:"frontend" "ctx-digest" (fun () ->
          Vcgen.Deps.context_digest prog)
  in
  (* per method with a body: [Ok sm] when the record [sm] answers for
     it, [Error p] when it is verified and reports provenance [p] *)
  let decisions =
    List.concat_map
      (fun (c : Ast.class_decl) ->
        List.filter_map
          (fun (m : Ast.method_decl) ->
            Option.map
              (fun _ ->
                let name = c.Ast.c_name ^ "." ^ m.Ast.m_name in
                let dg, plan =
                  match source with
                  | None -> ("", Error Fresh)
                  | Some source ->
                    let dg = Javaparser.Astdiff.method_digest c.Ast.c_name m in
                    ( dg,
                      check_record opts source ~ctx prog ~home:c.Ast.c_name
                        name dg
                      |> Result.map_error (fun why -> Invalidated why) )
                in
                (c, m, name, dg, plan))
              m.Ast.m_body)
          c.Ast.c_methods)
      prog
  in
  (* drop records of methods that no longer exist, so a re-added method
     is verified fresh rather than answered from a stale record.  Only
     this program's classes are swept: a source shared across programs
     (a daemon's) keeps the other programs' records *)
  Option.iter
    (fun source ->
      let live = List.map (fun (_, _, n, _, _) -> n) decisions in
      let in_program n =
        match String.index_opt n '.' with
        | Some i ->
          let cls = String.sub n 0 i in
          List.exists (fun (c : Ast.class_decl) -> c.Ast.c_name = cls) prog
        | None -> false
      in
      List.iter
        (fun n ->
          if in_program n && not (List.mem n live) then source.remove_method n)
        (source.list_methods ()))
    source;
  (* desugar every method that no record answers for, before any is
     proved *)
  let jobs =
    Trace.with_span ~cat:"frontend" "desugar" (fun () ->
        List.map
          (fun (c, m, name, dg, plan) ->
            ( c, name, dg,
              Result.map_error
                (fun provenance -> (Gcl.Desugar.method_task prog c m, provenance))
                plan ))
          decisions)
  in
  let verify_one (c, name, dg, job) =
    match job with
    | Ok sm ->
      Trace.incr "jahob.inc_unchanged";
      { method_name = name;
        obligations = Dispatch.summarize (List.map replay_report sm.sm_verdicts);
        provenance = Unchanged }
    | Error (task, provenance) ->
      let summary = verify_task_summary e task in
      (* only fully settled methods are recorded: the store outlives
         this process, and an Unknown holds only for the portfolio and
         resources of this run, so it must be retried next run.  An
         unsettled method keeps its last settled record, if any: the
         digests in it keep it from answering for this body, and an
         edit back to the recorded body replays it *)
      (match source with
       | Some source when summary.Dispatch.unknown = 0 ->
         source.record_method
           { sm_name = name; sm_digest = dg; sm_ctx = ctx;
             sm_infer = opts.infer_loop_invariants;
             sm_deps = Vcgen.Deps.task_deps prog ~home:c.Ast.c_name task;
             sm_verdicts =
               List.map
                 (fun (r : Dispatch.report) ->
                   ( r.Dispatch.sequent.Logic.Sequent.name,
                     Logic.Sequent.verdict_kind r.Dispatch.verdict,
                     Option.value r.Dispatch.prover ~default:"" ))
                 summary.Dispatch.reports }
       | _ -> ());
      { method_name = name; obligations = summary; provenance }
  in
  let methods = Dispatch.Pool.map_opt e.eng_pool verify_one jobs in
  Option.iter (fun c -> ignore (Dispatch.Cache.trim c)) (engine_cache e);
  { methods; ok = report_ok methods; dispatcher = e.eng_dispatcher }

(** Verify every method of a parsed program (one-shot: builds an engine,
    verifies, releases the pool). *)
let verify_program ?(opts = default_options ()) (prog : Ast.program) :
    program_report =
  let e = create_engine opts in
  Fun.protect ~finally:(fun () -> shutdown_engine e) (fun () -> verify e prog)

(** Parse and verify one or more source files as a single program. *)
let verify_files ?(opts = default_options ()) (paths : string list) :
    program_report =
  let prog =
    Trace.with_span ~cat:"frontend"
      ~args:(fun () -> [ ("files", Trace.I (List.length paths)) ])
      "parse"
      (fun () ->
        List.concat_map
          (fun p -> Javaparser.Jparser.parse_program_file p)
          paths)
  in
  verify_program ~opts prog

let pp_report ?(stats = false) ppf (r : program_report) =
  List.iter
    (fun m ->
      let tag =
        match m.provenance with
        | Fresh -> ""
        | Unchanged -> " [unchanged]"
        | Invalidated why ->
          Printf.sprintf " [re-verified: %s]" (String.concat ", " why)
      in
      Format.fprintf ppf "@[<v 2>%s%s: %a@]@." m.method_name tag
        Dispatch.pp_summary m.obligations)
    r.methods;
  if stats then Dispatch.pp_stats ppf r.dispatcher;
  Format.fprintf ppf "overall: %s@."
    (if r.ok then "VERIFIED" else "NOT FULLY VERIFIED")
