(** Jahob: the top-level driver.

    [verify_file] / [verify_program] run the full pipeline of the paper:
    parse the annotated Java subset, desugar to guarded commands, generate
    weakest-precondition obligations, decompose goals, and dispatch each
    obligation to the decision-procedure portfolio. *)

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
  dispatcher : Dispatch.t; (* for per-prover statistics *)
}

let provenance_reasons (p : provenance) : string list =
  match p with Fresh | Unchanged -> [] | Invalidated why -> why

(** The default portfolio, in dispatch order: the cheap SMT core first,
    then BAPA for cardinality goals, the MONA-route for shape goals, and
    the first-order prover as the catch-all for set-algebraic goals. *)
let default_provers () : Logic.Sequent.prover list =
  [ Smt.prover; Bapa.prover; Fca.prover; Fol.prover ]

(** Fragment-admission predicates for the scheduler, keyed by prover
    name.  Only provers whose [in_fragment = false] {e provably} implies
    [prove = Unknown] may appear here — each of these fails in the same
    translation front end its predicate runs, so a skip can never change
    a verdict.  The SMT prover is deliberately absent: it abstracts
    out-of-fragment atoms propositionally ([Smt.in_fragment] false merely
    means "some atom is opaque") and can still settle such goals, so it
    must always be offered the sequent. *)
let default_admissions () : (string * (Logic.Sequent.t -> bool)) list =
  [ ("bapa", Bapa.in_fragment);
    ("mona", Fca.in_fragment);
    ("fol", Fol.in_fragment);
    ("cooper", fun s -> Presburger.Lia.in_fragment s) ]

type options = {
  provers : Logic.Sequent.prover list;
  infer_loop_invariants : bool; (* use symbolic shape analysis *)
  jobs : int; (* worker domains; 1 = sequential *)
  use_cache : bool; (* memoize verdicts of repeated obligations *)
  cache_cap : int; (* verdict-cache entry cap; 0 = the generous default *)
  budget_s : float option; (* wall-clock budget per prover call *)
  sched : Dispatch.Sched.policy; (* fixed cascade or adaptive routing *)
  race : int; (* admitted provers raced per obligation; 1 = cascade *)
}

let default_options () =
  { provers = default_provers (); infer_loop_invariants = true;
    jobs = 1; use_cache = true; cache_cap = 0; budget_s = None;
    sched = Dispatch.Sched.Adaptive; race = 1 }

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

(* loop-invariant inference uses the fast provers only; the full portfolio
   still checks the final obligations *)
let shape_provers (opts : options) : Logic.Sequent.prover list =
  List.filter
    (fun (p : Logic.Sequent.prover) ->
      p.Logic.Sequent.prover_name = "smt" || p.Logic.Sequent.prover_name = "fol")
    opts.provers

let vcgen_options ?(drop = []) ?cache (opts : options)
    (task : Gcl.Desugar.method_task) : Vcgen.options =
  if opts.infer_loop_invariants then
    { Vcgen.infer_invariant =
        Shape.infer_with_seeds ~drop ?cache (shape_provers opts)
          task.Gcl.Desugar.task_seeds }
  else Vcgen.default_options

(* ------------------------------------------------------------------ *)
(* The resident engine                                                 *)
(* ------------------------------------------------------------------ *)

(** Everything that should stay warm across verification requests: the
    worker pool, the verdict cache, the adaptive scheduler's EMAs and
    the per-prover statistics (all owned by the one dispatcher).  A
    one-shot [verify_files] builds a throwaway engine; [jahob serve]
    builds one at startup and answers every request from it. *)
type engine = {
  eng_opts : options;
  eng_pool : Dispatch.Pool.t option;
  eng_cache : Dispatch.Cache.t option;
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
     parallel and each method's obligations fan out on the same
     work-stealing deques (Pool.map nests safely) *)
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
  let dispatcher =
    Dispatch.create ?pool ?cache ?budget_s:opts.budget_s
      ~sched:
        (Dispatch.Sched.create ~policy:opts.sched ~race:opts.race
           ~admits:(default_admissions ()) ())
      opts.provers
  in
  { eng_opts = opts; eng_pool = pool; eng_cache = cache;
    eng_dispatcher = dispatcher; eng_drop_memo = Hashtbl.create 32;
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

let engine_cache (e : engine) : Dispatch.Cache.t option = e.eng_cache
let engine_dispatcher (e : engine) : Dispatch.t = e.eng_dispatcher

let shutdown_engine (e : engine) : unit =
  Option.iter Dispatch.Pool.shutdown e.eng_pool

(** Verify every method of a parsed program on a resident engine.  One
    request batch: opens a cache recency epoch on entry and trims the
    cache back under its cap on exit (both no-ops mid-batch, so a
    one-shot run behaves exactly as before). *)
(* Verify one method task on the engine: the counterexample-driven
   weakening loop — inferred invariant conjuncts that fail their own
   initiation or preservation check are dropped and the method is retried
   (the speculative-engine loop of Section 2.4).  Shared by the cold path
   ([verify_program_with]) and the incremental path
   ([verify_program_inc]). *)
let verify_task_summary (e : engine) (task : Gcl.Desugar.method_task) :
    Dispatch.summary =
  let opts = e.eng_opts in
  let cache = e.eng_cache in
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
    let vopts = vcgen_options ~drop ?cache opts task in
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
              let n = String.length name and m = String.length sub in
              let rec go i =
                if i + m > n then None
                else if String.sub name i m = sub then Some i
                else go (i + 1)
              in
              go 0
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

let verify_program_with (e : engine) (prog : Ast.program) : program_report =
  Option.iter Dispatch.Cache.new_epoch e.eng_cache;
  let tasks =
    Trace.with_span ~cat:"frontend" "desugar" (fun () ->
        Gcl.Desugar.program_tasks prog)
  in
  let verify_task task =
    { method_name = task.Gcl.Desugar.task_name;
      obligations = verify_task_summary e task;
      provenance = Fresh }
  in
  let methods = Dispatch.Pool.map_opt e.eng_pool verify_task tasks in
  Option.iter (fun c -> ignore (Dispatch.Cache.trim c)) e.eng_cache;
  { methods; ok = report_ok methods; dispatcher = e.eng_dispatcher }

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

(** A method source over a plain hashtable — the base of [--since] (one
    process verifies base then patch) and of the tests. *)
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

(* why a method must be re-verified, or [None] for "answer from the
   store" *)
let invalidation_reasons (opts : options) (source : method_source)
    ~(ctx : string) (prog : Ast.program) ~(home : string) (name : string)
    (digest : string) : string list option =
  match source.find_method name with
  | None -> Some [ "new" ]
  | Some sm ->
    if sm.sm_ctx <> ctx then Some [ "ctx" ]
    else if sm.sm_infer <> opts.infer_loop_invariants then Some [ "options" ]
    else if sm.sm_digest <> digest then Some [ "method" ]
    else begin
      let changed =
        List.filter_map
          (fun (key, old) ->
            match Vcgen.Deps.digest_of_key prog ~home key with
            | None -> Some key (* unparseable record: treat as changed *)
            | Some d -> if d <> old then Some key else None)
          sm.sm_deps
      in
      if changed = [] then None else Some changed
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

(** Incremental verification against a method store.  Each verifiable
    method is re-verified iff it is new, its own structural digest
    changed, the global desugaring context changed, or one of its
    recorded dependency digests changed — otherwise its stored verdicts
    are replayed and the method reports [Unchanged].  Re-verified
    methods with fully settled obligations are recorded back, so a cold
    run against an empty source doubles as the base run. *)
let verify_program_inc (e : engine) ~(source : method_source)
    (prog : Ast.program) : program_report =
  let opts = e.eng_opts in
  Option.iter Dispatch.Cache.new_epoch e.eng_cache;
  let ctx =
    Trace.with_span ~cat:"frontend" "ctx-digest" (fun () ->
        Vcgen.Deps.context_digest prog)
  in
  let decisions =
    List.concat_map
      (fun (c : Ast.class_decl) ->
        List.filter_map
          (fun (m : Ast.method_decl) ->
            match m.Ast.m_body with
            | None -> None
            | Some _ ->
              let name = c.Ast.c_name ^ "." ^ m.Ast.m_name in
              let dg = Javaparser.Astdiff.method_digest c.Ast.c_name m in
              let why =
                invalidation_reasons opts source ~ctx prog
                  ~home:c.Ast.c_name name dg
              in
              Some (c, m, name, dg, why))
          c.Ast.c_methods)
      prog
  in
  (* drop records of methods that no longer exist, so a re-added method
     is verified fresh rather than answered from a stale record *)
  let live = List.map (fun (_, _, n, _, _) -> n) decisions in
  List.iter
    (fun n -> if not (List.mem n live) then source.remove_method n)
    (source.list_methods ());
  let verify_one (c, m, name, dg, why) =
    match why with
    | None ->
      let sm =
        match source.find_method name with
        | Some sm -> sm
        | None -> assert false (* decided Unchanged above *)
      in
      Trace.incr "jahob.inc_unchanged";
      { method_name = name;
        obligations = Dispatch.summarize (List.map replay_report sm.sm_verdicts);
        provenance = Unchanged }
    | Some why ->
      let task =
        Trace.with_span ~cat:"frontend" "desugar" (fun () ->
            Gcl.Desugar.method_task prog c m)
      in
      let summary = verify_task_summary e task in
      source.remove_method name;
      (* only fully settled methods are recorded: the store outlives
         this process, and an Unknown holds only for the portfolio and
         resources of this run, so it must be retried next run *)
      if summary.Dispatch.unknown = 0 then
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
                summary.Dispatch.reports };
      { method_name = name; obligations = summary;
        provenance = Invalidated why }
  in
  let methods = Dispatch.Pool.map_opt e.eng_pool verify_one decisions in
  Option.iter (fun c -> ignore (Dispatch.Cache.trim c)) e.eng_cache;
  { methods; ok = report_ok methods; dispatcher = e.eng_dispatcher }

(** Verify every method of a parsed program (one-shot: builds an engine,
    verifies, releases the pool). *)
let verify_program ?(opts = default_options ()) (prog : Ast.program) :
    program_report =
  let e = create_engine opts in
  Fun.protect
    ~finally:(fun () -> shutdown_engine e)
    (fun () -> verify_program_with e prog)

(** Parse and verify files on a resident engine (the daemon's request
    handler). *)
let verify_files_with (e : engine) (paths : string list) : program_report =
  let prog =
    Trace.with_span ~cat:"frontend"
      ~args:(fun () -> [ ("files", Trace.I (List.length paths)) ])
      "parse"
      (fun () ->
        List.concat_map
          (fun p -> Javaparser.Jparser.parse_program_file p)
          paths)
  in
  verify_program_with e prog

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

let verify_file ?opts (path : string) : program_report =
  verify_files ?opts [ path ]

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
  if stats then
    Format.fprintf ppf "@[<v 2>prover statistics:%a@]@."
      Dispatch.pp_stats r.dispatcher;
  Format.fprintf ppf "overall: %s@."
    (if r.ok then "VERIFIED" else "NOT FULLY VERIFIED")
