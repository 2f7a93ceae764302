(** The jahob command-line verifier.

    {v jahob verify FILE...     — verify all methods of the given files
       jahob vc FILE...         — print the generated obligations
       jahob parse FILE...      — parse and dump the class structure  v} *)

open Cmdliner

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Input .java files")

let no_inference_arg =
  Arg.(value & flag
       & info [ "no-inference" ]
           ~doc:"Disable loop-invariant inference (symbolic shape analysis)")

let provers_arg =
  Arg.(value & opt (some string) None
       & info [ "provers" ]
           ~doc:"Comma-separated prover order (smt, bapa, mona, fol, cooper)")

let select_provers (spec : string option) : Logic.Sequent.prover list =
  match spec with
  | None -> Jahob_core.Jahob.default_provers ()
  | Some s ->
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.map (function
         | "smt" -> Smt.prover
         | "bapa" -> Bapa.prover
         | "mona" -> Fca.prover
         | "fol" -> Fol.prover
         | "cooper" -> Presburger.Lia.prover
         | other -> failwith ("unknown prover: " ^ other))

(* human-readable front-end failures instead of raw exceptions *)
let with_frontend_errors (f : unit -> int) : int =
  try f () with
  | Javaparser.Jlexer.Lex_error (msg, line) ->
    Format.eprintf "lexical error (line %d): %s@." line msg;
    2
  | Javaparser.Jparser.Error (msg, line) ->
    Format.eprintf "parse error (line %d): %s@." line msg;
    2
  | Javaparser.Annot.Error msg ->
    Format.eprintf "annotation error: %s@." msg;
    2
  | Gcl.Desugar.Error msg ->
    Format.eprintf "semantic error: %s@." msg;
    2
  | Failure msg ->
    Format.eprintf "error: %s@." msg;
    2

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ] ~doc:"Print per-prover statistics after verifying")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Dispatch proof obligations across $(docv) worker domains. \
                 $(docv) = 0 (the default) means auto: one worker per \
                 available core, as reported by \
                 Domain.recommended_domain_count. Values are clamped to \
                 [1, 128]; 1 verifies sequentially")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the verdict cache (re-prove repeated obligations)")

let cache_cap_arg =
  Arg.(value & opt int 0
       & info [ "cache-cap" ] ~docv:"N"
           ~doc:"Cap the verdict cache at $(docv) entries, evicting the \
                 least recently used at batch boundaries; 0 (the default) \
                 keeps the generous built-in cap")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"PATH"
           ~doc:"Persistent verdict store: preload the cache from $(docv) \
                 before verifying and write newly settled verdicts back \
                 (atomic temp-then-rename; a store written under a \
                 different digest scheme is refused with a logged cold \
                 start)")

let store_cap_arg =
  Arg.(value & opt int 0
       & info [ "store-cap" ] ~docv:"N"
           ~doc:"Cap the on-disk store at $(docv) entries (LRU-evicted at \
                 save time); 0 keeps the default cap")

let budget_arg =
  Arg.(value & opt (some float) None
       & info [ "budget" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget per prover call; a prover exceeding it \
                 answers unknown and the portfolio moves on")

let sched_arg =
  Arg.(value
       & opt
           (enum
              [ ("adaptive", Dispatch.Sched.Adaptive);
                ("fixed", Dispatch.Sched.Fixed) ])
           Dispatch.Sched.Adaptive
       & info [ "sched" ] ~docv:"POLICY"
           ~doc:"Portfolio scheduling: $(b,adaptive) skips provers whose \
                 fragment rejects the obligation and orders the rest by \
                 learned expected cost-to-solve; $(b,fixed) replays the \
                 declared cascade order (skipping is sound — only provers \
                 that would answer unknown are skipped — so verdicts are \
                 identical under both policies)")

let race_arg =
  Arg.(value & opt int 1
       & info [ "race" ] ~docv:"K"
           ~doc:"Race up to $(docv) admitted provers per obligation on \
                 idle worker domains; the first settled verdict wins and \
                 the losers are cancelled at their next deadline \
                 checkpoint.  Requires --jobs > 1 to actually overlap")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a structured event log of the run to $(docv): spans \
                 for parsing, VC generation, simplification and every \
                 prover attempt, with verdicts, cache attribution and \
                 queue-wait times")

let trace_format_arg =
  Arg.(value
       & opt (enum [ ("jsonl", Trace.Jsonl); ("chrome", Trace.Chrome) ])
           Trace.Jsonl
       & info [ "trace-format" ] ~docv:"FORMAT"
           ~doc:"Trace file format: $(b,jsonl) (one JSON event per line) or \
                 $(b,chrome) (a chrome://tracing / Perfetto-loadable JSON \
                 array)")

let make_options ~no_inference ~provers ~jobs ~no_cache ~cache_cap ~budget
    ~sched ~race : Jahob_core.Jahob.options =
  { Jahob_core.Jahob.provers = select_provers provers;
    infer_loop_invariants = not no_inference;
    jobs;
    use_cache = not no_cache;
    cache_cap;
    budget_s = budget;
    sched;
    race }

let incremental_arg =
  Arg.(value & flag
       & info [ "incremental" ]
           ~doc:"Re-verify only methods whose own structure or recorded \
                 dependency digests changed; everything else is answered \
                 from the method index and reported [unchanged].  Method \
                 records live in the --store file when one is given \
                 (surviving across runs), else in memory for this run")

let since_arg =
  Arg.(value & opt (some string) None
       & info [ "since" ] ~docv:"BASE"
           ~doc:"Verify $(docv) (comma-separated .java files) first as the \
                 base version, then re-verify the given files \
                 incrementally against it: each method is reported \
                 [unchanged] or [re-verified] with its invalidation \
                 reasons")

let parse_files (files : string list) : Javaparser.Ast.program =
  List.concat_map Javaparser.Jparser.parse_program_file files

(* verify through a resident engine with the cache preloaded from the
   persistent store, then drain fresh verdicts back and sync to disk *)
let verify_with_store (opts : Jahob_core.Jahob.options) ~(store : string)
    ~(store_cap : int) ~(incremental : bool) (files : string list) :
    Jahob_core.Jahob.program_report =
  let s =
    if store_cap > 0 then Daemon.Store.load ~cap:store_cap store
    else Daemon.Store.load store
  in
  let e = Jahob_core.Jahob.create_engine opts in
  Fun.protect
    ~finally:(fun () -> Jahob_core.Jahob.shutdown_engine e)
    (fun () ->
      Option.iter
        (fun c -> Dispatch.Cache.preload c (Daemon.Store.to_preload s))
        (Jahob_core.Jahob.engine_cache e);
      let report =
        if incremental then
          Jahob_core.Jahob.verify_program_inc e
            ~source:(Daemon.Store.source s) (parse_files files)
        else Jahob_core.Jahob.verify_files_with e files
      in
      Option.iter
        (fun c -> ignore (Daemon.Store.absorb_cache s c))
        (Jahob_core.Jahob.engine_cache e);
      Daemon.Store.sync s;
      report)

(* base+patch in one process: verify BASE cold (recording method
   records), then the given files incrementally against them *)
let verify_since (opts : Jahob_core.Jahob.options) ~(base : string list)
    (files : string list) : Jahob_core.Jahob.program_report =
  let source = Jahob_core.Jahob.hashtbl_source () in
  let e = Jahob_core.Jahob.create_engine opts in
  Fun.protect
    ~finally:(fun () -> Jahob_core.Jahob.shutdown_engine e)
    (fun () ->
      ignore
        (Jahob_core.Jahob.verify_program_inc e ~source (parse_files base));
      Jahob_core.Jahob.verify_program_inc e ~source (parse_files files))

let verify_cmd =
  let run files no_inference provers stats jobs no_cache cache_cap budget
      sched race store store_cap incremental since trace_file trace_format =
    with_frontend_errors (fun () ->
        let opts =
          make_options ~no_inference ~provers ~jobs ~no_cache ~cache_cap
            ~budget ~sched ~race
        in
        (* aggregate counters feed --stats; the sink feeds --trace *)
        if stats || trace_file <> None then Trace.start_collecting ();
        Option.iter
          (fun f -> Trace.open_sink ~format:trace_format f)
          trace_file;
        let finish () = Trace.stop () in
        let verify () =
          match (since, store) with
          | Some base, _ ->
            let base =
              String.split_on_char ',' base |> List.map String.trim
            in
            verify_since opts ~base files
          | None, Some path ->
            verify_with_store opts ~store:path ~store_cap ~incremental files
          | None, None ->
            if incremental then
              (* no store: in-memory records, so this run is cold — but
                 the report still carries provenance per method *)
              let source = Jahob_core.Jahob.hashtbl_source () in
              let e = Jahob_core.Jahob.create_engine opts in
              Fun.protect
                ~finally:(fun () -> Jahob_core.Jahob.shutdown_engine e)
                (fun () ->
                  Jahob_core.Jahob.verify_program_inc e ~source
                    (parse_files files))
            else Jahob_core.Jahob.verify_files ~opts files
        in
        match verify () with
        | report ->
          finish ();
          Format.printf "%a" (Jahob_core.Jahob.pp_report ~stats) report;
          if stats then Format.printf "%a" Trace.pp_report ();
          if report.Jahob_core.Jahob.ok then 0 else 1
        | exception e ->
          finish ();
          raise e)
  in
  Cmd.v (Cmd.info "verify" ~doc:"Verify all annotated methods")
    Term.(const run $ files_arg $ no_inference_arg $ provers_arg $ stats_arg
          $ jobs_arg $ no_cache_arg $ cache_cap_arg $ budget_arg
          $ sched_arg $ race_arg $ store_arg $ store_cap_arg
          $ incremental_arg $ since_arg $ trace_arg $ trace_format_arg)

let serve_cmd =
  let stdio_flag =
    Arg.(value & flag
         & info [ "stdio" ]
             ~doc:"Serve JSONL requests on stdin/stdout until EOF (what \
                   tests and editor integrations use)")
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen for JSONL connections on a Unix domain socket at \
                   $(docv); connections are served one at a time, each \
                   request fanning out on the resident worker pool")
  in
  let run stdio socket no_inference provers jobs no_cache cache_cap budget
      sched race store store_cap =
    with_frontend_errors (fun () ->
        let opts =
          make_options ~no_inference ~provers ~jobs ~no_cache ~cache_cap
            ~budget ~sched ~race
        in
        let cfg =
          { (Daemon.Server.default_config ()) with
            Daemon.Server.opts;
            store_path = store;
            store_cap }
        in
        match (stdio, socket) with
        | true, Some _ ->
          Format.eprintf "serve: --stdio and --socket are exclusive@.";
          2
        | true, None ->
          Daemon.Server.serve_stdio (Daemon.Server.create cfg);
          0
        | false, Some path ->
          Daemon.Server.serve_unix (Daemon.Server.create cfg) path;
          0
        | false, None ->
          Format.eprintf "serve: need --stdio or --socket PATH@.";
          2)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident verification daemon: JSONL requests over a \
             Unix socket or stdio, answered from a warm engine (worker \
             pool, verdict cache, scheduler EMAs) \
             optionally backed by a persistent on-disk verdict store")
    Term.(const run $ stdio_flag $ socket_arg $ no_inference_arg
          $ provers_arg $ jobs_arg $ no_cache_arg $ cache_cap_arg
          $ budget_arg $ sched_arg $ race_arg $ store_arg $ store_cap_arg)

let vc_cmd =
  let run files =
    with_frontend_errors @@ fun () ->
    let prog =
      List.concat_map Javaparser.Jparser.parse_program_file files
    in
    let tasks = Gcl.Desugar.program_tasks prog in
    List.iter
      (fun (task : Gcl.Desugar.method_task) ->
        Format.printf "@.=== %s ===@." task.Gcl.Desugar.task_name;
        let obligations = Vcgen.method_obligations task in
        List.iteri
          (fun i (s : Logic.Sequent.t) ->
            Format.printf "@.-- obligation %d: %s@.%a@." (i + 1)
              s.Logic.Sequent.name Logic.Sequent.pp s)
          obligations)
      tasks;
    0
  in
  Cmd.v (Cmd.info "vc" ~doc:"Print generated verification conditions")
    Term.(const run $ files_arg)

let parse_cmd =
  let run files =
    with_frontend_errors @@ fun () ->
    let prog =
      List.concat_map Javaparser.Jparser.parse_program_file files
    in
    List.iter
      (fun (c : Javaparser.Ast.class_decl) ->
        Format.printf "class %s: %d fields, %d specvars, %d invariants, %d methods@."
          c.Javaparser.Ast.c_name
          (List.length c.Javaparser.Ast.c_fields)
          (List.length c.Javaparser.Ast.c_specvars)
          (List.length c.Javaparser.Ast.c_invariants)
          (List.length c.Javaparser.Ast.c_methods))
      prog;
    0
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and summarize input files")
    Term.(const run $ files_arg)

let prove_cmd =
  let hyps_arg =
    Arg.(value & opt_all string []
         & info [ "h"; "hyp" ] ~docv:"FORMULA" ~doc:"Hypothesis formula")
  in
  let goal_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"GOAL" ~doc:"Goal formula (Isabelle-subset syntax)")
  in
  let run hyps goal provers =
    let parse s =
      try Logic.Parser.parse s
      with Logic.Parser.Error m -> failwith (Printf.sprintf "%s: %s" s m)
    in
    let sequent = Logic.Sequent.make (List.map parse hyps) (parse goal) in
    let dispatcher = Dispatch.create (select_provers provers) in
    let r = Dispatch.prove_sequent dispatcher sequent in
    Format.printf "%s%s@."
      (Logic.Sequent.verdict_to_string r.Dispatch.verdict)
      (match r.Dispatch.prover with
      | Some p -> Printf.sprintf "  [settled by %s]" p
      | None -> "");
    match r.Dispatch.verdict with Logic.Sequent.Valid -> 0 | _ -> 1
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:"Prove an ad-hoc sequent with the decision-procedure portfolio")
    Term.(const run $ hyps_arg $ goal_arg $ provers_arg)

let trace_check_cmd =
  let trace_file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE" ~doc:"A JSONL trace written by --trace")
  in
  let run path =
    match Trace.check_jsonl_file path with
    | Ok s ->
      Format.printf "%s: %d events, %d spans, max depth %d@." path s.Trace.events
        s.Trace.spans s.Trace.max_depth;
      0
    | Error msg ->
      Format.eprintf "%s: %s@." path msg;
      2
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a JSONL trace file: every line parses as JSON and \
             begin/end spans balance per thread")
    Term.(const run $ trace_file_arg)

let fuzz_cmd =
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed (runs are deterministic)")
  in
  let count_arg =
    Arg.(value & opt int 1000
         & info [ "count" ] ~docv:"N" ~doc:"Sequents to generate per fragment")
  in
  let size_arg =
    Arg.(value & opt int 3
         & info [ "size" ] ~docv:"FUEL"
             ~doc:"Generator fuel; formula node count stays linear in it")
  in
  let fragment_arg =
    Arg.(value & opt (some string) None
         & info [ "fragment" ] ~docv:"FRAG"
             ~doc:"Fuzz only this fragment (euf, presburger, bapa, ws1s, \
                   fol, mixed); default: all")
  in
  let fuzz_budget_arg =
    Arg.(value & opt float 2.0
         & info [ "budget" ] ~docv:"SECONDS"
             ~doc:"Wall-clock budget per prover call (0 disables)")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Write each minimized disagreement to $(docv) as a .seq \
                   file (replayable regression tests)")
  in
  let no_oracle_arg =
    Arg.(value & flag
         & info [ "no-oracle" ]
             ~doc:"Skip the finite-model oracle (prover cross-check only)")
  in
  let max_universe_arg =
    Arg.(value & opt int 3
         & info [ "max-universe" ] ~docv:"N"
             ~doc:"Oracle enumerates universes of 1..$(docv) objects")
  in
  let int_range_arg =
    Arg.(value & opt int 4
         & info [ "int-range" ] ~docv:"N"
             ~doc:"Oracle enumerates integer values in -$(docv)..$(docv)")
  in
  let max_models_arg =
    Arg.(value & opt int 60_000
         & info [ "max-models" ] ~docv:"N"
             ~doc:"Cap on models the oracle enumerates per sequent \
                   (0 = unlimited)")
  in
  let replay_arg =
    Arg.(value & opt (some dir) None
         & info [ "replay" ] ~docv:"DIR"
             ~doc:"Instead of fuzzing, replay every .seq file in $(docv) \
                   and fail if any disagreement persists")
  in
  let no_sched_check_arg =
    Arg.(value & flag
         & info [ "no-sched-check" ]
             ~doc:"Skip the scheduler cross-check (by default every \
                   sequent also runs through a fixed-order and an \
                   adaptive dispatcher, and any verdict-kind difference \
                   is flagged: reordering and fragment skipping must \
                   never change Valid/Invalid)")
  in
  let inc_arg =
    Arg.(value & opt int 0
         & info [ "inc" ] ~docv:"N"
             ~doc:"Instead of fuzzing provers, run $(docv) iterations of \
                   the incremental-verification differential: mutate a \
                   random method of a seed program and require the \
                   incremental and from-scratch runs to agree verdict \
                   for verdict")
  in
  let fol_ab_arg =
    Arg.(value & opt int 0
         & info [ "fol" ] ~docv:"N"
             ~doc:"Instead of fuzzing the portfolio, run $(docv) \
                   iterations of the resolution prover's indexed-vs-naive \
                   engine differential on the fol fragment (generous \
                   caps, finite-model oracle on every proof)")
  in
  let mona_ab_arg =
    Arg.(value & opt int 0
         & info [ "mona" ] ~docv:"N"
             ~doc:"Instead of fuzzing the portfolio, run $(docv) \
                   iterations of the WS1S automata engine's BDD-vs-dense \
                   differential on the ws1s fragment (each decision under \
                   its own deadline; settled verdicts must be identical)")
  in
  let run seed count size fragment budget corpus no_oracle max_universe
      int_range max_models replay no_sched_check inc fol_ab mona_ab =
    let cfg =
      { Fuzz.Differ.seed;
        count;
        size;
        budget_s = budget;
        use_oracle = not no_oracle;
        max_universe;
        int_range;
        max_models = (if max_models <= 0 then None else Some max_models);
        check_sched = not no_sched_check;
      }
    in
    if inc > 0 then begin
      let r = Fuzz.Incmut.run { Fuzz.Incmut.seed; count = inc } in
      Format.printf "%a@." Fuzz.Incmut.pp_report r;
      if r.Fuzz.Incmut.divergences = [] then 0 else 1
    end
    else if fol_ab > 0 then begin
      let r =
        Fuzz.Folab.run
          ~config:
            { Fuzz.Folab.ab_seed = seed;
              ab_count = fol_ab;
              ab_size = size;
              ab_max_universe = max_universe;
              ab_int_range = int_range;
              ab_max_models =
                (if max_models <= 0 then None else Some max_models);
            }
          ()
      in
      Format.printf "%a@." Fuzz.Folab.pp_report r;
      if r.Fuzz.Folab.disagreements = [] then 0 else 1
    end
    else if mona_ab > 0 then begin
      let r =
        Fuzz.Monaab.run
          ~config:
            { Fuzz.Monaab.ab_seed = seed;
              ab_count = mona_ab;
              ab_size = size;
              ab_budget_s = (if budget > 0. then budget else 2.0);
            }
          ()
      in
      Format.printf "%a@." Fuzz.Monaab.pp_report r;
      if r.Fuzz.Monaab.disagreements = [] then 0 else 1
    end
    else
    match replay with
    | Some dir ->
      let files = Fuzz.Differ.corpus_files dir in
      let failures =
        List.filter_map
          (fun path ->
            match Fuzz.Differ.replay cfg path with
            | Ok _ ->
              Format.printf "replayed %s: agreement@." path;
              None
            | Error msg ->
              Format.eprintf "%s@." msg;
              Some path)
          files
      in
      Format.printf "replayed %d corpus files, %d failures@."
        (List.length files) (List.length failures);
      if failures = [] then 0 else 1
    | None ->
      let fragments =
        match fragment with
        | None -> Fuzz.Formgen.all_fragments
        | Some name -> (
          match Fuzz.Formgen.fragment_of_name name with
          | Some f -> [ f ]
          | None -> failwith ("unknown fragment: " ^ name))
      in
      let on_finding f =
        match corpus with
        | Some dir ->
          let path = Fuzz.Differ.save_finding ~dir f in
          Format.printf "wrote %s@." path
        | None -> ()
      in
      let total_findings = ref 0 in
      List.iter
        (fun frag ->
          let r = Fuzz.Differ.run ~on_finding cfg frag in
          total_findings := !total_findings + List.length r.Fuzz.Differ.findings;
          Format.printf "%a@." Fuzz.Differ.pp_report r)
        fragments;
      if !total_findings = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differentially fuzz the prover portfolio against a \
             finite-model oracle")
    Term.(const run $ seed_arg $ count_arg $ size_arg $ fragment_arg
          $ fuzz_budget_arg $ corpus_arg $ no_oracle_arg $ max_universe_arg
          $ int_range_arg $ max_models_arg $ replay_arg $ no_sched_check_arg
          $ inc_arg $ fol_ab_arg $ mona_ab_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "jahob" ~version:"0.1"
       ~doc:"Modular verification of data structure consistency")
    [ verify_cmd; serve_cmd; vc_cmd; parse_cmd; prove_cmd; trace_check_cmd;
      fuzz_cmd ]

let () = exit (Cmd.eval' main_cmd)
