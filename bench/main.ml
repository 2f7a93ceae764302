(** Benchmark and reproduction harness.

    One target per experiment row in DESIGN.md §4.  The paper is an
    overview paper with code-listing figures and prose claims rather than
    numeric tables; each harness regenerates the corresponding artifact:
    verification outcomes for the paper's figures and case studies, and
    timing/scaling series for the decision-procedure portfolio.

    Run all:            [dune exec bench/main.exe]
    Run one experiment: [dune exec bench/main.exe -- fig1_4]          *)

open Logic

let examples_dir =
  let candidates =
    [ "examples"; "../examples"; "../../examples"; "../../../examples" ]
  in
  match
    List.find_opt (fun d -> Sys.file_exists (d ^ "/list/List.java")) candidates
  with
  | Some d -> d
  | None -> "examples"

let time_it f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.now () -. t0)

let header title =
  Printf.printf "\n==============================================\n%s\n==============================================\n%!"
    title

(* --------------- machine-readable output (--json) ------------------ *)

(* worker domains used by verification-driven experiments (bench -j N) *)
let bench_jobs = ref 1
let json_mode = ref false

(* per-experiment accumulators, reset by the driver before each run *)
let acc_total = ref 0
let acc_valid = ref 0
let acc_invalid = ref 0
let acc_unknown = ref 0
let json_extra : (string * string) list ref = ref []

let reset_accumulators () =
  acc_total := 0;
  acc_valid := 0;
  acc_invalid := 0;
  acc_unknown := 0;
  json_extra := []

(* attach a raw JSON fragment to the current experiment's record *)
let note_json key value = json_extra := (key, value) :: !json_extra

let count_report (report : Jahob_core.Jahob.program_report) =
  List.iter
    (fun (m : Jahob_core.Jahob.method_report) ->
      let s = m.Jahob_core.Jahob.obligations in
      acc_total := !acc_total + s.Dispatch.total;
      acc_valid := !acc_valid + s.Dispatch.valid;
      acc_invalid := !acc_invalid + s.Dispatch.invalid;
      acc_unknown := !acc_unknown + s.Dispatch.unknown)
    report.Jahob_core.Jahob.methods

let bench_opts () =
  { (Jahob_core.Jahob.default_options ()) with
    Jahob_core.Jahob.jobs = !bench_jobs }

let verify_and_report files =
  let files = List.map (fun f -> examples_dir ^ "/" ^ f) files in
  let report, dt =
    time_it (fun () ->
        Jahob_core.Jahob.verify_files ~opts:(bench_opts ()) files)
  in
  count_report report;
  List.iter
    (fun (m : Jahob_core.Jahob.method_report) ->
      let s = m.Jahob_core.Jahob.obligations in
      Printf.printf "  %-28s %3d obligations: %3d valid %3d invalid %3d unknown\n"
        m.Jahob_core.Jahob.method_name s.Dispatch.total s.Dispatch.valid
        s.Dispatch.invalid s.Dispatch.unknown)
    report.Jahob_core.Jahob.methods;
  Printf.printf "  total time: %.2fs\n%!" dt;
  report

(* ------------------------------------------------------------------ *)
(* FIG1-4: the paper's List figures                                    *)
(* ------------------------------------------------------------------ *)

let fig1_4 () =
  header
    "FIG1-4: Figures 1-4 (List spec, client, implementation) — verbatim";
  Printf.printf
    "paper claim: Jahob verifies data structure consistency of the List\n\
    \  example: client-level set reasoning and (with the full shape toolbox)\n\
    \  the implementation's abstraction.  We reproduce the client side fully\n\
    \  automatically; implementation-side inductive obligations that the\n\
    \  paper discharges with MONA/Isabelle remain 'unknown' here (see\n\
    \  EXPERIMENTS.md).\n";
  ignore (verify_and_report [ "list/Client.java"; "list/List.java" ])

let fig1_4_annotated () =
  header "FIG1-4b: the same example with intermediate assertions (Section 3)";
  Printf.printf
    "paper claim: \"By providing intermediate assertions we have verified\n\
    \  implementations...\" — the annotated variant strengthens getOne's\n\
    \  interface and bridges the inductive steps.\n";
  ignore
    (verify_and_report
       [ "list_annotated/Client.java"; "list_annotated/List.java" ])

(* ------------------------------------------------------------------ *)
(* S3-GLOBAL: global (static) data structure                           *)
(* ------------------------------------------------------------------ *)

let s3_global () =
  header "S3-GLOBAL: verified use of a global data structure (Section 3)";
  ignore (verify_and_report [ "global/Buffer.java" ])

(* ------------------------------------------------------------------ *)
(* S3-ASSOC: association list                                          *)
(* ------------------------------------------------------------------ *)

let s3_assoc () =
  header "S3-ASSOC: association-list operations (Section 3)";
  ignore (verify_and_report [ "assoc/AssocClient.java"; "assoc/Assoc.java" ])

(* ------------------------------------------------------------------ *)
(* S3-GAME: turn-based strategy game                                   *)
(* ------------------------------------------------------------------ *)

let s3_game () =
  header "S3-GAME: high-level properties of a turn-based game (Section 3)";
  ignore (verify_and_report [ "game/Game.java" ])

(* ------------------------------------------------------------------ *)
(* S2-ARRAY: array-based data (Section 2.4)                            *)
(* ------------------------------------------------------------------ *)

let s2_array () =
  header "S2-ARRAY: array operations with bounds obligations (Section 2.4)";
  Printf.printf
    "paper claim: array-based structures \"produce very different\n\
    \  verification conditions\", handled by the Nelson-Oppen provers.\n";
  ignore (verify_and_report [ "arrays/ArrayOps.java" ])

(* ------------------------------------------------------------------ *)
(* S3-CARD: cardinality invariants through BAPA                        *)
(* ------------------------------------------------------------------ *)

let s3_card () =
  header "S3-CARD: cardinality invariant (size = card items) via BAPA";
  Printf.printf
    "paper claim: \"decision procedures for reasoning about sets with\n\
    \  cardinality constraints\" (abstract, [43]) integrated into the\n\
    \  portfolio.  The stack's size/count invariants route to BAPA while\n\
    \  its membership obligations go to SMT/FOL.\n";
  ignore (verify_and_report [ "stack/Stack.java" ])

(* ------------------------------------------------------------------ *)
(* S3-DP: the decision-procedure portfolio                             *)
(* ------------------------------------------------------------------ *)

let prove_with (p : Sequent.prover) hyps goal =
  let s = Sequent.make (List.map Parser.parse hyps) (Parser.parse goal) in
  try p.Sequent.prove s with Sequent.Resource_limited why -> Sequent.Unknown why

let s3_dp () =
  header "S3-DP: each integrated decision procedure on its home fragment";
  let row prover name hyps goal expect =
    let v, dt = time_it (fun () -> prove_with prover hyps goal) in
    Printf.printf "  %-6s %-34s %-28s (%.3fs) expect=%s\n%!" name goal
      (Sequent.verdict_to_string v) dt expect
  in
  Printf.printf "-- SMT (Nelson-Oppen: EUF + linear integer arithmetic)\n";
  row Smt.prover "smt" [ "x <= y"; "y <= x" ] "x..f = y..f" "valid";
  row Smt.prover "smt" [ "x > 0"; "x < 2" ] "x = 1" "valid";
  row Smt.prover "smt" [ "x >= 0" ] "x >= 1" "invalid";
  Printf.printf "-- BAPA (sets with cardinalities -> Presburger)\n";
  row Bapa.prover "bapa" [ "card A = 3"; "card B = 4"; "A Int B = {}" ]
    "card (A Un B) = 7" "valid";
  row Bapa.prover "bapa" [ "A <= B" ] "card A <= card B" "valid";
  row Bapa.prover "bapa" [ "card A = 2" ] "card A = 3" "invalid";
  Printf.printf "-- MONA route (WS1S over the list backbone)\n";
  row Fca.prover "mona"
    [ "rtrancl_pt (% u v. u..next = v) h x";
      "rtrancl_pt (% u v. u..next = v) h y"; "x..next = y" ]
    "rtrancl_pt (% u v. u..next = v) x y" "valid";
  row Fca.prover "mona"
    [ "rtrancl_pt (% u v. u..next = v) h x" ]
    "rtrancl_pt (% u v. u..next = v) x h" "invalid";
  Printf.printf "-- FOL (resolution, Vampire stand-in)\n";
  row Fol.prover "fol" [ "A Int B = {}"; "o : A"; "A2 = A - {o}"; "B2 = B Un {o}" ]
    "A2 Int B2 = {}" "valid";
  row Fol.prover "fol" [ "ALL x. x..f = x" ] "a..f = a" "valid"

(* ------------------------------------------------------------------ *)
(* ABL-SPLIT: goal decomposition + portfolio ablation                  *)
(* ------------------------------------------------------------------ *)

let abl_split () =
  header "ABL-SPLIT: portfolio & goal splitting vs single provers";
  Printf.printf
    "paper claim: no single analysis verifies everything; the dispatcher\n\
    \  combines specialized procedures (Sections 1, 2.4, 3).\n";
  let files =
    [ examples_dir ^ "/list/Client.java"; examples_dir ^ "/list/List.java" ]
  in
  let prog = List.concat_map Javaparser.Jparser.parse_program_file files in
  let configs =
    [ ("smt only", [ Smt.prover ]);
      ("bapa only", [ Bapa.prover ]);
      ("mona only", [ Fca.prover ]);
      ("fol only", [ Fol.prover ]);
      ("full portfolio", Jahob_core.Jahob.default_provers ());
    ]
  in
  List.iter
    (fun (name, provers) ->
      let opts = { (bench_opts ()) with Jahob_core.Jahob.provers } in
      let report, dt =
        time_it (fun () -> Jahob_core.Jahob.verify_program ~opts prog)
      in
      let total, valid =
        List.fold_left
          (fun (t, v) (m : Jahob_core.Jahob.method_report) ->
            ( t + m.Jahob_core.Jahob.obligations.Dispatch.total,
              v + m.Jahob_core.Jahob.obligations.Dispatch.valid ))
          (0, 0) report.Jahob_core.Jahob.methods
      in
      Printf.printf "  %-16s %3d/%3d obligations proved   (%.2fs)\n%!" name
        valid total dt)
    configs

(* ------------------------------------------------------------------ *)
(* ABL-SHAPE: explicit vs inferred loop invariants                     *)
(* ------------------------------------------------------------------ *)

let abl_shape () =
  header "ABL-SHAPE: loop invariants — inferred vs none (Section 2.4)";
  let files =
    [ examples_dir ^ "/list/Client.java"; examples_dir ^ "/list/List.java" ]
  in
  let prog = List.concat_map Javaparser.Jparser.parse_program_file files in
  List.iter
    (fun (name, infer) ->
      let opts =
        { (bench_opts ()) with Jahob_core.Jahob.infer_loop_invariants = infer }
      in
      let report, dt =
        time_it (fun () -> Jahob_core.Jahob.verify_program ~opts prog)
      in
      let move =
        List.find_opt
          (fun (m : Jahob_core.Jahob.method_report) ->
            m.Jahob_core.Jahob.method_name = "Client.move")
          report.Jahob_core.Jahob.methods
      in
      (match move with
      | Some m ->
        Printf.printf
          "  %-22s Client.move: %d/%d obligations proved  (%.2fs)\n%!" name
          m.Jahob_core.Jahob.obligations.Dispatch.valid
          m.Jahob_core.Jahob.obligations.Dispatch.total dt
      | None -> Printf.printf "  %-22s Client.move missing!\n%!" name))
    [ ("symbolic shape analysis", true); ("no inference", false) ]

(* ------------------------------------------------------------------ *)
(* PERF: scaling of the decision procedures                            *)
(* ------------------------------------------------------------------ *)

(* WS1S scaling: reachability chain of length n *)
let perf_mona n =
  let open Mona.Ws1s in
  (* x0 < x1 < ... < xn pairwise, then x0 <= xn follows *)
  let rec hyps i acc =
    if i >= n then acc
    else
      hyps (i + 1)
        (Pred (LessF (Printf.sprintf "x%d" i, Printf.sprintf "x%d" (i + 1)))
        :: acc)
  in
  let f =
    Impl (And (hyps 0 []), Pred (LessF ("x0", Printf.sprintf "x%d" n)))
  in
  let fo = List.init (n + 1) (fun i -> Printf.sprintf "x%d" i) in
  valid ~fo f

(* BAPA scaling: n sets pairwise disjoint, total cardinality is the sum *)
let perf_bapa n =
  let sets = List.init n (fun i -> Printf.sprintf "S%d" i) in
  let disjoint =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            if j > i then
              Some
                (Printf.sprintf "S%d Int S%d = {}" i j)
            else None)
          (List.init n (fun k -> k)))
      (List.init n (fun k -> k))
  in
  let card_hyps = List.map (fun s -> Printf.sprintf "card %s = 1" s) sets in
  let union = String.concat " Un " sets in
  let goal = Printf.sprintf "card (%s) = %d" union n in
  prove_with Bapa.prover (disjoint @ card_hyps) goal

(* Cooper vs Omega scaling on interval constraints *)
let perf_presburger n =
  let module P = Presburger.Pform in
  let module L = Presburger.Linterm in
  let atoms =
    List.concat_map
      (fun i ->
        [ P.t_ge (L.var (Printf.sprintf "x%d" i)) (L.const 0);
          P.t_le (L.var (Printf.sprintf "x%d" i)) (L.const (i + 3));
        ])
      (List.init n (fun k -> k))
  in
  let omega = Presburger.Omega.check atoms in
  let cooper = Presburger.Cooper.satisfiable (P.mk_and atoms) in
  (omega, cooper)

(* SAT scaling: pigeonhole *)
let perf_sat n =
  let var p h = (p * n) + h + 1 in
  let pigeons = n + 1 in
  let per_pigeon =
    List.init pigeons (fun p -> List.init n (fun h -> var p h))
  in
  let conflicts = ref [] in
  for h = 0 to n - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        conflicts := [ -var p1 h; -var p2 h ] :: !conflicts
      done
    done
  done;
  Sat.solve_clauses (per_pigeon @ !conflicts)

let perf () =
  header "PERF: decision-procedure scaling (shape of the curves)";
  Printf.printf "-- MONA route: chain reachability, n = chain length\n";
  List.iter
    (fun n ->
      let v, dt = time_it (fun () -> perf_mona n) in
      Printf.printf "  n=%2d  valid=%b  %.4fs\n%!" n v dt)
    [ 2; 4; 6; 8 ];
  Printf.printf "-- BAPA: pairwise-disjoint union cardinality, n = #sets\n";
  List.iter
    (fun n ->
      let v, dt = time_it (fun () -> perf_bapa n) in
      Printf.printf "  n=%2d  %-10s %.4fs\n%!" n
        (Sequent.verdict_to_string v) dt)
    [ 2; 3; 4; 5; 6 ];
  Printf.printf "-- Presburger: Omega vs Cooper on 2n interval constraints\n";
  List.iter
    (fun n ->
      let (om, co), dt = time_it (fun () -> perf_presburger n) in
      let om_s =
        match om with
        | Some Presburger.Omega.Sat -> "sat"
        | Some Presburger.Omega.Unsat -> "unsat"
        | None -> "n/a"
      in
      Printf.printf "  n=%2d  omega=%s cooper=%b  %.4fs\n%!" n om_s co dt)
    [ 2; 4; 8; 12 ];
  Printf.printf
    "-- Integer feasibility: simplex+branch&bound vs the Omega test\n";
  List.iter
    (fun n ->
      (* interval chain x0 <= x1 <= ... <= xn with parity gaps *)
      let simplex_cs =
        List.concat_map
          (fun i ->
            [ Simplex.ge_i
                [ (Printf.sprintf "x%d" (i + 1), 1);
                  (Printf.sprintf "x%d" i, -1) ]
                1;
              Simplex.le_i [ (Printf.sprintf "x%d" i, 1) ] (2 * n) ])
          (List.init n (fun k -> k))
      in
      let omega_atoms =
        let module P = Presburger.Pform in
        let module L = Presburger.Linterm in
        List.concat_map
          (fun i ->
            [ P.t_ge
                (L.var (Printf.sprintf "x%d" (i + 1)))
                (L.add (L.var (Printf.sprintf "x%d" i)) (L.const 1));
              P.t_le (L.var (Printf.sprintf "x%d" i)) (L.const (2 * n)) ])
          (List.init n (fun k -> k))
      in
      let (sx, dt1) =
        time_it (fun () -> Simplex.solve_integer simplex_cs)
      in
      let (om, dt2) = time_it (fun () -> Presburger.Omega.check omega_atoms) in
      Printf.printf "  n=%2d  simplex=%-8s %.4fs   omega=%-6s %.4fs\n%!" n
        (match sx with
        | Simplex.Isat _ -> "sat"
        | Simplex.Iunsat -> "unsat"
        | Simplex.Iunknown -> "unknown")
        dt1
        (match om with
        | Some Presburger.Omega.Sat -> "sat"
        | Some Presburger.Omega.Unsat -> "unsat"
        | None -> "n/a")
        dt2)
    [ 2; 4; 8; 12 ];
  Printf.printf "-- CDCL SAT: pigeonhole PHP(n+1, n) (unsat, exponential)\n";
  List.iter
    (fun n ->
      let v, dt = time_it (fun () -> perf_sat n) in
      Printf.printf "  n=%2d  %-6s %.4fs\n%!" n
        (match v with Sat.Sat _ -> "sat" | Sat.Unsat -> "unsat")
        dt)
    [ 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* SCALING: parallel dispatch across worker domains                    *)
(* ------------------------------------------------------------------ *)

(* the combined example suite, grouped the way the other experiments
   verify them (groups are separate programs: class names may repeat) *)
let scaling_suite =
  [ [ "list/Client.java"; "list/List.java" ];
    [ "list_annotated/Client.java"; "list_annotated/List.java" ];
    [ "global/Buffer.java" ];
    [ "assoc/AssocClient.java"; "assoc/Assoc.java" ];
    [ "game/Game.java" ];
    [ "arrays/ArrayOps.java" ];
    [ "stack/Stack.java" ];
  ]

(* the make-check guard: on a host with >= 4 cores, -j 4 must beat -j 1
   by at least this factor on the scaling suite *)
let speedup_floor = 1.5
let scaling_jobs = [ 1; 2; 4; 8 ]

let iso8601_now () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

type scaling_row = {
  sc_jobs : int;
  sc_dt : float;
  sc_counts : int * int * int * int; (* total, valid, invalid, unknown *)
  sc_hits : int;
  sc_lookups : int;
  sc_waits : int; (* lookups that blocked on an in-flight claim *)
  sc_cache_contended : int;
}

let scaling () =
  header "SCALING: parallel dispatch sweep over worker domains (-j)";
  let recommended = Domain.recommended_domain_count () in
  Printf.printf
    "Obligations are independent, so dispatch fans them out across\n\
    \  per-domain work-stealing deques; identical in-flight obligations\n\
    \  are deduplicated by the verdict cache's claim table, so verdict\n\
    \  counts AND cache hit/lookup counts must not depend on -j.\n\
    \  (host has %d core(s) available; timestamp %s)\n"
    recommended (iso8601_now ());
  let progs =
    List.map
      (fun files ->
        List.concat_map
          (fun f -> Javaparser.Jparser.parse_program_file (examples_dir ^ "/" ^ f))
          files)
      scaling_suite
  in
  let run jobs =
    Dispatch.Cache.reset_lock_stats ();
    let opts = { (Jahob_core.Jahob.default_options ()) with jobs } in
    let (counts, hits, lookups, waits), dt =
      time_it (fun () ->
          List.fold_left
            (fun (counts, hits, lookups, waits) prog ->
              let report = Jahob_core.Jahob.verify_program ~opts prog in
              let t, v, i, u = counts in
              let t, v, i, u =
                List.fold_left
                  (fun (t, v, i, u) (m : Jahob_core.Jahob.method_report) ->
                    let s = m.Jahob_core.Jahob.obligations in
                    ( t + s.Dispatch.total, v + s.Dispatch.valid,
                      i + s.Dispatch.invalid, u + s.Dispatch.unknown ))
                  (t, v, i, u) report.Jahob_core.Jahob.methods
              in
              let hits, lookups, waits =
                match Dispatch.cache report.Jahob_core.Jahob.dispatcher with
                | None -> (hits, lookups, waits)
                | Some c ->
                  let k = Dispatch.Cache.counters c in
                  ( hits + k.Dispatch.Cache.hit_count,
                    lookups + k.Dispatch.Cache.hit_count
                    + k.Dispatch.Cache.miss_count,
                    waits + k.Dispatch.Cache.wait_count )
              in
              ((t, v, i, u), hits, lookups, waits))
            ((0, 0, 0, 0), 0, 0, 0) progs)
    in
    { sc_jobs = jobs;
      sc_dt = dt;
      sc_counts = counts;
      sc_hits = hits;
      sc_lookups = lookups;
      sc_waits = waits;
      sc_cache_contended =
        (Dispatch.Cache.lock_stats ()).Dispatch.Cache.contended_acquisitions }
  in
  let rows = List.map run scaling_jobs in
  let base = match rows with r :: _ -> r.sc_dt | [] -> 1. in
  let speedup r = base /. r.sc_dt in
  List.iter
    (fun r ->
      let t, v, i, u = r.sc_counts in
      Printf.printf
        "  -j %d  %6.2fs  speedup %4.2fx   %3d obligations: %3d valid %3d \
         invalid %3d unknown   cache hits %d/%d (%.1f%%, %d waited)   \
         contended cache locks %d\n%!"
        r.sc_jobs r.sc_dt (speedup r) t v i u r.sc_hits r.sc_lookups
        (if r.sc_lookups = 0 then 0.
         else 100. *. float_of_int r.sc_hits /. float_of_int r.sc_lookups)
        r.sc_waits r.sc_cache_contended)
    rows;
  (match rows with
  | r0 :: _ ->
    let t, v, i, u = r0.sc_counts in
    acc_total := t; acc_valid := v; acc_invalid := i; acc_unknown := u
  | [] -> ());
  (* guard verdict: decided before the JSON note so a failed floor still
     leaves the full record in BENCH_results.json *)
  let guard, guard_detail =
    if recommended < 4 then
      ( "skipped",
        Printf.sprintf
          "host has %d core(s); a parallel speedup cannot exist here, so \
           the floor is not checked (never reported as a pass)"
          recommended )
    else
      match List.find_opt (fun r -> r.sc_jobs = 4) rows with
      | None -> ("skipped", "no -j 4 row in the sweep")
      | Some r4 ->
        if speedup r4 >= speedup_floor then
          ( "pass",
            Printf.sprintf "%.2fx at -j 4 meets the %.1fx floor" (speedup r4)
              speedup_floor )
        else
          ( "fail",
            Printf.sprintf "%.2fx at -j 4 is below the %.1fx floor"
              (speedup r4) speedup_floor )
  in
  note_json "scaling"
    ("["
    ^ String.concat ","
        (List.map
           (fun r ->
             let t, v, i, u = r.sc_counts in
             Printf.sprintf
               "{\"jobs\":%d,\"seconds\":%.4f,\"speedup\":%.3f,\"total\":%d,\
                \"valid\":%d,\"invalid\":%d,\"unknown\":%d,\
                \"cache_hits\":%d,\"cache_lookups\":%d,\"cache_waits\":%d,\
                \"contended_cache_locks\":%d}"
               r.sc_jobs r.sc_dt (speedup r) t v i u r.sc_hits r.sc_lookups
               r.sc_waits r.sc_cache_contended)
           rows)
    ^ "]");
  note_json "scaling_meta"
    (Printf.sprintf
       "{\"recommended_domain_count\":%d,\"jobs_list\":[%s],\
        \"timestamp\":\"%s\",\"speedup_floor\":%.2f,\"guard\":\"%s\"}"
       recommended
       (String.concat "," (List.map string_of_int scaling_jobs))
       (iso8601_now ()) speedup_floor guard);
  (* hard invariants, not warnings: a mismatch is a dispatch bug *)
  (match rows with
  | r0 :: rest when List.for_all (fun r -> r.sc_counts = r0.sc_counts) rest ->
    Printf.printf "  verdict counts identical across all -j values: OK\n%!"
  | _ :: _ -> failwith "verdict counts differ across -j values"
  | [] -> ());
  (match rows with
  | r0 :: rest
    when List.for_all
           (fun r -> r.sc_hits = r0.sc_hits && r.sc_lookups = r0.sc_lookups)
           rest ->
    Printf.printf
      "  cache hits/lookups identical across all -j values (claim-table \
       dedup): OK\n%!"
  | _ :: _ ->
    failwith
      "cache hit/lookup counts differ across -j values: in-flight \
       deduplication is broken"
  | [] -> ());
  Printf.printf "  speedup floor guard (>=%.1fx at -j 4 on >=4-core hosts): %s — %s\n%!"
    speedup_floor (String.uppercase_ascii guard) guard_detail;
  if guard = "fail" then failwith ("speedup floor guard failed: " ^ guard_detail)

(* ------------------------------------------------------------------ *)
(* TRACE-OVERHEAD: tracing must be near-free when disabled             *)
(* ------------------------------------------------------------------ *)

let trace_overhead () =
  header "TRACE-OVERHEAD: structured tracing costs <=5% when disabled";
  Printf.printf
    "every instrumentation site guards on a single atomic load when no\n\
    \  collector is installed (span names and args are computed lazily).\n\
    \  This times a representative obligation workload bare vs wrapped in\n\
    \  Trace.with_span and fails if the wrapped run is >5%% slower.\n";
  assert (not (Trace.enabled ()));
  let s =
    Sequent.make
      (List.map Parser.parse
         [ "A Int B = {}"; "o : A"; "A2 = A - {o}"; "B2 = B Un {o}";
           "card A = 3"; "x <= y"; "y <= x" ])
      (Parser.parse "A2 Int B2 = {}")
  in
  let workload () =
    ignore (Sequent.digest s);
    ignore (Simplify.simplify (Sequent.to_form s))
  in
  let iters = 5_000 in
  let time_loop wrapped =
    (* best of 5 runs: the minimum is the least noise-contaminated *)
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Clock.now () in
      for i = 1 to iters do
        if wrapped then
          Trace.with_span ~cat:"bench"
            ~args:(fun () -> [ ("i", Trace.I i) ])
            "workload" workload
        else workload ()
      done;
      best := Float.min !best (Clock.now () -. t0)
    done;
    !best
  in
  ignore (time_loop false);
  (* warm up *)
  let bare = time_loop false in
  let wrapped = time_loop true in
  let ratio = wrapped /. bare in
  Printf.printf "  bare    %.4fs   wrapped %.4fs   overhead %+.2f%%\n%!" bare
    wrapped
    ((ratio -. 1.) *. 100.);
  note_json "trace_overhead"
    (Printf.sprintf "{\"bare_s\":%.6f,\"wrapped_s\":%.6f,\"ratio\":%.4f}"
       bare wrapped ratio);
  (* informational: the same loop with collection on and a jsonl sink *)
  let tmp = Filename.temp_file "jahob_trace_bench" ".jsonl" in
  Trace.start_collecting ();
  Trace.open_sink tmp;
  let enabled_t = time_loop true in
  Trace.stop ();
  Trace.reset ();
  Sys.remove tmp;
  Printf.printf "  enabled + jsonl sink: %.4fs (informational)\n%!" enabled_t;
  if ratio > 1.05 then
    failwith
      (Printf.sprintf "disabled-tracing overhead %.1f%% exceeds the 5%% bound"
         ((ratio -. 1.) *. 100.))

(* ------------------------------------------------------------------ *)
(* SCHED: adaptive portfolio scheduler A/B                             *)
(* ------------------------------------------------------------------ *)

let verdict_kind = function
  | Sequent.Valid -> "valid"
  | Sequent.Invalid _ -> "invalid"
  | Sequent.Unknown _ -> "unknown"

(* the routing suite's portfolio: specialists first, the general-purpose
   SMT endgame last.  This is a defensible declared order — and exactly
   the order the suite punishes, because its congruence rows are settled
   instantly by smt but cost fol a slow resolution proof first. *)
let sched_portfolio () =
  [ Bapa.prover; Fca.prover; Fol.prover; Presburger.Lia.prover; Smt.prover ]

let sched_sequent hyps goal =
  Sequent.make (List.map Parser.parse hyps) (Parser.parse goal)

(* an EUF congruence chain: fol settles it by resolution in ~0.3s, smt's
   congruence closure in ~5ms.  [tag] varies every constant so no two
   instances are the same sequent, while the fragment signature — and
   hence the learned EMA bucket — stays fixed across instances. *)
let sched_chain_row tag n =
  let v i = Printf.sprintf "%s_%d" tag i in
  let hyps =
    List.init n (fun i -> Printf.sprintf "%s = %s" (v i) (v (i + 1)))
  in
  sched_sequent hyps (Printf.sprintf "%s..f..g = %s..f..g" (v 0) (v n))

(* name-varied copies of the S3-DP home-fragment rows: each is settled
   by its specialist, covering valid and invalid verdicts across all
   fragment signatures so the parity check is not vacuous *)
let sched_dp_rows p =
  let reach = "rtrancl_pt (% u v. u..next = v) " in
  [ sched_sequent
      [ p ^ "x <= " ^ p ^ "y"; p ^ "y <= " ^ p ^ "x" ]
      (p ^ "x..f = " ^ p ^ "y..f");
    sched_sequent [ p ^ "x >= 0" ] (p ^ "x >= 1");
    sched_sequent
      [ "card " ^ p ^ "A = 3"; "card " ^ p ^ "B = 4";
        p ^ "A Int " ^ p ^ "B = {}" ]
      ("card (" ^ p ^ "A Un " ^ p ^ "B) = 7");
    sched_sequent [ "card " ^ p ^ "A = 2" ] ("card " ^ p ^ "A = 3");
    sched_sequent
      [ reach ^ p ^ "h " ^ p ^ "x"; reach ^ p ^ "h " ^ p ^ "y";
        p ^ "x..next = " ^ p ^ "y" ]
      (reach ^ p ^ "x " ^ p ^ "y");
    sched_sequent
      [ p ^ "A Int " ^ p ^ "B = {}"; p ^ "o : " ^ p ^ "A";
        p ^ "A2 = " ^ p ^ "A - {" ^ p ^ "o}";
        p ^ "B2 = " ^ p ^ "B Un {" ^ p ^ "o}" ]
      (p ^ "A2 Int " ^ p ^ "B2 = {}");
  ]

let sched_suite pass =
  let tag k = Printf.sprintf "p%d%s" pass k in
  List.init 6 (fun i -> sched_chain_row (tag (Printf.sprintf "c%d" i)) 20)
  @ sched_dp_rows (tag "v")

let sched_counter_keys =
  [ "sched.skipped"; "sched.race"; "sched.race_cancelled";
    "deadline.cancelled"; "budget.exceeded"; "prover.raised" ]

let sched_counters () =
  List.map (fun k -> (k, Trace.counter_value k)) sched_counter_keys

let sched_counter_delta before after =
  List.map2 (fun (k, b) (_, a) -> (k, a - b)) before after

let sched_counters_json deltas =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, n) ->
           Printf.sprintf "\"%s\":%d"
             (String.map (function '.' -> '_' | c -> c) k)
             n)
         deltas)
  ^ "}"

let sched_bench () =
  header "SCHED: adaptive scheduler A/B — routing, learned order, racing";
  Printf.printf
    "the scheduler pre-routes sequents past provers whose fragment\n\
    \  predicate rejects them (skip-sound provers only; smt is never\n\
    \  skipped), orders the survivors by a learned latency/settle-rate\n\
    \  score per fragment signature, and cancels budget-expired or\n\
    \  raced-away provers cooperatively at their loop heads.  This runs\n\
    \  the same workload under --sched fixed and --sched adaptive,\n\
    \  interleaved, and fails unless adaptive wins by >=15%% with\n\
    \  identical verdicts everywhere.\n";
  let admits = Jahob_core.Jahob.default_admissions () in
  let mk policy race =
    Dispatch.create
      ~sched:(Dispatch.Sched.create ~policy ~race ~admits ())
      (sched_portfolio ())
  in
  Trace.start_collecting ();
  (* -- routing suite: fixed vs adaptive, interleaved passes; the
        dispatchers persist across passes so the adaptive EMAs learn -- *)
  let passes = 3 in
  let fixed_d = mk Dispatch.Sched.Fixed 1 in
  let adaptive_d = mk Dispatch.Sched.Adaptive 1 in
  let run_pass d pass =
    time_it (fun () ->
        List.map
          (fun s -> verdict_kind (Dispatch.prove_sequent d s).Dispatch.verdict)
          (sched_suite pass))
  in
  let suite_fixed = ref 0. and suite_adaptive = ref 0. in
  let fixed_verdicts = ref [] in
  let before_adaptive = ref (sched_counters ()) in
  let adaptive_delta = ref [] in
  for pass = 1 to passes do
    let vf, tf = run_pass fixed_d pass in
    fixed_verdicts := !fixed_verdicts @ vf;
    before_adaptive := sched_counters ();
    let va, ta = run_pass adaptive_d pass in
    adaptive_delta :=
      sched_counter_delta !before_adaptive (sched_counters ())
      :: !adaptive_delta;
    suite_fixed := !suite_fixed +. tf;
    suite_adaptive := !suite_adaptive +. ta;
    Printf.printf "  pass %d:  fixed %6.2fs   adaptive %6.2fs   verdicts \
                   identical: %b\n%!"
      pass tf ta (vf = va);
    if vf <> va then
      failwith
        (Printf.sprintf
           "pass %d: adaptive scheduling changed a verdict (fixed [%s] vs \
            adaptive [%s])"
           pass (String.concat ";" vf) (String.concat ";" va))
  done;
  let suite_counters =
    List.fold_left
      (fun acc d -> List.map2 (fun (k, a) (_, b) -> (k, a + b)) acc d)
      (List.map (fun k -> (k, 0)) sched_counter_keys)
      !adaptive_delta
  in
  (* -- racing: a fresh (cold) adaptive dispatcher with --race 4 over a
        4-domain pool; racing covers the cold start because the settling
        prover runs concurrently with the slow one from pass one, and
        the losers are cancelled through their deadline tokens -- *)
  let pool = Dispatch.Pool.create ~jobs:4 in
  let race_d =
    Dispatch.create ~pool
      ~sched:(Dispatch.Sched.create ~policy:Dispatch.Sched.Adaptive ~race:4
                ~admits ())
      (sched_portfolio ())
  in
  let race_before = sched_counters () in
  let race_verdicts = ref [] and race_t = ref 0. in
  for pass = 1 to passes do
    let v, t = run_pass race_d pass in
    race_verdicts := !race_verdicts @ v;
    race_t := !race_t +. t
  done;
  Dispatch.Pool.shutdown pool;
  let race_counters = sched_counter_delta race_before (sched_counters ()) in
  Printf.printf "  race 4:  %6.2fs cold (vs %.2fs cold sequential fixed)   \
                 races %d   cancelled %d\n%!"
    !race_t !suite_fixed
    (List.assoc "sched.race" race_counters)
    (List.assoc "sched.race_cancelled" race_counters
    + List.assoc "deadline.cancelled" race_counters);
  (* -- cooperative budget demo: a 50ms budget cancels fol's ~0.3s
        resolution run at a loop-head checkpoint -- *)
  let budget_before = sched_counters () in
  let budget_d =
    Dispatch.create ~budget_s:0.05
      ~sched:(Dispatch.Sched.create ~policy:Dispatch.Sched.Fixed ())
      [ Fol.prover ]
  in
  let bv, bt =
    time_it (fun () ->
        (Dispatch.prove_sequent budget_d (sched_chain_row "bgt" 20))
          .Dispatch.verdict)
  in
  let budget_counters = sched_counter_delta budget_before (sched_counters ()) in
  Printf.printf "  budget:  fol under a 50ms budget -> %s in %.3fs \
                 (budget.exceeded=%d)\n%!"
    (verdict_kind bv) bt
    (List.assoc "budget.exceeded" budget_counters);
  Trace.stop ();
  Trace.reset ();
  (* -- end-to-end: the FIG1-4 verification under both policies with the
        default portfolio; adaptive must not change any method report -- *)
  let e2e policy =
    let opts = { (bench_opts ()) with Jahob_core.Jahob.sched = policy } in
    let files =
      [ examples_dir ^ "/list/Client.java"; examples_dir ^ "/list/List.java" ]
    in
    time_it (fun () -> Jahob_core.Jahob.verify_files ~opts files)
  in
  let methods (r : Jahob_core.Jahob.program_report) =
    List.map
      (fun (m : Jahob_core.Jahob.method_report) ->
        let s = m.Jahob_core.Jahob.obligations in
        ( m.Jahob_core.Jahob.method_name,
          (s.Dispatch.total, s.Dispatch.valid, s.Dispatch.invalid,
           s.Dispatch.unknown) ))
      r.Jahob_core.Jahob.methods
  in
  let report_fixed, e2e_fixed = e2e Dispatch.Sched.Fixed in
  let report_adaptive, e2e_adaptive = e2e Dispatch.Sched.Adaptive in
  let methods_identical = methods report_fixed = methods report_adaptive in
  count_report report_adaptive;
  Printf.printf "  fig1_4:  fixed %5.2fs   adaptive %5.2fs   method reports \
                 identical: %b\n%!"
    e2e_fixed e2e_adaptive methods_identical;
  let total_fixed = !suite_fixed +. e2e_fixed in
  let total_adaptive = !suite_adaptive +. e2e_adaptive in
  let ratio = total_adaptive /. total_fixed in
  Printf.printf
    "  total:   fixed %5.2fs   adaptive %5.2fs   ratio %.3f  (bound 0.85)\n%!"
    total_fixed total_adaptive ratio;
  let json =
    Printf.sprintf
      "{\"suite\":{\"passes\":%d,\"sequents_per_pass\":%d,\
       \"fixed_s\":%.4f,\"adaptive_s\":%.4f,\"counters\":%s},\
       \"race\":{\"jobs\":4,\"width\":4,\"seconds\":%.4f,\
       \"verdicts_identical\":%b,\"counters\":%s},\
       \"budget_demo\":{\"budget_s\":0.05,\"seconds\":%.4f,\
       \"verdict\":\"%s\",\"counters\":%s},\
       \"end_to_end\":{\"fixed_s\":%.4f,\"adaptive_s\":%.4f,\
       \"methods_identical\":%b},\
       \"total\":{\"fixed_s\":%.4f,\"adaptive_s\":%.4f,\"ratio\":%.4f}}"
      passes
      (List.length (sched_suite 0))
      !suite_fixed !suite_adaptive
      (sched_counters_json suite_counters)
      !race_t
      (!race_verdicts = !fixed_verdicts)
      (sched_counters_json race_counters)
      bt (verdict_kind bv)
      (sched_counters_json budget_counters)
      e2e_fixed e2e_adaptive methods_identical total_fixed total_adaptive ratio
  in
  let oc = open_out "BENCH_sched.json" in
  Printf.fprintf oc "%s\n" json;
  close_out oc;
  Printf.printf "  wrote BENCH_sched.json\n%!";
  note_json "sched" json;
  if not methods_identical then
    failwith "adaptive scheduling changed a fig1_4 method report";
  if List.assoc "sched.skipped" suite_counters = 0 then
    failwith "fragment pre-routing never skipped a prover on the suite";
  if List.assoc "sched.race" race_counters = 0 then
    failwith "the --race 4 arm never actually raced";
  if List.assoc "budget.exceeded" budget_counters = 0 then
    failwith "the 50ms budget did not trip the cooperative deadline";
  if bt > 0.5 then
    failwith
      (Printf.sprintf
         "budgeted fol ran %.3fs; cooperative cancellation is not working" bt);
  if ratio > 0.85 then
    failwith
      (Printf.sprintf
         "adaptive/fixed wall-clock ratio %.3f exceeds the 0.85 bound" ratio)

(* ------------------------------------------------------------------ *)
(* DAEMON: warm daemon replay vs cold CLI runs                         *)
(* ------------------------------------------------------------------ *)

(* the fully-verified groups: every obligation settles, so every verdict
   is cacheable.  list/ is excluded by design — its implementation-side
   obligations answer Unknown, which the on-disk store never keeps, so a
   restarted daemon re-proves them and would only measure prover time,
   not daemon warmth. *)
let daemon_suite =
  [ [ "list_annotated/Client.java"; "list_annotated/List.java" ];
    [ "global/Buffer.java" ];
    [ "assoc/AssocClient.java"; "assoc/Assoc.java" ];
    [ "game/Game.java" ];
    [ "arrays/ArrayOps.java" ];
    [ "stack/Stack.java" ];
  ]

(* the make-check guard: warm daemon replay of the suite must beat the
   cold CLI by at least this factor, with identical verdicts *)
let daemon_speedup_floor = 3.0
let daemon_replays = 3

(* a verdict signature: every method's obligations with their full
   verdict strings, in order — what "byte-identical verdicts" compares *)
type daemon_sig = (string * (string * string) list) list

let daemon_sig_of_report (r : Jahob_core.Jahob.program_report) : daemon_sig =
  List.map
    (fun (m : Jahob_core.Jahob.method_report) ->
      ( m.Jahob_core.Jahob.method_name,
        List.map
          (fun (rep : Dispatch.report) ->
            ( rep.Dispatch.sequent.Sequent.name,
              Sequent.verdict_to_string rep.Dispatch.verdict ))
          m.Jahob_core.Jahob.obligations.Dispatch.reports ))
    r.Jahob_core.Jahob.methods

(* extract the same signature from a daemon JSONL response, so the warm
   arm is measured through the real wire format, parse and all *)
let daemon_sig_of_response (line : string) : daemon_sig =
  let module J = Trace.Json in
  let v = J.parse line in
  (match J.member "error" v with
  | Some (J.Str e) -> failwith ("daemon error response: " ^ e)
  | _ -> ());
  match J.member "methods" v with
  | Some (J.Arr ms) ->
    List.map
      (fun m ->
        let str k =
          match J.member k m with
          | Some (J.Str s) -> s
          | _ -> failwith ("daemon response missing " ^ k)
        in
        let obligations =
          match J.member "obligations" m with
          | Some (J.Arr os) ->
            List.map
              (fun o ->
                match (J.member "name" o, J.member "detail" o) with
                | Some (J.Str n), Some (J.Str d) -> (n, d)
                | _ -> failwith "daemon obligation missing name/detail")
              os
          | _ -> failwith "daemon response missing obligations"
        in
        (str "method", obligations))
      ms
  | _ -> failwith "daemon response missing methods"

let daemon_verify_line id files =
  Daemon.Proto.line
    [ Daemon.Proto.fld_int "id" id;
      Daemon.Proto.fld_str "cmd" "verify";
      Daemon.Proto.fld_arr "files"
        (List.map
           (fun f b -> Daemon.Proto.J.str b (examples_dir ^ "/" ^ f))
           files) ]

(* replay the whole suite through one server; returns signatures + time *)
let daemon_replay (server : Daemon.Server.t) : daemon_sig list * float =
  let t0 = Clock.now () in
  let sigs =
    List.mapi
      (fun i files ->
        let resp, _ = Daemon.Server.handle server (daemon_verify_line i files) in
        daemon_sig_of_response resp)
      daemon_suite
  in
  (sigs, Clock.now () -. t0)

let daemon_bench () =
  header "DAEMON: warm daemon replay vs cold CLI runs";
  Printf.printf
    "a resident daemon keeps the verdict cache and scheduler EMAs warm\n\
    \  across requests and backs the cache with a persistent on-disk\n\
    \  store.  This replays the fully-verified example groups as cold CLI\n\
    \  runs (fresh engine per group) vs warm requests against one\n\
    \  in-process server, through the real JSONL protocol, and fails\n\
    \  unless the warm replay is >=%.0fx\n\
    \  faster with identical verdicts — including after a daemon restart\n\
    \  that re-serves from disk.\n"
    daemon_speedup_floor;
  let store_path =
    Filename.temp_file "jahob_bench_daemon" ".jstore"
  in
  Sys.remove store_path;
  (* -- cold arm: one fresh CLI-style run per group -- *)
  let cold_run () =
    List.map
      (fun files ->
        let report, dt =
          time_it (fun () ->
              Jahob_core.Jahob.verify_files ~opts:(bench_opts ())
                (List.map (fun f -> examples_dir ^ "/" ^ f) files))
        in
        (daemon_sig_of_report report, dt))
      daemon_suite
  in
  ignore (cold_run ());
  (* warm up the OS caches *)
  let cold = cold_run () in
  let cold_sigs = List.map fst cold in
  let cold_s = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. cold in
  Printf.printf "  cold CLI:       %d groups in %6.2fs\n%!"
    (List.length daemon_suite) cold_s;
  (* -- warm arm: one resident server; the first pass populates, the
        replays measure warmth -- *)
  let cfg =
    { (Daemon.Server.default_config ()) with
      Daemon.Server.opts = bench_opts ();
      store_path = Some store_path;
      log = ignore }
  in
  let server = Daemon.Server.create cfg in
  let populate_sigs, populate_s = daemon_replay server in
  Printf.printf "  daemon pass 1:  populate in %6.2fs\n%!" populate_s;
  let replays =
    List.init daemon_replays (fun _ -> daemon_replay server)
  in
  let warm_s =
    List.fold_left (fun b (_, dt) -> Float.min b dt) infinity replays
  in
  List.iteri
    (fun i (_, dt) -> Printf.printf "  daemon replay %d: %8.3fs\n%!" (i + 1) dt)
    replays;
  let warm_sigs = fst (List.hd replays) in
  let warm_identical =
    List.for_all (fun (s, _) -> s = cold_sigs) replays
    && populate_sigs = cold_sigs
  in
  (* -- restart: a second server must re-serve identical verdicts from
        the on-disk store left by the first -- *)
  Daemon.Server.shutdown server;
  let server2 = Daemon.Server.create cfg in
  let restart_warm =
    match Option.map Daemon.Store.status (Daemon.Server.store server2) with
    | Some (Daemon.Store.Warm _) -> true
    | _ -> false
  in
  let restart_sigs, restart_s = daemon_replay server2 in
  let store_entries =
    match Daemon.Server.store server2 with
    | Some s -> Daemon.Store.entries s
    | None -> 0
  in
  Daemon.Server.shutdown server2;
  (try Sys.remove store_path with Sys_error _ -> ());
  let restart_identical = restart_sigs = cold_sigs in
  let speedup = cold_s /. warm_s in
  Printf.printf
    "  restart:        %8.3fs from disk (store warm: %b, %d entries)\n%!"
    restart_s restart_warm store_entries;
  Printf.printf
    "  verdicts identical: warm %b, after restart %b\n%!" warm_identical
    restart_identical;
  Printf.printf "  speedup: cold %.2fs / warm %.3fs = %.1fx  (floor %.0fx)\n%!"
    cold_s warm_s speedup daemon_speedup_floor;
  (* obligation counts for the driver record, from the cold signatures *)
  List.iter
    (List.iter (fun (_, obls) ->
         List.iter
           (fun (_, d) ->
             incr acc_total;
             if d = "valid" then incr acc_valid
             else if String.length d >= 7 && String.sub d 0 7 = "invalid" then
               incr acc_invalid
             else incr acc_unknown)
           obls))
    cold_sigs;
  let json =
    Printf.sprintf
      "{\"suite_groups\":%d,\"replays\":%d,\"cold_s\":%.4f,\
       \"populate_s\":%.4f,\"warm_s\":%.4f,\"restart_s\":%.4f,\
       \"speedup\":%.2f,\"floor\":%.1f,\"verdicts_identical\":%b,\
       \"restart_identical\":%b,\"restart_store_warm\":%b,\
       \"store_entries\":%d,\"jobs\":%d,\"timestamp\":\"%s\"}"
      (List.length daemon_suite)
      daemon_replays cold_s populate_s warm_s restart_s speedup
      daemon_speedup_floor warm_identical restart_identical restart_warm
      store_entries !bench_jobs (iso8601_now ())
  in
  let oc = open_out "BENCH_daemon.json" in
  Printf.fprintf oc "%s\n" json;
  close_out oc;
  Printf.printf "  wrote BENCH_daemon.json\n%!";
  note_json "daemon" json;
  ignore warm_sigs;
  if not warm_identical then
    failwith "warm daemon verdicts differ from cold CLI verdicts";
  if not restart_identical then
    failwith "daemon restart served different verdicts from the store";
  if not restart_warm then
    failwith "daemon restart did not warm-start from the on-disk store";
  if speedup < daemon_speedup_floor then
    failwith
      (Printf.sprintf "warm replay speedup %.2fx below the %.1fx floor"
         speedup daemon_speedup_floor)

(* ------------------------------------------------------------------ *)
(* INCREMENTAL: one-method patches against the method store            *)
(* ------------------------------------------------------------------ *)

(* the make-check guard: after a one-method edit, incremental
   re-verification must beat re-verifying the group from scratch by at
   least this factor, with identical verdicts *)
let incremental_speedup_floor = 5.0

(* the same fully-verified example groups the daemon bench replays —
   full verification is what lets every method's verdicts be recorded *)
let incremental_suite = daemon_suite

(* the "edit": append a trivially-valid assertion to the body of the
   first bodied method — a body-only change, so exactly one method may
   be re-verified *)
let inc_patch (prog : Javaparser.Ast.program) :
    Javaparser.Ast.program * string =
  let module Ast = Javaparser.Ast in
  let extra = Ast.Spec (Ast.Assert_spec (None, Logic.Parser.parse "0 <= 0")) in
  let patched = ref None in
  let prog' =
    List.map
      (fun c ->
        if !patched <> None then c
        else
          match
            List.find_opt (fun m -> m.Ast.m_body <> None) c.Ast.c_methods
          with
          | None -> c
          | Some victim ->
            patched := Some (c.Ast.c_name ^ "." ^ victim.Ast.m_name);
            { c with
              Ast.c_methods =
                List.map
                  (fun m ->
                    if m.Ast.m_name <> victim.Ast.m_name then m
                    else
                      { m with
                        Ast.m_body =
                          Option.map (fun ss -> ss @ [ extra ]) m.Ast.m_body })
                  c.Ast.c_methods })
      prog
  in
  match !patched with
  | Some name -> (prog', name)
  | None -> failwith "incremental bench: group has no bodied method"

let incremental_bench () =
  header "INCREMENTAL: one-method patch vs re-verifying from scratch";
  Printf.printf
    "each example group is verified into a method store, then one\n\
    \  method body is edited.  Incremental re-verification re-proves that\n\
    \  method alone and answers the rest from the store; the guard fails\n\
    \  unless that beats a cold run of the patched group by >=%.0fx with\n\
    \  identical verdicts, or if anything beyond the edited method is\n\
    \  re-verified.  The verdict cache is off in both arms, so the ratio\n\
    \  measures the method/dependency index alone.\n"
    incremental_speedup_floor;
  (* the verdict cache stays off so replayed verdicts come from the
     method store, not from obligation-level memoization *)
  let opts =
    { (bench_opts ()) with Jahob_core.Jahob.use_cache = false }
  in
  let groups =
    List.map
      (fun files ->
        let prog =
          List.concat_map
            (fun f -> Javaparser.Jparser.parse_program_file
                        (examples_dir ^ "/" ^ f))
            files
        in
        let patched, edited = inc_patch prog in
        (String.concat "+" files, prog, patched, edited))
      incremental_suite
  in
  let cold_s = ref 0. and inc_s = ref 0. in
  let identical = ref true and exact = ref true in
  List.iter
    (fun (label, base, patched, edited) ->
      (* cold arm: the patched program from scratch *)
      let cold_report, cold_dt =
        time_it (fun () ->
            Jahob_core.Jahob.verify_program ~opts patched)
      in
      (* incremental arm: populate with the base, then time the patched
         run *)
      let engine = Jahob_core.Jahob.create_engine opts in
      let source = Jahob_core.Jahob.hashtbl_source () in
      ignore (Jahob_core.Jahob.verify_program_inc engine ~source base);
      let inc_report, inc_dt =
        time_it (fun () ->
            Jahob_core.Jahob.verify_program_inc engine ~source patched)
      in
      Jahob_core.Jahob.shutdown_engine engine;
      count_report cold_report;
      let reverified =
        List.filter_map
          (fun (m : Jahob_core.Jahob.method_report) ->
            match m.Jahob_core.Jahob.provenance with
            | Jahob_core.Jahob.Unchanged -> None
            | _ -> Some m.Jahob_core.Jahob.method_name)
          inc_report.Jahob_core.Jahob.methods
      in
      if reverified <> [ edited ] then begin
        exact := false;
        Printf.printf "  %-40s OVER-INVALIDATION: re-verified %s\n%!" label
          (String.concat ", " reverified)
      end;
      if daemon_sig_of_report cold_report <> daemon_sig_of_report inc_report
      then begin
        identical := false;
        Printf.printf "  %-40s VERDICTS DIVERGE\n%!" label
      end;
      cold_s := !cold_s +. cold_dt;
      inc_s := !inc_s +. inc_dt;
      Printf.printf
        "  %-40s cold %7.3fs  incremental %7.3fs  (edited %s)\n%!" label
        cold_dt inc_dt edited)
    groups;
  let speedup = !cold_s /. !inc_s in
  Printf.printf
    "  speedup: cold %.2fs / incremental %.3fs = %.1fx  (floor %.0fx)\n%!"
    !cold_s !inc_s speedup incremental_speedup_floor;
  let json =
    Printf.sprintf
      "{\"suite_groups\":%d,\"cold_s\":%.4f,\"incremental_s\":%.4f,\
       \"speedup\":%.2f,\"floor\":%.1f,\"verdicts_identical\":%b,\
       \"exact_invalidation\":%b,\"jobs\":%d,\"timestamp\":\"%s\"}"
      (List.length incremental_suite)
      !cold_s !inc_s speedup incremental_speedup_floor !identical !exact
      !bench_jobs (iso8601_now ())
  in
  let oc = open_out "BENCH_incremental.json" in
  Printf.fprintf oc "%s\n" json;
  close_out oc;
  Printf.printf "  wrote BENCH_incremental.json\n%!";
  note_json "incremental" json;
  if not !identical then
    failwith "incremental verdicts differ from the from-scratch run";
  if not !exact then
    failwith "incremental run re-verified more than the edited method";
  if speedup < incremental_speedup_floor then
    failwith
      (Printf.sprintf "incremental speedup %.2fx below the %.1fx floor"
         speedup incremental_speedup_floor)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "MICRO: bechamel micro-benchmarks of the prover kernels";
  let open Bechamel in
  let open Toolkit in
  let tests =
    [ Test.make ~name:"smt:transitivity" (Staged.stage (fun () ->
          ignore
            (prove_with Smt.prover [ "a = b"; "b = c"; "c = d" ] "a = d")));
      Test.make ~name:"bapa:union-card" (Staged.stage (fun () ->
          ignore
            (prove_with Bapa.prover
               [ "A Int B = {}"; "card A = 2"; "card B = 3" ]
               "card (A Un B) = 5")));
      Test.make ~name:"mona:chain-6" (Staged.stage (fun () ->
          ignore (perf_mona 6)));
      Test.make ~name:"fol:move-disjoint" (Staged.stage (fun () ->
          ignore
            (prove_with Fol.prover
               [ "A Int B = {}"; "o : A"; "A2 = A - {o}"; "B2 = B Un {o}" ]
               "A2 Int B2 = {}")));
      Test.make ~name:"cooper:intervals-4" (Staged.stage (fun () ->
          ignore (perf_presburger 4)));
      Test.make ~name:"sat:php-5-4" (Staged.stage (fun () ->
          ignore (perf_sat 4)));
    ]
  in
  let grouped = Test.make_grouped ~name:"kernels" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] -> Printf.printf "  %-32s %12.0f ns/run\n%!" name ns
      | _ -> Printf.printf "  %-32s (no estimate)\n%!" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* FOL: indexed saturation engine vs naive baseline                    *)
(* ------------------------------------------------------------------ *)

(* the regression corpus rides along in the saturation suite; resolve it
   from wherever the bench is launched, like [examples_dir] *)
let fol_corpus_dir =
  let candidates =
    [ "test/corpus"; "../test/corpus"; "../../test/corpus";
      "../../../test/corpus" ]
  in
  List.find_opt
    (fun d -> Sys.file_exists d && Sys.is_directory d)
    candidates

(* every obligation of the List figures *)
let list_obligations () =
  let files =
    [ examples_dir ^ "/list/Client.java"; examples_dir ^ "/list/List.java" ]
  in
  let prog = List.concat_map Javaparser.Jparser.parse_program_file files in
  List.concat_map Vcgen.method_obligations (Gcl.Desugar.program_tasks prog)

let fol_outcome_name = function
  | Ok Fol.Proof -> "proof"
  | Ok Fol.Saturated -> "saturated"
  | Ok Fol.GaveUp -> "gave-up"
  | Ok Fol.TimedOut -> "timed-out"
  | Error _ -> "untranslatable"

let fol_bench () =
  header "FOL: indexed saturation engine vs naive given-clause baseline";
  Printf.printf
    "the resolution prover's given-clause loop was rebuilt around a\n\
    \  discrimination-tree partner index, full forward/backward clause\n\
    \  subsumption and an age-weight passive queue; the original loop is\n\
    \  kept as ~engine:Naive.  This interleaves both engines over a\n\
    \  saturation-heavy suite (equality chains, the paper's set-move\n\
    \  obligations, reachability, the regression corpus) plus the List\n\
    \  examples' obligations, and fails on any verdict divergence or a\n\
    \  total speedup below 2x on the saturation suite.\n";
  (* -- the saturation-heavy suite: rows both engines settle on merit
        (generous wall clock, default clause budgets).  Three families
        stress the index where naive scanning is quadratic: an equality
        chain inside a wide frame of unrelated facts (partner retrieval),
        a long membership chain through quantified implications (active
        set growth), and a guarded chain whose rules are three-literal
        clauses (full subsumption) -- *)
  let wide_chain_row tag n m =
    let v i = Printf.sprintf "%s_%d" tag i in
    let hyps =
      List.init n (fun i -> Printf.sprintf "%s = %s" (v i) (v (i + 1)))
      @ List.init m (fun i -> Printf.sprintf "%sd_%d..f = %se_%d" tag i tag i)
    in
    sched_sequent hyps (Printf.sprintf "%s..f..g = %s..f..g" (v 0) (v n))
  in
  let member_chain_row tag n =
    let hyps =
      List.init n (fun i ->
          Printf.sprintf "ALL x. x : %sS_%d --> x : %sS_%d" tag i tag (i + 1))
    in
    sched_sequent
      ((Printf.sprintf "%sa : %sS_0" tag tag) :: hyps)
      (Printf.sprintf "%sa : %sS_%d" tag tag n)
  in
  let guarded_chain_row tag n =
    let hyps =
      List.init n (fun i ->
          Printf.sprintf "ALL x. x : %sS_%d & x : %sG --> x : %sS_%d" tag i
            tag tag (i + 1))
    in
    sched_sequent
      ([ Printf.sprintf "%sa : %sS_0" tag tag;
         Printf.sprintf "%sa : %sG" tag tag ]
      @ hyps)
      (Printf.sprintf "%sa : %sS_%d" tag tag n)
  in
  let suite =
    [ ("chain10", sched_chain_row "fb_a" 10);
      ("chain14", sched_chain_row "fb_b" 14);
      ("chain18", sched_chain_row "fb_c" 18);
      ("wide-chain14+400", wide_chain_row "fw" 14 400);
      ("wide-chain14+800", wide_chain_row "fx" 14 800);
      ("member-chain400", member_chain_row "fm" 400);
      ("member-chain800", member_chain_row "fn" 800);
      ("member-chain1600", member_chain_row "fo" 1600);
      ("guarded-chain120", guarded_chain_row "fg" 120);
      ("guarded-chain240", guarded_chain_row "fh" 240);
      ( "set-move",
        sched_sequent
          [ "A Int B = {}"; "o : A"; "A2 = A - {o}"; "B2 = B Un {o}" ]
          "A2 Int B2 = {}" );
      ( "fresh-add",
        sched_sequent
          [ "A Int B = {}"; "x ~: B"; "A2 = A Un {x}" ]
          "A2 Int B = {}" );
      ( "subset-chain",
        sched_sequent
          [ "ALL e. e : s --> e : t"; "ALL e. e : t --> e : u";
            "ALL e. e : u --> e : v" ]
          "ALL e. e : s --> e : v" );
      ( "reach-extend",
        sched_sequent
          [ "rtrancl_pt (% u v. u..next = v) h x";
            "rtrancl_pt (% u v. u..next = v) h y"; "x..next = y" ]
          "rtrancl_pt (% u v. u..next = v) x y" );
    ]
    @
    match fol_corpus_dir with
    | None -> []
    | Some dir ->
      List.filter_map
        (fun path ->
          match Fuzz.Differ.load_file path with
          | Ok e ->
            let s = e.Fuzz.Differ.entry_sequent in
            if Fol.in_fragment s then Some (Filename.basename path, s)
            else None
          | Error _ -> None)
        (Fuzz.Differ.corpus_files dir)
  in
  (* both arms run the identical weight-first clause selection
     (age_weight_ratio 0): the A/B then isolates the index — partner
     retrieval, full subsumption, normalized dedup — from selection-
     heuristic luck, and verdicts can only diverge if the index itself
     is wrong *)
  let run engine s =
    Fol.outcome_with ~engine ~age_weight_ratio:0 ~timeout_s:30.0
      ~set_vars:(Fol.infer_set_vars s) s
  in
  Trace.start_collecting ();
  let reps = 3 in
  let n_rows = List.length suite in
  let best_indexed = Array.make n_rows infinity in
  let best_naive = Array.make n_rows infinity in
  let verdicts = Array.make n_rows ("", "") in
  for rep = 0 to reps - 1 do
    List.iteri
      (fun i (_, s) ->
        (* interleave and alternate engine order so drift and cache
           warmth cannot favor one arm *)
        let sample engine best =
          let o, dt = time_it (fun () -> run engine s) in
          best.(i) <- Float.min best.(i) dt;
          fol_outcome_name o
        in
        let vi, vn =
          if rep mod 2 = 0 then
            let vi = sample Fol.Indexed best_indexed in
            (vi, sample Fol.Naive best_naive)
          else
            let vn = sample Fol.Naive best_naive in
            (sample Fol.Indexed best_indexed, vn)
        in
        verdicts.(i) <- (vi, vn))
      suite
  done;
  let divergent = ref [] in
  List.iteri
    (fun i (name, _) ->
      let vi, vn = verdicts.(i) in
      Printf.printf "  %-36s indexed %8.4fs %-9s naive %8.4fs %-9s\n%!" name
        best_indexed.(i) vi best_naive.(i) vn;
      if vi <> vn then divergent := name :: !divergent)
    suite;
  let total_indexed = Array.fold_left ( +. ) 0. best_indexed in
  let total_naive = Array.fold_left ( +. ) 0. best_naive in
  let speedup = total_naive /. total_indexed in
  Printf.printf
    "  saturation suite: indexed %.4fs   naive %.4fs   speedup %.1fx\n%!"
    total_indexed total_naive speedup;
  let counters =
    List.map
      (fun k -> (k, Trace.counter_value k))
      [ "fol.index.retrieved"; "fol.index.scanned"; "fol.subsume.forward";
        "fol.subsume.backward"; "fol.dedup.hits" ]
  in
  List.iter (fun (k, n) -> Printf.printf "  %-22s %d\n%!" k n) counters;
  (* -- the examples suite: List obligations inside the fol fragment,
        under the prover's production budgets.  The engines may spend
        their budgets differently here, so the guard is containment:
        everything the naive engine proves, the indexed engine must
        still prove -- *)
  let obligations =
    List.filter Fol.in_fragment (list_obligations ())
  in
  let prove engine s =
    Fol.outcome_with ~engine ~set_vars:(Fol.infer_set_vars s) s
  in
  let count_proofs engine =
    time_it (fun () ->
        List.length
          (List.filter (fun s -> prove engine s = Ok Fol.Proof) obligations))
  in
  let naive_valid, examples_naive_s = count_proofs Fol.Naive in
  let indexed_valid, examples_indexed_s = count_proofs Fol.Indexed in
  let lost =
    List.filter
      (fun s ->
        prove Fol.Naive s = Ok Fol.Proof && prove Fol.Indexed s <> Ok Fol.Proof)
      obligations
  in
  Printf.printf
    "  examples: %d fol obligations   indexed %d proofs (%.2fs)   naive %d \
     proofs (%.2fs)\n%!"
    (List.length obligations) indexed_valid examples_indexed_s naive_valid
    examples_naive_s;
  let json =
    Printf.sprintf
      "{\"saturation\":{\"rows\":%d,\"reps\":%d,\"indexed_s\":%.4f,\
       \"naive_s\":%.4f,\"speedup\":%.2f,\"verdicts_identical\":%b},\
       \"examples\":{\"obligations\":%d,\"indexed_proofs\":%d,\
       \"naive_proofs\":%d,\"indexed_s\":%.4f,\"naive_s\":%.4f},\
       \"index_counters\":{%s}}"
      n_rows reps total_indexed total_naive speedup (!divergent = [])
      (List.length obligations) indexed_valid naive_valid examples_indexed_s
      examples_naive_s
      (String.concat ","
         (List.map
            (fun (k, n) ->
              Printf.sprintf "\"%s\":%d"
                (String.map (function '.' -> '_' | c -> c) k)
                n)
            counters))
  in
  let oc = open_out "BENCH_fol.json" in
  Printf.fprintf oc "%s\n" json;
  close_out oc;
  Printf.printf "  wrote BENCH_fol.json\n%!";
  note_json "fol" json;
  (* pass/fail guards *)
  if !divergent <> [] then
    failwith
      ("indexed and naive engines disagree on: "
      ^ String.concat ", " !divergent);
  if lost <> [] then
    failwith
      (Printf.sprintf
         "indexed engine lost %d naive proofs on the examples obligations"
         (List.length lost));
  if speedup < 2.0 then
    failwith
      (Printf.sprintf "saturation-suite speedup %.2fx below the 2x floor"
         speedup)

(* ------------------------------------------------------------------ *)
(* MONA: BDD symbolic automata engine vs the dense table engine        *)
(* ------------------------------------------------------------------ *)

let mona_speedup_floor = 3.0

let mona_bench () =
  let module W = Mona.Ws1s in
  header "MONA: BDD symbolic automata engine vs dense table engine A/B";
  Printf.printf
    "the WS1S decision procedure's automata were rebuilt over shared\n\
    \  MTBDDs: each state's outgoing behavior is a decision diagram over\n\
    \  the track variables, so product/quantification/minimization never\n\
    \  touch the 2^width concrete alphabet.  The original table engine is\n\
    \  kept as ~engine:Dense.  This interleaves both engines over a\n\
    \  width-scaling suite plus the examples' MONA-routed obligations,\n\
    \  and fails on any verdict divergence or a total speedup below\n\
    \  %.1fx on the scaling suite.\n"
    mona_speedup_floor;
  let x i = Printf.sprintf "X%d" i in
  (* subset chain over w set tracks: dense rows are 2^w letters wide,
     the BDD rows are w nodes deep *)
  let chain w =
    W.Impl
      ( W.And (List.init (w - 1) (fun i -> W.Pred (W.Sub (x i, x (i + 1))))),
        W.Pred (W.Sub (x 0, x (w - 1))) )
  in
  let chain_rev w =
    W.Impl
      ( W.And (List.init (w - 1) (fun i -> W.Pred (W.Sub (x i, x (i + 1))))),
        W.Pred (W.Sub (x (w - 1), x 0)) )
  in
  (* All2-close the chain: every binder is a dense project+re-insert
     rebuild but a symbolic in-place quantification *)
  let all2_cover w =
    List.fold_left
      (fun acc i -> W.All2 (x i, acc))
      (chain w)
      (List.init w Fun.id)
  in
  (* first-order transitivity tower: each position variable rides on a
     singleton-constrained track *)
  let order w =
    let p i = Printf.sprintf "p%d" i in
    List.fold_left
      (fun acc i -> W.All1 (p i, acc))
      (W.Impl
         ( W.And
             (List.init (w - 1) (fun i -> W.Pred (W.LessF (p i, p (i + 1))))),
           W.Pred (W.LessF (p 0, p (w - 1))) ))
      (List.init w Fun.id)
  in
  (* union tower: k EqUnion constraints over 2k+2 tracks *)
  let union_tower k =
    let u i = Printf.sprintf "U%d" i in
    W.Impl
      ( W.And
          (W.Pred (W.EqS (u 0, x 0))
          :: List.init k (fun i ->
                 W.Pred (W.EqUnion (u (i + 1), u i, x (i + 1))))),
        W.And [ W.Pred (W.Sub (x 0, u k)); W.Pred (W.Sub (x k, u k)) ] )
  in
  let suite =
    [ ("chain6", chain 6, true);
      ("chain8", chain 8, true);
      ("chain10", chain 10, true);
      ("chain12", chain 12, true);
      ("chain14", chain 14, true);
      ("chain-rev8", chain_rev 8, false);
      ("chain-rev12", chain_rev 12, false);
      ("all2-cover6", all2_cover 6, true);
      ("all2-cover8", all2_cover 8, true);
      ("all2-cover10", all2_cover 10, true);
      ("order6", order 6, true);
      ("order8", order 8, true);
      ("order10", order 10, true);
      ("union-tower3", union_tower 3, true);
      ("union-tower5", union_tower 5, true);
    ]
  in
  Trace.start_collecting ();
  W.reset_peak_states ();
  let reps = 3 in
  let n_rows = List.length suite in
  let best_bdd = Array.make n_rows infinity in
  let best_dense = Array.make n_rows infinity in
  let verdicts = Array.make n_rows (true, true) in
  for rep = 0 to reps - 1 do
    List.iteri
      (fun i (_, f, _) ->
        (* interleave and alternate engine order so drift and warmth
           cannot favor one arm *)
        let sample engine best =
          let v, dt = time_it (fun () -> W.valid ~engine f) in
          best.(i) <- Float.min best.(i) dt;
          v
        in
        let vb, vd =
          if rep mod 2 = 0 then
            let vb = sample W.Bdd best_bdd in
            (vb, sample W.Dense best_dense)
          else
            let vd = sample W.Dense best_dense in
            (sample W.Bdd best_bdd, vd)
        in
        verdicts.(i) <- (vb, vd))
      suite
  done;
  let peak = W.peak_states () in
  let divergent = ref [] in
  let wrong = ref [] in
  List.iteri
    (fun i (name, _, expected) ->
      let vb, vd = verdicts.(i) in
      Printf.printf "  %-16s bdd %8.4fs %-7s   dense %8.4fs %-7s\n%!" name
        best_bdd.(i)
        (if vb then "valid" else "invalid")
        best_dense.(i)
        (if vd then "valid" else "invalid");
      if vb <> vd then divergent := name :: !divergent;
      if vb <> expected then wrong := name :: !wrong)
    suite;
  let total_bdd = Array.fold_left ( +. ) 0. best_bdd in
  let total_dense = Array.fold_left ( +. ) 0. best_dense in
  let speedup = total_dense /. total_bdd in
  Printf.printf
    "  scaling suite: bdd %.4fs   dense %.4fs   speedup %.1fx   peak \
     automaton states %d\n%!"
    total_bdd total_dense speedup peak;
  let counters =
    List.map
      (fun k -> (k, Trace.counter_value k))
      [ "mona.bdd.unique"; "mona.bdd.cache.lookups"; "mona.bdd.cache.hits" ]
  in
  List.iter (fun (k, n) -> Printf.printf "  %-24s %d\n%!" k n) counters;
  (* -- the infeasibility row: a width the dense engine cannot decide
        within a prover budget (its tables are 2^22 letters per state)
        while the symbolic engine answers in milliseconds -- *)
  let hard_w = 22 in
  let hard_budget = 5.0 in
  let hard = chain hard_w in
  let decide engine =
    try
      if
        Deadline.with_token
          (Deadline.make ~deadline_in:hard_budget ())
          (fun () -> W.valid ~engine hard)
      then "valid"
      else "invalid"
    with Deadline.Expired -> "expired"
  in
  W.reset_peak_states ();
  let dense_hard, dense_hard_s = time_it (fun () -> decide W.Dense) in
  let dense_hard_peak = W.peak_states () in
  W.reset_peak_states ();
  let bdd_hard, bdd_hard_s = time_it (fun () -> decide W.Bdd) in
  let bdd_hard_peak = W.peak_states () in
  Printf.printf
    "  width-%d chain (budget %.0fs): dense %s after %.2fs (peak %d \
     states)   bdd %s in %.4fs (peak %d states)\n%!"
    hard_w hard_budget dense_hard dense_hard_s dense_hard_peak bdd_hard
    bdd_hard_s bdd_hard_peak;
  (* -- the examples suite: every obligation the MONA route admits from
        the examples that produce any (Buffer's global invariants and
        the association-list lemmas), decided end-to-end through Fca
        under both engines.  Verdict kinds must match exactly -- *)
  let obligations =
    [ examples_dir ^ "/global/Buffer.java"; examples_dir ^ "/assoc/Assoc.java" ]
    |> List.concat_map (fun f ->
           let prog = Javaparser.Jparser.parse_program_file f in
           List.concat_map Vcgen.method_obligations
             (Gcl.Desugar.program_tasks prog))
    |> List.filter Fca.in_fragment
  in
  let verdict_kind = function
    | Sequent.Valid -> "valid"
    | Sequent.Invalid _ -> "invalid"
    | Sequent.Unknown _ -> "unknown"
  in
  let run_examples engine =
    time_it (fun () ->
        List.map (fun s -> verdict_kind (Fca.prove_with ~engine s)) obligations)
  in
  let dense_ex, dense_ex_s = run_examples W.Dense in
  let bdd_ex, bdd_ex_s = run_examples W.Bdd in
  let ex_identical = bdd_ex = dense_ex in
  let ex_valid = List.length (List.filter (( = ) "valid") bdd_ex) in
  Printf.printf
    "  examples: %d mona-routed obligations   bdd %d valid (%.2fs)   \
     dense (%.2fs)   verdicts identical: %b\n%!"
    (List.length obligations) ex_valid bdd_ex_s dense_ex_s ex_identical;
  let json =
    Printf.sprintf
      "{\"scaling\":{\"rows\":%d,\"reps\":%d,\"bdd_s\":%.4f,\
       \"dense_s\":%.4f,\"speedup\":%.2f,\"verdicts_identical\":%b,\
       \"peak_states\":%d},\"hard\":{\"width\":%d,\"budget_s\":%.1f,\
       \"dense\":\"%s\",\"dense_s\":%.2f,\"dense_peak_states\":%d,\
       \"bdd\":\"%s\",\"bdd_s\":%.4f,\"bdd_peak_states\":%d},\
       \"examples\":{\"obligations\":%d,\"bdd_valid\":%d,\"bdd_s\":%.4f,\
       \"dense_s\":%.4f,\"verdicts_identical\":%b},\
       \"bdd_counters\":{%s},\"speedup_floor\":%.1f}"
      n_rows reps total_bdd total_dense speedup (!divergent = []) peak
      hard_w hard_budget dense_hard dense_hard_s dense_hard_peak bdd_hard
      bdd_hard_s bdd_hard_peak (List.length obligations) ex_valid bdd_ex_s
      dense_ex_s ex_identical
      (String.concat ","
         (List.map
            (fun (k, n) ->
              Printf.sprintf "\"%s\":%d"
                (String.map (function '.' -> '_' | c -> c) k)
                n)
            counters))
      mona_speedup_floor
  in
  let oc = open_out "BENCH_mona.json" in
  Printf.fprintf oc "%s\n" json;
  close_out oc;
  Printf.printf "  wrote BENCH_mona.json\n%!";
  note_json "mona" json;
  (* pass/fail guards *)
  if !divergent <> [] then
    failwith
      ("bdd and dense engines disagree on: " ^ String.concat ", " !divergent);
  if !wrong <> [] then
    failwith
      ("engines agree but contradict the known verdict on: "
      ^ String.concat ", " !wrong);
  if not ex_identical then
    failwith "bdd and dense verdicts diverge on the examples obligations";
  if speedup < mona_speedup_floor then
    failwith
      (Printf.sprintf "scaling-suite speedup %.2fx below the %.1fx floor"
         speedup mona_speedup_floor);
  if dense_hard <> "expired" then
    failwith
      (Printf.sprintf
         "width-%d row: the dense engine finished (%s) inside the %.0fs \
          budget — raise the width so the row stays infeasible"
         hard_w dense_hard hard_budget);
  if bdd_hard <> "valid" then
    failwith
      (Printf.sprintf "width-%d row: bdd engine answered %s, expected valid"
         hard_w bdd_hard)

let experiments =
  [ ("fig1_4", fig1_4);
    ("fig1_4b", fig1_4_annotated);
    ("s3_global", s3_global);
    ("s3_assoc", s3_assoc);
    ("s3_game", s3_game);
    ("s3_card", s3_card);
    ("s2_array", s2_array);
    ("s3_dp", s3_dp);
    ("abl_split", abl_split);
    ("abl_shape", abl_shape);
    ("perf", perf);
    ("trace_overhead", trace_overhead);
    ("fol", fol_bench);
    ("mona", mona_bench);
    ("sched", sched_bench);
    ("daemon", daemon_bench);
    ("incremental", incremental_bench);
    ("micro", micro);
    ("scaling", scaling);
  ]

(* {v bench/main.exe [--json] [-j N] [EXPERIMENT...] v}
   [--json] writes per-experiment timings and obligation counts to
   BENCH_results.json; [-j N] verifies with N worker domains. *)
let () =
  let rec parse_args names = function
    | [] -> List.rev names
    | "--json" :: rest ->
      json_mode := true;
      parse_args names rest
    | "-j" :: n :: rest ->
      bench_jobs := int_of_string n;
      parse_args names rest
    | name :: rest -> parse_args (name :: names) rest
  in
  let requested =
    match parse_args [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst experiments
    | names -> names
  in
  let failed = ref [] in
  let records =
    List.filter_map
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f ->
          reset_accumulators ();
          let ok, dt =
            time_it (fun () ->
                try f (); true
                with e ->
                  Printf.printf "  experiment %s failed: %s\n%!" name
                    (Printexc.to_string e);
                  failed := name :: !failed;
                  false)
          in
          Some
            (Printf.sprintf
               "{\"name\":\"%s\",\"ok\":%b,\"seconds\":%.4f,\
                \"obligations\":{\"total\":%d,\"valid\":%d,\"invalid\":%d,\
                \"unknown\":%d}%s}"
               name ok dt !acc_total !acc_valid !acc_invalid !acc_unknown
               (String.concat ""
                  (List.map
                     (fun (k, v) -> Printf.sprintf ",\"%s\":%s" k v)
                     (List.rev !json_extra))))
        | None ->
          Printf.printf "unknown experiment: %s\n%!" name;
          None)
      requested
  in
  if !json_mode then begin
    let oc = open_out "BENCH_results.json" in
    Printf.fprintf oc
      "{\"jobs\":%d,\"recommended_domain_count\":%d,\"timestamp\":\"%s\",\
       \"experiments\":[\n  %s\n]}\n"
      !bench_jobs
      (Domain.recommended_domain_count ())
      (iso8601_now ())
      (String.concat ",\n  " records);
    close_out oc;
    Printf.printf "\nwrote BENCH_results.json (%d experiments)\n%!"
      (List.length records)
  end;
  (* a failed guard (sched, trace_overhead, ...) must fail CI *)
  if !failed <> [] then begin
    Printf.printf "\nFAILED experiments: %s\n%!"
      (String.concat ", " (List.rev !failed));
    exit 1
  end
