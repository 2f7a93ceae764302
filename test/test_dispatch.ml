(** Dispatcher engine tests: the domain pool, the verdict cache and its
    canonicalized keys, per-prover budgets, and the guarantee that
    parallel dispatch reports exactly what sequential dispatch reports. *)

open Logic

let parse = Parser.parse

let seq ?name hyps goal =
  Sequent.make ?name (List.map parse hyps) (parse goal)

(* sleep [delay] seconds, polling the calling domain's deadline as a
   prover's search loop would *)
let sleep_polling delay =
  let t0 = Clock.now () in
  while Clock.now () -. t0 < delay do
    Deadline.check ();
    Thread.delay 0.001
  done

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_order () =
  let pool = Dispatch.Pool.create ~jobs:4 in
  let xs = List.init 100 (fun i -> i) in
  let got = Dispatch.Pool.map pool (fun i -> i * i) xs in
  Dispatch.Pool.shutdown pool;
  Alcotest.(check (list int)) "order preserved" (List.map (fun i -> i * i) xs) got

let test_pool_nested () =
  (* a task that itself maps on the same pool must not deadlock *)
  let pool = Dispatch.Pool.create ~jobs:3 in
  let got =
    Dispatch.Pool.map pool
      (fun i ->
        List.fold_left ( + ) 0
          (Dispatch.Pool.map pool (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
      [ 0; 1; 2; 3; 4 ]
  in
  Dispatch.Pool.shutdown pool;
  Alcotest.(check (list int)) "nested map"
    (List.map (fun i -> (30 * i) + 6) [ 0; 1; 2; 3; 4 ])
    got

let test_pool_exception () =
  let pool = Dispatch.Pool.create ~jobs:2 in
  let r =
    try
      ignore
        (Dispatch.Pool.map pool
           (fun i -> if i = 3 then failwith "boom" else i)
           [ 1; 2; 3; 4 ]);
      "no exception"
    with Failure m -> m
  in
  Dispatch.Pool.shutdown pool;
  Alcotest.(check string) "exception propagates" "boom" r

let test_pool_nested_exception () =
  (* an exception in an inner batch surfaces through the outer [map],
     and the pool is left in a state that runs the next batch *)
  let pool = Dispatch.Pool.create ~jobs:3 in
  let r =
    try
      ignore
        (Dispatch.Pool.map pool
           (fun i ->
             Dispatch.Pool.map pool
               (fun j -> if i = 2 && j = 1 then failwith "inner" else j)
               [ 0; 1; 2 ])
           [ 0; 1; 2; 3 ]);
      "no exception"
    with Failure m -> m
  in
  Alcotest.(check string) "inner exception propagates" "inner" r;
  let got = Dispatch.Pool.map pool (fun i -> i + 1) [ 1; 2; 3; 4; 5 ] in
  Dispatch.Pool.shutdown pool;
  Alcotest.(check (list int)) "fresh map completes" [ 2; 3; 4; 5; 6 ] got

let test_pool_stress () =
  (* N domains x M tasks with nested submission: every task runs exactly
     once and nothing deadlocks *)
  let stress jobs =
    let pool = Dispatch.Pool.create ~jobs in
    let outer = 40 and inner = 25 in
    let runs = Array.init (outer * inner) (fun _ -> Atomic.make 0) in
    let totals =
      Dispatch.Pool.map pool
        (fun i ->
          let sub =
            Dispatch.Pool.map pool
              (fun j ->
                Atomic.incr runs.((i * inner) + j);
                1)
              (List.init inner (fun j -> j))
          in
          List.fold_left ( + ) 0 sub)
        (List.init outer (fun i -> i))
    in
    Dispatch.Pool.shutdown pool;
    let label = Printf.sprintf "-j %d: %s" jobs in
    Alcotest.(check (list int)) (label "every inner batch completed")
      (List.init outer (fun _ -> inner))
      totals;
    let bad = ref 0 in
    Array.iter (fun a -> if Atomic.get a <> 1 then incr bad) runs;
    Alcotest.(check int) (label "each task ran exactly once") 0 !bad
  in
  List.iter stress [ 2; 3; 4 ]

let test_fresh_names_distinct () =
  (* four domains drawing fresh names at once never mint the same one *)
  let per_domain = 5_000 in
  let draw () = List.init per_domain (fun _ -> Form.fresh_name "x") in
  let names =
    List.init 4 (fun _ -> Domain.spawn draw) |> List.concat_map Domain.join
  in
  Alcotest.(check int) "pairwise distinct" (4 * per_domain)
    (List.length (List.sort_uniq String.compare names))

(* ------------------------------------------------------------------ *)
(* Canonicalization and digests                                        *)
(* ------------------------------------------------------------------ *)

let test_digest_hyp_order () =
  let a = seq [ "x <= y"; "y <= z" ] "x <= z" in
  let b = seq [ "y <= z"; "x <= y" ] "x <= z" in
  Alcotest.(check string) "hypothesis order ignored" (Sequent.digest a)
    (Sequent.digest b)

let test_digest_alpha () =
  let a = seq [ "ALL u. u..f = u"; "x < y" ] "a..f = a" in
  let b = seq [ "x < y"; "ALL v. v..f = v" ] "a..f = a" in
  Alcotest.(check string) "bound variable names ignored" (Sequent.digest a)
    (Sequent.digest b);
  let c = seq [ "EX p. p : A & (ALL q. q : A --> p = q)" ] "card A = 1" in
  let d = seq [ "EX w. w : A & (ALL z. z : A --> w = z)" ] "card A = 1" in
  Alcotest.(check string) "nested binders normalized" (Sequent.digest c)
    (Sequent.digest d)

let test_digest_discriminates () =
  let a = seq [ "x <= y" ] "x <= y" in
  let b = seq [ "x <= y" ] "y <= x" in
  Alcotest.(check bool) "different goals, different keys" false
    (Sequent.digest a = Sequent.digest b)

let test_digest_name_irrelevant () =
  let a = seq ~name:"List.add: post" [ "x <= y" ] "x <= y" in
  let b = seq ~name:"List.remove: pre" [ "x <= y" ] "x <= y" in
  Alcotest.(check string) "provenance label ignored" (Sequent.digest a)
    (Sequent.digest b)

let test_canonicalize_dedups () =
  let s = seq [ "x <= y"; "a = b"; "x <= y" ] "x <= z" in
  let c = Sequent.canonicalize s in
  Alcotest.(check int) "duplicate hypotheses collapse" 2
    (List.length c.Sequent.hyps)

(* regression: the surface printer renders Le/Subseteq as [<=], Lt/Subset
   as [<] and Minus/Diff as [-].  Digests are computed before typechecking
   resolves the surface form, so keying the cache on the ambiguous
   printing returned cached verdicts for the wrong obligation. *)
let test_digest_set_vs_int_ops () =
  let open Form in
  let check_distinct label c1 c2 =
    let mk c = Sequent.make [] (App (Const c, [ Var "x"; Var "y" ])) in
    Alcotest.(check bool) label false
      (Sequent.digest (mk c1) = Sequent.digest (mk c2))
  in
  check_distinct "Le vs Subseteq" Le Subseteq;
  check_distinct "Lt vs Subset" Lt Subset;
  let mk c = Sequent.make [] (mk_eq (App (Const c, [ Var "x"; Var "y" ])) (Var "z")) in
  Alcotest.(check bool) "Minus vs Diff" false
    (Sequent.digest (mk Minus) = Sequent.digest (mk Diff))

(* regression: alpha-normalization stripped type annotations, so two
   obligations differing only in a binder's sort collided *)
let test_digest_binder_sorts () =
  let a = seq [] "ALL (x::int). x = x" in
  let b = seq [] "ALL (x::obj). x = x" in
  Alcotest.(check bool) "binder sorts distinguish keys" false
    (Sequent.digest a = Sequent.digest b);
  (* unannotated binders carry unification variables whose indices differ
     per parse; they must still collide with themselves *)
  let c = seq [] "ALL x. x = x" in
  let d = seq [] "ALL y. y = y" in
  Alcotest.(check string) "unannotated binders still alpha-collapse"
    (Sequent.digest c) (Sequent.digest d)

(* ------------------------------------------------------------------ *)
(* Verdict cache                                                       *)
(* ------------------------------------------------------------------ *)

(* a prover that counts invocations; goal chosen so the syntactic check
   cannot settle it first *)
let counting_prover (count : int ref) : Sequent.prover =
  { Sequent.prover_name = "count";
    prove = (fun _ -> incr count; Sequent.Valid) }

let test_cache_hit () =
  let count = ref 0 in
  let cache = Dispatch.Cache.create () in
  let d = Dispatch.create ~cache [ counting_prover count ] in
  let a = seq [ "ALL u. u..f = u"; "x < y" ] "p..g = q" in
  (* same obligation, reordered hypotheses and renamed binder *)
  let b = seq [ "x < y"; "ALL v. v..f = v" ] "p..g = q" in
  let ra = Dispatch.prove_sequent d a in
  let rb = Dispatch.prove_sequent d b in
  let rc = Dispatch.prove_sequent d a in
  Alcotest.(check int) "prover ran once" 1 !count;
  Alcotest.(check bool) "verdicts identical" true
    (ra.Dispatch.verdict = rb.Dispatch.verdict
    && rb.Dispatch.verdict = rc.Dispatch.verdict);
  Alcotest.(check (option string)) "settling prover reported on hits"
    (Some "count") rc.Dispatch.prover;
  let k = Dispatch.Cache.counters cache in
  Alcotest.(check int) "two hits" 2 k.Dispatch.Cache.hit_count;
  Alcotest.(check int) "one miss" 1 k.Dispatch.Cache.miss_count

(* a prover that counts its calls and always gives up the same way *)
let giving_up ?(name = "giveup") (count : int Atomic.t) : Sequent.prover =
  { Sequent.prover_name = name;
    prove = (fun _ -> Atomic.incr count; Sequent.Unknown "out of fragment") }

let test_unknown_replayed () =
  let count = Atomic.make 0 in
  let cache = Dispatch.Cache.create () in
  let d = Dispatch.create ~cache [ giving_up count ] in
  let s = seq [ "x < y" ] "p..g = q" in
  let r1 = Dispatch.prove_sequent d s in
  Alcotest.(check string) "first attempt gives up" "unknown"
    (Sequent.verdict_kind r1.Dispatch.verdict);
  Alcotest.(check bool) "not resource-limited" false r1.Dispatch.limited;
  (* a deterministic Unknown is what a fresh attempt would answer *)
  let r2 = Dispatch.prove_sequent d s in
  Alcotest.(check string) "replayed verdict" "unknown"
    (Sequent.verdict_kind r2.Dispatch.verdict);
  Alcotest.(check bool) "replay reported as cached" true r2.Dispatch.cached;
  Alcotest.(check int) "prover ran once" 1 (Atomic.get count);
  let k = Dispatch.Cache.counters cache in
  Alcotest.(check int) "one unknown entry" 1 k.Dispatch.Cache.unknown_entries;
  Alcotest.(check int) "one replay" 1 k.Dispatch.Cache.unknown_replayed;
  Alcotest.(check int) "replay counted as a hit" 1 k.Dispatch.Cache.hit_count

(* every kind of resource-limited Unknown leaves no cache entry: the
   next request re-attempts it *)
let test_limited_unknown_retried () =
  let s = seq [ "x < y" ] "p..g = q" in
  let check_retried what ?budget_s ?(around = fun f -> f ()) prove =
    let count = Atomic.make 0 in
    let p =
      { Sequent.prover_name = "limited";
        prove = (fun s -> Atomic.incr count; prove s) }
    in
    let cache = Dispatch.Cache.create () in
    let d = Dispatch.create ~cache ?budget_s [ p ] in
    let r1 = around (fun () -> Dispatch.prove_sequent d s) in
    Alcotest.(check string) (what ^ ": gives up") "unknown"
      (Sequent.verdict_kind r1.Dispatch.verdict);
    Alcotest.(check bool) (what ^ ": resource-limited") true r1.Dispatch.limited;
    let r2 = around (fun () -> Dispatch.prove_sequent d s) in
    Alcotest.(check bool) (what ^ ": not from the cache") false
      r2.Dispatch.cached;
    Alcotest.(check bool) (what ^ ": limited again") true r2.Dispatch.limited;
    Alcotest.(check int) (what ^ ": prover ran again") 2 (Atomic.get count);
    Alcotest.(check int) (what ^ ": nothing stored") 0
      (Dispatch.Cache.counters cache).Dispatch.Cache.entries
  in
  check_retried "budget exceeded" ~budget_s:0.02 (fun _ ->
      sleep_polling 0.3;
      Sequent.Valid);
  (* an enclosing token already cancelled: the prover's first checkpoint
     raises Deadline.Expired, which a budget reports as "cancelled" *)
  let cancelled f =
    let t = Deadline.make () in
    Deadline.cancel t;
    Deadline.with_token t f
  in
  let spin _ =
    while true do
      Deadline.check ();
      Thread.delay 0.001
    done;
    Sequent.Valid
  in
  check_retried "cancelled under a budget" ~budget_s:5.0 ~around:cancelled
    spin;
  check_retried "deadline expired" ~around:cancelled spin;
  check_retried "prover raised" (fun _ -> failwith "boom");
  check_retried "wall-clock cut-off" (fun _ ->
      raise (Sequent.Resource_limited Fol.timed_out_reason))

let test_unknown_counters_jobs () =
  (* duplicated obligations, half of them deterministically unknown:
     the counters come out the same at -j 1 and -j 4 *)
  let obligations =
    List.concat
      (List.init 4 (fun _ ->
           List.init 12 (fun i ->
               seq [ Printf.sprintf "x%d < y" i ]
                 (if i mod 2 = 0 then "p..g = q" else "p..h = q"))))
  in
  let run jobs =
    let count = Atomic.make 0 in
    let p =
      { Sequent.prover_name = "half";
        prove =
          (fun s ->
            Atomic.incr count;
            if Form.fv s.Sequent.goal |> Form.Sset.mem "g" then Sequent.Valid
            else Sequent.Unknown "out of fragment") }
    in
    let pool = if jobs > 1 then Some (Dispatch.Pool.create ~jobs) else None in
    let cache = Dispatch.Cache.create () in
    let d = Dispatch.create ?pool ~cache [ p ] in
    let reports = Dispatch.prove_all d obligations in
    Option.iter Dispatch.Pool.shutdown pool;
    let k = Dispatch.Cache.counters cache in
    ( List.map (fun r -> Sequent.verdict_kind r.Dispatch.verdict) reports,
      (k.Dispatch.Cache.hit_count, k.Dispatch.Cache.miss_count),
      (k.Dispatch.Cache.unknown_entries, k.Dispatch.Cache.unknown_replayed),
      Atomic.get count )
  in
  let v1, hm1, u1, c1 = run 1 and v4, hm4, u4, c4 = run 4 in
  Alcotest.(check (list string)) "same verdicts" v1 v4;
  Alcotest.(check (pair int int)) "hits/misses" hm1 hm4;
  Alcotest.(check (pair int int)) "unknown entries/replays" u1 u4;
  Alcotest.(check (pair int int)) "12 misses, 36 hits" (36, 12) hm1;
  Alcotest.(check (pair int int)) "6 entries, 18 replays" (6, 18) u1;
  Alcotest.(check int) "each obligation proved once" c1 c4;
  Alcotest.(check int) "12 attempts" 12 c1

let test_cache_bypass () =
  (* no cache: every repetition reaches the portfolio (--no-cache) *)
  let count = ref 0 in
  let d = Dispatch.create [ counting_prover count ] in
  let s = seq [ "x < y" ] "p..g = q" in
  ignore (Dispatch.prove_sequent d s);
  ignore (Dispatch.prove_sequent d s);
  ignore (Dispatch.prove_sequent d s);
  Alcotest.(check int) "prover ran every time" 3 !count

(* ------------------------------------------------------------------ *)
(* The in-flight claim table                                           *)
(* ------------------------------------------------------------------ *)

let test_cache_claim_race () =
  (* domains racing on one key: exactly one gets the claim, the others
     are served the published verdict as hits — and the counters come
     out the same no matter how the race interleaves *)
  let c = Dispatch.Cache.create () in
  let k = "claim-race-digest" in
  let entry = { Dispatch.Cache.verdict = Sequent.Valid; prover = Some "smt" } in
  let claims = Atomic.make 0 and hits = Atomic.make 0 in
  let release = Atomic.make false in
  let worker () =
    match Dispatch.Cache.acquire c k with
    | Dispatch.Cache.Claimed ->
      Atomic.incr claims;
      (* hold the claim until the main thread releases it, so the other
         workers really do have to wait on an in-flight entry *)
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done;
      Dispatch.Cache.publish c k entry
    | Dispatch.Cache.Hit e ->
      if e.Dispatch.Cache.verdict = Sequent.Valid then Atomic.incr hits
  in
  let ds = List.init 3 (fun _ -> Domain.spawn worker) in
  Unix.sleepf 0.05;
  Atomic.set release true;
  List.iter Domain.join ds;
  Alcotest.(check int) "exactly one claim" 1 (Atomic.get claims);
  Alcotest.(check int) "every other lookup hits" 2 (Atomic.get hits);
  let k' = Dispatch.Cache.counters c in
  Alcotest.(check int) "one miss counted" 1 k'.Dispatch.Cache.miss_count;
  Alcotest.(check int) "two hits counted" 2 k'.Dispatch.Cache.hit_count

let test_cache_claim_abandon () =
  let c = Dispatch.Cache.create () in
  let k = "claim-abandon-digest" in
  (match Dispatch.Cache.acquire c k with
  | Dispatch.Cache.Claimed -> ()
  | Dispatch.Cache.Hit _ -> Alcotest.fail "fresh key cannot hit");
  (* a second domain blocks on the in-flight claim *)
  let second =
    Domain.spawn (fun () ->
        match Dispatch.Cache.acquire c k with
        | Dispatch.Cache.Claimed ->
          Dispatch.Cache.publish c k
            { Dispatch.Cache.verdict = Sequent.Valid; prover = None };
          "reclaimed"
        | Dispatch.Cache.Hit _ -> "hit")
  in
  Unix.sleepf 0.05;
  (* giving the claim up (an Unknown verdict) wakes the waiter, which
     re-claims and settles the key itself — same as at -j 1 *)
  Dispatch.Cache.abandon c k;
  Alcotest.(check string) "abandoned claim falls to the waiter" "reclaimed"
    (Domain.join second);
  (match Dispatch.Cache.acquire c k with
  | Dispatch.Cache.Hit _ -> ()
  | Dispatch.Cache.Claimed -> Alcotest.fail "published entry must hit");
  let k' = Dispatch.Cache.counters c in
  Alcotest.(check int) "two misses: claim and re-claim" 2
    k'.Dispatch.Cache.miss_count;
  Alcotest.(check int) "one hit: the settled lookup" 1
    k'.Dispatch.Cache.hit_count

let test_claim_dedups_in_dispatcher () =
  (* four identical obligations fanned out at -j 4 cost ONE prover call:
     the claim table blocks the other three until the verdict lands *)
  let calls = Atomic.make 0 in
  let prover =
    { Sequent.prover_name = "slowcount";
      prove =
        (fun _ ->
          Atomic.incr calls;
          Thread.delay 0.05;
          Sequent.Valid) }
  in
  let cache = Dispatch.Cache.create () in
  let pool = Dispatch.Pool.create ~jobs:4 in
  let d = Dispatch.create ~pool ~cache [ prover ] in
  let s = seq [ "x > 0"; "x < 2" ] "x = 1" in
  let copies = List.init 4 (fun _ -> s) in
  let r = Dispatch.summarize (Dispatch.prove_all d copies) in
  Dispatch.Pool.shutdown pool;
  Alcotest.(check int) "all four obligations settled" 4 r.Dispatch.valid;
  Alcotest.(check int) "prover called exactly once" 1 (Atomic.get calls);
  let k = Dispatch.Cache.counters cache in
  Alcotest.(check int) "one miss" 1 k.Dispatch.Cache.miss_count;
  Alcotest.(check int) "three hits" 3 k.Dispatch.Cache.hit_count

(* ------------------------------------------------------------------ *)
(* Parallel dispatch agrees with sequential dispatch                   *)
(* ------------------------------------------------------------------ *)

let mixed_sequents () =
  List.concat
    (List.init 5 (fun i ->
         let x = Printf.sprintf "x%d" i in
         [ seq [ x ^ " > 0"; x ^ " < 2" ] (x ^ " = 1"); (* valid: smt *)
           seq [ x ^ " >= 0" ] (x ^ " >= 1"); (* invalid: smt countermodel *)
           seq [ "card A" ^ x ^ " = 2" ] ("card A" ^ x ^ " = 3"); (* invalid *)
           seq [] (x ^ " = " ^ x ^ " + 1"); (* invalid *)
           seq [ x ^ " = 1" ] ("unrelated" ^ x ^ " : S" ^ x); (* unknown *)
         ]))

(* [f ()] and the per-prover trace counters [prover.*] it left *)
let with_prover_counters f =
  Trace.reset ();
  Trace.start_collecting ();
  let r = Fun.protect ~finally:Trace.stop f in
  let counters =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"prover." k)
      (Trace.counter_list ())
  in
  Trace.reset ();
  (r, counters)

let test_parallel_matches_sequential () =
  let sequents = mixed_sequents () in
  let provers () = Jahob_core.Jahob.default_provers () in
  let d_seq = Dispatch.create (provers ()) in
  let r_seq, c_seq =
    with_prover_counters (fun () ->
        Dispatch.summarize (Dispatch.prove_all d_seq sequents))
  in
  let pool = Dispatch.Pool.create ~jobs:4 in
  let d_par = Dispatch.create ~pool (provers ()) in
  let r_par, c_par =
    with_prover_counters (fun () ->
        Dispatch.summarize (Dispatch.prove_all d_par sequents))
  in
  Dispatch.Pool.shutdown pool;
  Alcotest.(check (list (pair string (pair int int))))
    "summary counts agree"
    [ ("totals", (r_seq.Dispatch.total, r_seq.Dispatch.valid));
      ("rest", (r_seq.Dispatch.invalid, r_seq.Dispatch.unknown)) ]
    [ ("totals", (r_par.Dispatch.total, r_par.Dispatch.valid));
      ("rest", (r_par.Dispatch.invalid, r_par.Dispatch.unknown)) ];
  Alcotest.(check bool) "smt attempts counted" true
    (List.mem_assoc "prover.smt.attempts" c_seq);
  Alcotest.(check (list (pair string int))) "per-prover stats agree" c_seq
    c_par;
  (* verdicts come back in input order *)
  List.iter2
    (fun (a : Dispatch.report) (b : Dispatch.report) ->
      Alcotest.(check string) "same verdict per obligation"
        (Sequent.verdict_to_string a.Dispatch.verdict)
        (Sequent.verdict_to_string b.Dispatch.verdict))
    r_seq.Dispatch.reports r_par.Dispatch.reports

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

let slow_prover ~delay : Sequent.prover =
  { Sequent.prover_name = "slow";
    prove = (fun _ -> sleep_polling delay; Sequent.Valid) }

let test_budget_exceeded () =
  match
    fst
      (Dispatch.run_budgeted ~budget_s:0.02 (slow_prover ~delay:0.4)
         (seq [] "x = x"))
  with
  | Sequent.Unknown m ->
    Alcotest.(check bool) "reason mentions the budget" true
      (String.length m >= 6 && String.sub m 0 6 = "budget")
  | v ->
    Alcotest.failf "expected unknown, got %s" (Sequent.verdict_to_string v)

let test_budget_sufficient () =
  match
    fst
      (Dispatch.run_budgeted ~budget_s:5.0 (slow_prover ~delay:0.01)
         (seq [] "x = x"))
  with
  | Sequent.Valid -> ()
  | v ->
    Alcotest.failf "expected valid, got %s" (Sequent.verdict_to_string v)

let test_budget_in_dispatcher () =
  (* a stalled prover answers unknown; the portfolio moves on to the next *)
  let d =
    Dispatch.create ~budget_s:0.02
      [ slow_prover ~delay:0.4; Smt.prover ]
  in
  let r = Dispatch.prove_sequent d (seq [ "x > 0"; "x < 2" ] "x = 1") in
  Alcotest.(check (option string)) "smt settles after slow times out"
    (Some "smt") r.Dispatch.prover;
  Alcotest.(check string) "valid" "valid"
    (Sequent.verdict_to_string r.Dispatch.verdict)

(* ------------------------------------------------------------------ *)
(* Cooperative deadlines                                               *)
(* ------------------------------------------------------------------ *)

(* a prover that spins on Deadline checkpoints forever: the only way it
   stops is a cooperative cancellation.  [polls] counts its checkpoints
   so a test can observe whether it is still running. *)
let checkpointing_prover ?(name = "spinner") (polls : int Atomic.t) :
    Sequent.prover =
  { Sequent.prover_name = name;
    prove =
      (fun _ ->
        (* let Expired propagate, as the portfolio's real search loops
           do: the dispatcher decides whether that was a budget or a
           race, the prover just stops *)
        while true do
          Deadline.check ();
          Atomic.incr polls;
          Thread.delay 0.0002
        done;
        assert false) }

let test_deadline_nesting () =
  let parent = Deadline.make () in
  let child = Deadline.make ~parent () in
  Alcotest.(check bool) "child alive before cancel" false
    (Deadline.cancel_requested child);
  Deadline.cancel parent;
  Alcotest.(check bool) "parent cancel reaches child" true
    (Deadline.cancel_requested child);
  (match Deadline.with_token child (fun () -> Deadline.check ()) with
  | () -> Alcotest.fail "checkpoint under a cancelled token must raise"
  | exception Deadline.Expired -> ());
  (* bindings nest and restore *)
  let outer = Deadline.make () in
  Deadline.with_token outer (fun () ->
      let inner = Deadline.make () in
      Deadline.with_token inner (fun () ->
          Alcotest.(check bool) "inner bound" true
            (Deadline.current () == Some inner || Deadline.current () = Some inner));
      Alcotest.(check bool) "outer restored" true
        (match Deadline.current () with Some t -> t == outer | None -> false))

let test_budget_cancels_cooperatively () =
  (* after a budget expiry the prover stops at its next checkpoint and
     the attempt answers: nothing keeps running behind the caller *)
  let polls = Atomic.make 0 in
  (match
     fst
       (Dispatch.run_budgeted ~budget_s:0.05 (checkpointing_prover polls)
          (seq [ "x < y" ] "p..g = q"))
   with
  | Sequent.Unknown m ->
    Alcotest.(check bool) "reason mentions the budget" true
      (String.length m >= 6 && String.sub m 0 6 = "budget")
  | v ->
    Alcotest.failf "expected unknown, got %s" (Sequent.verdict_to_string v));
  let frozen = Atomic.get polls in
  Alcotest.(check bool) "prover did checkpoint while running" true (frozen > 0);
  Thread.delay 0.05;
  Alcotest.(check int) "no checkpoints after cancellation" frozen
    (Atomic.get polls)

(* a real prover stops at its own checkpoints under a budget: fol proves
   this 17-link EUF congruence chain by resolution, but needs about 50ms
   for it (0.048-0.059s unbudgeted on a 2-core Xeon), so a 10ms budget
   can only end in a cut-off *)
let test_budget_stops_fol () =
  Trace.reset ();
  Trace.start_collecting ();
  let n = 17 in
  let v i = Printf.sprintf "c_%d" i in
  let s =
    seq
      (List.init n (fun i -> Printf.sprintf "%s = %s" (v i) (v (i + 1))))
      (Printf.sprintf "%s..f..g = %s..f..g" (v 0) (v n))
  in
  let d = Dispatch.create ~budget_s:0.01 [ Fol.prover ] in
  let t0 = Clock.now () in
  let r = Dispatch.prove_sequent d s in
  let elapsed = Clock.now () -. t0 in
  (* fol's own span shows that it unwound at a checkpoint *)
  let exceeded = Trace.counter_value "budget.exceeded" in
  let fol_span = List.assoc_opt "prover:fol" (Trace.span_stats ()) in
  Trace.stop ();
  Trace.reset ();
  Alcotest.(check string) "unknown" "unknown"
    (Sequent.verdict_kind r.Dispatch.verdict);
  Alcotest.(check bool) "resource-limited" true r.Dispatch.limited;
  Alcotest.(check int) "budget.exceeded counted" 1 exceeded;
  Alcotest.(check bool)
    (Printf.sprintf "answered within 0.5s (took %.3fs)" elapsed)
    true (elapsed < 0.5);
  (match fol_span with
  | Some { Trace.count = 1; _ } -> ()
  | _ -> Alcotest.fail "fol still running after its budget");
  (* the cascade reports its own give-up; the attempt's reason is the
     budget's *)
  match fst (Dispatch.run_budgeted ~budget_s:0.01 Fol.prover s) with
  | Sequent.Unknown m ->
    Alcotest.(check bool) ("budget reason: " ^ m) true
      (String.length m >= 6 && String.sub m 0 6 = "budget")
  | v ->
    Alcotest.failf "expected unknown, got %s" (Sequent.verdict_to_string v)

(* every smt attempt a verification makes is budgeted, shape
   inference's Houdini checks included: a spinning "smt" that only a
   budget stops (it gives up on its own after 0.25s, so an unbudgeted
   attempt shows as a span without a budget.exceeded) *)
let test_budget_reaches_shape () =
  let spinner =
    Sequent.traced_prover
      { Sequent.prover_name = "smt";
        prove =
          (fun _ ->
            sleep_polling 0.25;
            Sequent.Unknown "spun out") }
  in
  let prog =
    Javaparser.Jparser.parse_program
      {|class Counter {
          public static void count(int n)
          /*: requires "0 <= n" ensures "True" */
          {
              int k = 0;
              while (k < n) { k = k + 1; }
          }
        }|}
  in
  let run infer_loop_invariants =
    let opts =
      { (Jahob_core.Jahob.default_options ()) with
        Jahob_core.Jahob.provers = [ spinner ];
        infer_loop_invariants;
        budget_s = Some 0.02 }
    in
    Trace.reset ();
    Trace.start_collecting ();
    Fun.protect ~finally:Trace.stop (fun () ->
        ignore (Jahob_core.Jahob.verify_program ~opts prog));
    let spans =
      match List.assoc_opt "prover:smt" (Trace.span_stats ()) with
      | Some st -> st.Trace.count
      | None -> 0
    in
    let exceeded = Trace.counter_value "budget.exceeded" in
    Trace.reset ();
    (spans, exceeded)
  in
  let plain, _ = run false in
  let spans, exceeded = run true in
  Alcotest.(check bool)
    (Printf.sprintf "shape inference tried smt (%d attempts, %d without)"
       spans plain)
    true (spans > plain);
  Alcotest.(check int) "every attempt ended at its budget" spans exceeded

let test_raised_surfaced () =
  (* a crashing prover is counted, not silently swallowed *)
  let crasher =
    { Sequent.prover_name = "crasher";
      prove = (fun _ -> failwith "boom") }
  in
  let d = Dispatch.create [ crasher; Smt.prover ] in
  let r, counters =
    with_prover_counters (fun () ->
        Dispatch.prove_sequent d (seq [ "x > 0"; "x < 2" ] "x = 1"))
  in
  Alcotest.(check string) "portfolio still settles" "valid"
    (Sequent.verdict_kind r.Dispatch.verdict);
  let count k = Option.value ~default:0 (List.assoc_opt k counters) in
  Alcotest.(check int) "crash counted" 1 (count "prover.crasher.raised");
  Alcotest.(check int) "attempt counted" 1 (count "prover.crasher.attempts");
  Alcotest.(check int) "smt proved counted" 1 (count "prover.smt.proved")

(* ------------------------------------------------------------------ *)
(* End-to-end: parallel program verification                           *)
(* ------------------------------------------------------------------ *)

let test_verify_program_parallel () =
  (* every verdict, and the cache's hit and lookup counts, must not depend
     on -j: the claim table settles an in-flight duplicate once *)
  let run jobs =
    let opts = { (Jahob_core.Jahob.default_options ()) with jobs } in
    List.map
      (fun files ->
        let prog =
          List.concat_map
            (fun f ->
              Javaparser.Jparser.parse_program_file
                (Fixtures.examples ^ "/" ^ f))
            files
        in
        let r = Jahob_core.Jahob.verify_program ~opts prog in
        let verdicts =
          List.concat_map
            (fun (m : Jahob_core.Jahob.method_report) ->
              List.map
                (fun (rep : Dispatch.report) ->
                  ( m.Jahob_core.Jahob.method_name,
                    Sequent.verdict_to_string rep.Dispatch.verdict ))
                m.Jahob_core.Jahob.obligations.Dispatch.reports)
            r.Jahob_core.Jahob.methods
        in
        let k =
          match Dispatch.cache r.Jahob_core.Jahob.dispatcher with
          | Some c -> Dispatch.Cache.counters c
          | None -> Alcotest.fail "verification ran without a verdict cache"
        in
        ( (r.Jahob_core.Jahob.ok, verdicts),
          ( k.Dispatch.Cache.hit_count,
            k.Dispatch.Cache.hit_count + k.Dispatch.Cache.miss_count ) ))
      Test_daemon.small_groups
  in
  let r1 = run 1 and r4 = run 4 in
  List.iter2
    (fun ((ok1, v1), c1) ((ok4, v4), c4) ->
      Alcotest.(check bool) "same overall outcome" ok1 ok4;
      Alcotest.(check (list (pair string string))) "same verdicts" v1 v4;
      Alcotest.(check (pair int int)) "same cache hits/lookups" c1 c4)
    r1 r4;
  Alcotest.(check bool) "some obligations hit the cache" true
    (List.exists (fun (_, (hits, _)) -> hits > 0) r1)

let suite =
  [ ( "dispatch-engine",
      [ Alcotest.test_case "pool map preserves order" `Quick test_pool_map_order;
        Alcotest.test_case "pool nested map" `Quick test_pool_nested;
        Alcotest.test_case "pool exception propagation" `Quick
          test_pool_exception;
        Alcotest.test_case "pool nested exception, then a fresh map" `Quick
          test_pool_nested_exception;
        Alcotest.test_case "pool stress: nested maps, exactly-once" `Quick
          test_pool_stress;
        Alcotest.test_case "fresh names distinct across domains" `Quick
          test_fresh_names_distinct;
        Alcotest.test_case "digest: hypothesis order" `Quick
          test_digest_hyp_order;
        Alcotest.test_case "digest: alpha-equivalence" `Quick test_digest_alpha;
        Alcotest.test_case "digest: discriminates goals" `Quick
          test_digest_discriminates;
        Alcotest.test_case "digest: name irrelevant" `Quick
          test_digest_name_irrelevant;
        Alcotest.test_case "canonicalize dedups hyps" `Quick
          test_canonicalize_dedups;
        Alcotest.test_case "digest: set vs int operators" `Quick
          test_digest_set_vs_int_ops;
        Alcotest.test_case "digest: binder sorts" `Quick
          test_digest_binder_sorts;
        Alcotest.test_case "cache hit settles once" `Quick test_cache_hit;
        Alcotest.test_case "deterministic unknown replayed" `Quick
          test_unknown_replayed;
        Alcotest.test_case "resource-limited unknown re-attempted" `Quick
          test_limited_unknown_retried;
        Alcotest.test_case "unknown counters same at -j 1 and -j 4" `Quick
          test_unknown_counters_jobs;
        Alcotest.test_case "no cache re-proves" `Quick test_cache_bypass;
        Alcotest.test_case "claim table: racing domains" `Quick
          test_cache_claim_race;
        Alcotest.test_case "claim table: abandon wakes waiter" `Quick
          test_cache_claim_abandon;
        Alcotest.test_case "claim table dedups in dispatcher" `Quick
          test_claim_dedups_in_dispatcher;
        Alcotest.test_case "parallel matches sequential" `Quick
          test_parallel_matches_sequential;
        Alcotest.test_case "budget exceeded" `Quick test_budget_exceeded;
        Alcotest.test_case "budget sufficient" `Quick test_budget_sufficient;
        Alcotest.test_case "budget inside portfolio" `Quick
          test_budget_in_dispatcher;
        Alcotest.test_case "deadline tokens nest" `Quick test_deadline_nesting;
        Alcotest.test_case "budget cancels cooperatively" `Quick
          test_budget_cancels_cooperatively;
        Alcotest.test_case "budget stops fol at its checkpoints" `Quick
          test_budget_stops_fol;
        Alcotest.test_case "budget reaches shape inference" `Quick
          test_budget_reaches_shape;
        Alcotest.test_case "dispatch surfaces prover crashes" `Quick
          test_raised_surfaced;
        Alcotest.test_case "verify_program parallel" `Quick
          test_verify_program_parallel;
      ] );
  ]
