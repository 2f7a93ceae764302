(** Dispatcher engine tests: the domain pool, the verdict cache and its
    canonicalized keys, per-prover budgets, and the guarantee that
    parallel dispatch reports exactly what sequential dispatch reports. *)

open Logic

let parse = Parser.parse

let seq ?name hyps goal =
  Sequent.make ?name (List.map parse hyps) (parse goal)

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

(* ------------------------------------------------------------------ *)
(* The work-stealing deque                                             *)
(* ------------------------------------------------------------------ *)

let test_deque_ops () =
  let open Dispatch.Pool.Deque in
  let d = create ~capacity:2 () in
  (* push across several buffer doublings *)
  for i = 1 to 100 do
    push d i
  done;
  Alcotest.(check int) "size" 100 (size d);
  Alcotest.(check (option int)) "owner pops newest" (Some 100) (pop d);
  Alcotest.(check (option int)) "thief steals oldest" (Some 1) (steal d);
  Alcotest.(check (option int)) "steal advances" (Some 2) (steal d);
  Alcotest.(check (option int)) "pop unaffected" (Some 99) (pop d);
  let rec drain n = match pop d with Some _ -> drain (n + 1) | None -> n in
  Alcotest.(check int) "remaining elements" 96 (drain 0);
  Alcotest.(check (option int)) "empty pop" None (pop d);
  Alcotest.(check (option int)) "empty steal" None (steal d)

let test_deque_concurrent_steal () =
  (* one owner pushing and popping, two thieves stealing: every element
     is claimed exactly once — none lost, none duplicated *)
  let open Dispatch.Pool.Deque in
  let n = 20_000 in
  let d = create () in
  let claimed = Array.init n (fun _ -> Atomic.make 0) in
  let stop = Atomic.make false in
  let thief () =
    let rec go () =
      match steal d with
      | Some i ->
        Atomic.incr claimed.(i);
        go ()
      | None -> if not (Atomic.get stop) then (Domain.cpu_relax (); go ())
    in
    go ()
  in
  let t1 = Domain.spawn thief and t2 = Domain.spawn thief in
  for i = 0 to n - 1 do
    push d i;
    if i mod 3 = 0 then
      match pop d with Some j -> Atomic.incr claimed.(j) | None -> ()
  done;
  let rec drain () =
    match pop d with
    | Some j ->
      Atomic.incr claimed.(j);
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set stop true;
  Domain.join t1;
  Domain.join t2;
  let bad = ref 0 in
  Array.iter (fun a -> if Atomic.get a <> 1 then incr bad) claimed;
  Alcotest.(check int) "every element claimed exactly once" 0 !bad

let test_pool_stress () =
  (* N domains x M tasks with nested submission: every task runs exactly
     once and nothing deadlocks *)
  let pool = Dispatch.Pool.create ~jobs:4 in
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
  Alcotest.(check (list int)) "every inner batch completed"
    (List.init outer (fun _ -> inner))
    totals;
  let bad = ref 0 in
  Array.iter (fun a -> if Atomic.get a <> 1 then incr bad) runs;
  Alcotest.(check int) "each task ran exactly once" 0 !bad

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
  let check_retried what ?budget_s ?(around = fun f -> f ()) ?(runs = true)
      prove =
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
    if runs then
      Alcotest.(check int) (what ^ ": prover ran again") 2 (Atomic.get count);
    Alcotest.(check int) (what ^ ": nothing stored") 0
      (Dispatch.Cache.counters cache).Dispatch.Cache.entries
  in
  check_retried "budget exceeded" ~budget_s:0.02 (fun _ ->
      Thread.delay 0.3;
      Sequent.Valid);
  (* an enclosing token already cancelled: the budget's waiter answers
     "cancelled" (possibly before its helper thread even starts the
     prover), and without a budget the prover's own checkpoint raises
     Deadline.Expired *)
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
    ~runs:false spin;
  check_retried "deadline expired" ~around:cancelled spin;
  check_retried "prover raised" (fun _ -> failwith "boom");
  check_retried "wall-clock cut-off" (fun _ ->
      raise (Sequent.Resource_limited Fol.timed_out_reason))

let test_unknown_keyed_by_portfolio () =
  let count = Atomic.make 0 in
  let cache = Dispatch.Cache.create () in
  let s = seq [ "x < y" ] "p..g = q" in
  let small = Dispatch.create ~cache [ giving_up count ] in
  let full =
    Dispatch.create ~cache
      [ giving_up count; giving_up ~name:"other" (Atomic.make 0) ]
  in
  let unsimplified =
    Dispatch.create ~cache ~simplify_first:false [ giving_up count ]
  in
  ignore (Dispatch.prove_sequent small s);
  let r = Dispatch.prove_sequent full s in
  Alcotest.(check bool) "a larger portfolio re-proves" false r.Dispatch.cached;
  let r = Dispatch.prove_sequent unsimplified s in
  Alcotest.(check bool) "other preprocessing re-proves" false r.Dispatch.cached;
  Alcotest.(check int) "three attempts" 3 (Atomic.get count);
  (* each portfolio now replays its own entry *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "same portfolio replays" true
        (Dispatch.prove_sequent d s).Dispatch.cached)
    [ small; full; unsimplified ];
  Alcotest.(check int) "no further attempts" 3 (Atomic.get count);
  (* a settled verdict answers every portfolio *)
  let valid = Dispatch.create ~cache [ counting_prover (ref 0) ] in
  let t = seq [ "y < z" ] "p..g = q" in
  ignore (Dispatch.prove_sequent valid t);
  Alcotest.(check bool) "valid shared across portfolios" true
    (Dispatch.prove_sequent full t).Dispatch.cached

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

let totals (d : Dispatch.t) =
  List.map
    (fun (name, (s : Dispatch.prover_stats)) ->
      (name, s.Dispatch.attempts, s.Dispatch.proved, s.Dispatch.refuted))
    (Dispatch.stats d)

let test_parallel_matches_sequential () =
  let sequents = mixed_sequents () in
  let provers () = Jahob_core.Jahob.default_provers () in
  let d_seq = Dispatch.create (provers ()) in
  let r_seq = Dispatch.summarize (Dispatch.prove_all d_seq sequents) in
  let pool = Dispatch.Pool.create ~jobs:4 in
  let d_par = Dispatch.create ~pool (provers ()) in
  let r_par = Dispatch.summarize (Dispatch.prove_all d_par sequents) in
  Dispatch.Pool.shutdown pool;
  Alcotest.(check (list (pair string (pair int int))))
    "summary counts agree"
    [ ("totals", (r_seq.Dispatch.total, r_seq.Dispatch.valid));
      ("rest", (r_seq.Dispatch.invalid, r_seq.Dispatch.unknown)) ]
    [ ("totals", (r_par.Dispatch.total, r_par.Dispatch.valid));
      ("rest", (r_par.Dispatch.invalid, r_par.Dispatch.unknown)) ];
  Alcotest.(check (list (pair string (pair int (pair int int)))))
    "per-prover stats agree"
    (List.map (fun (n, a, p, r) -> (n, (a, (p, r)))) (totals d_seq))
    (List.map (fun (n, a, p, r) -> (n, (a, (p, r)))) (totals d_par));
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
    prove = (fun _ -> Thread.delay delay; Sequent.Valid) }

let test_budget_exceeded () =
  let p = Dispatch.with_budget ~budget_s:0.02 (slow_prover ~delay:0.4) in
  match p.Sequent.prove (seq [] "x = x") with
  | Sequent.Unknown m ->
    Alcotest.(check bool) "reason mentions the budget" true
      (String.length m >= 6 && String.sub m 0 6 = "budget")
  | v ->
    Alcotest.failf "expected unknown, got %s" (Sequent.verdict_to_string v)

let test_budget_sufficient () =
  let p = Dispatch.with_budget ~budget_s:5.0 (slow_prover ~delay:0.01) in
  match p.Sequent.prove (seq [] "x = x") with
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
    (Deadline.expired child);
  Deadline.cancel parent;
  Alcotest.(check bool) "parent cancel reaches child" true
    (Deadline.expired child);
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
  (* the satellite guarantee: after a budget expiry the helper thread
     stops at its next checkpoint instead of burning a core *)
  let polls = Atomic.make 0 in
  let p =
    Dispatch.with_budget ~budget_s:0.05 (checkpointing_prover polls)
  in
  (match p.Sequent.prove (seq [ "x < y" ] "p..g = q") with
  | Sequent.Unknown m ->
    Alcotest.(check bool) "reason mentions the budget" true
      (String.length m >= 6 && String.sub m 0 6 = "budget")
  | v ->
    Alcotest.failf "expected unknown, got %s" (Sequent.verdict_to_string v));
  (* grace period for the helper to observe the cancellation, then the
     poll counter must be frozen *)
  Thread.delay 0.05;
  let frozen = Atomic.get polls in
  Alcotest.(check bool) "prover did checkpoint while running" true (frozen > 0);
  Thread.delay 0.15;
  Alcotest.(check int) "no checkpoints after cancellation" frozen
    (Atomic.get polls)

(* ------------------------------------------------------------------ *)
(* Racing                                                              *)
(* ------------------------------------------------------------------ *)

let test_race_settles_and_cancels_loser () =
  let polls = Atomic.make 0 in
  let fast =
    { Sequent.prover_name = "fastvalid";
      prove = (fun _ -> Thread.delay 0.03; Sequent.Valid) }
  in
  let pool = Dispatch.Pool.create ~jobs:2 in
  let d =
    Dispatch.create ~pool
      ~sched:(Dispatch.Sched.create ~race:2 ())
      [ checkpointing_prover polls; fast ]
  in
  let r = Dispatch.prove_sequent d (seq [ "x < y" ] "p..g = q") in
  Alcotest.(check string) "first settled verdict wins" "valid"
    (Sequent.verdict_kind r.Dispatch.verdict);
  Alcotest.(check (option string)) "settled by the fast racer"
    (Some "fastvalid") r.Dispatch.prover;
  (* the spinning loser was cancelled at a checkpoint, not abandoned *)
  Thread.delay 0.05;
  let frozen = Atomic.get polls in
  Alcotest.(check bool) "loser ran concurrently" true (frozen > 0);
  Thread.delay 0.15;
  Alcotest.(check int) "loser stopped after losing" frozen (Atomic.get polls);
  Dispatch.Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Scheduler: admission, ordering, verdict parity                      *)
(* ------------------------------------------------------------------ *)

let test_sched_skips_inadmissible () =
  let count = ref 0 in
  let never =
    { (counting_prover count) with Sequent.prover_name = "never" }
  in
  let d =
    Dispatch.create
      ~sched:
        (Dispatch.Sched.create ~policy:Dispatch.Sched.Adaptive
           ~admits:[ ("never", fun _ -> false) ]
           ())
      [ never; Smt.prover ]
  in
  let r = Dispatch.prove_sequent d (seq [ "x > 0"; "x < 2" ] "x = 1") in
  Alcotest.(check (option string)) "smt settles" (Some "smt")
    r.Dispatch.prover;
  Alcotest.(check int) "skipped prover never ran" 0 !count;
  let st = List.assoc "never" (Dispatch.stats_snapshot d) in
  Alcotest.(check int) "skip recorded in stats" 1 st.Dispatch.skipped;
  Alcotest.(check int) "no attempt recorded" 0 st.Dispatch.attempts

let test_sched_raised_surfaced () =
  (* a crashing prover is counted, not silently swallowed *)
  let crasher =
    { Sequent.prover_name = "crasher";
      prove = (fun _ -> failwith "boom") }
  in
  let d = Dispatch.create [ crasher; Smt.prover ] in
  let r = Dispatch.prove_sequent d (seq [ "x > 0"; "x < 2" ] "x = 1") in
  Alcotest.(check string) "portfolio still settles" "valid"
    (Sequent.verdict_kind r.Dispatch.verdict);
  let st = List.assoc "crasher" (Dispatch.stats_snapshot d) in
  Alcotest.(check int) "crash counted" 1 st.Dispatch.raised;
  Alcotest.(check int) "attempt counted" 1 st.Dispatch.attempts

let test_sched_cold_order_is_fixed_order () =
  let sched = Dispatch.Sched.create ~policy:Dispatch.Sched.Adaptive () in
  let mk n = { Sequent.prover_name = n; prove = (fun _ -> Sequent.Valid) } in
  let ps = [ mk "a"; mk "b"; mk "c" ] in
  let names l = List.map (fun p -> p.Sequent.prover_name) l in
  Alcotest.(check (list string)) "cold ordering = declared ordering"
    [ "a"; "b"; "c" ]
    (names (Dispatch.Sched.order sched ~signature:"prop" ps));
  (* teach it that c is fast and reliable while a fails slowly *)
  for _ = 1 to 10 do
    Dispatch.Sched.record sched ~signature:"prop" ~prover:"c"
      ~latency_s:0.001 ~settled:true;
    Dispatch.Sched.record sched ~signature:"prop" ~prover:"a"
      ~latency_s:0.2 ~settled:false
  done;
  let o1 = names (Dispatch.Sched.order sched ~signature:"prop" ps) in
  let o2 = names (Dispatch.Sched.order sched ~signature:"prop" ps) in
  Alcotest.(check (list string)) "ordering deterministic" o1 o2;
  Alcotest.(check (list string)) "learned ordering promotes the winner"
    [ "c"; "b"; "a" ] o1;
  (* signatures are independent: another signature is still cold *)
  Alcotest.(check (list string)) "other signature unaffected"
    [ "a"; "b"; "c" ]
    (names (Dispatch.Sched.order sched ~signature:"qa" ps))

let test_sched_adaptive_verdict_parity () =
  (* reordering and skipping must never change what the portfolio
     concludes: run the same suite through the fixed cascade and through
     a learning adaptive dispatcher, several rounds so reordering
     actually kicks in, and compare verdicts obligation by obligation *)
  let reach = "rtrancl_pt (% u v. u..next = v)" in
  let sequents =
    mixed_sequents ()
    (* shape goals: smt answers unknown (opaque reachability atom) and
       the out-of-fragment provers behind it must be *skipped*, not
       attempted *)
    @ [ seq [ "x..next = y" ] (reach ^ " x y");
        seq [] (reach ^ " x x") ]
  in
  let admits = Jahob_core.Jahob.default_admissions () in
  let provers () = Jahob_core.Jahob.default_provers () in
  let d_fixed =
    Dispatch.create
      ~sched:(Dispatch.Sched.create ~policy:Dispatch.Sched.Fixed ~admits ())
      (provers ())
  in
  let fixed_kinds =
    List.map
      (fun (r : Dispatch.report) -> Sequent.verdict_kind r.Dispatch.verdict)
      (Dispatch.prove_all d_fixed sequents)
  in
  let d_adaptive =
    Dispatch.create
      ~sched:
        (Dispatch.Sched.create ~policy:Dispatch.Sched.Adaptive ~admits ())
      (provers ())
  in
  for round = 1 to 3 do
    let kinds =
      List.map
        (fun (r : Dispatch.report) -> Sequent.verdict_kind r.Dispatch.verdict)
        (Dispatch.prove_all d_adaptive sequents)
    in
    Alcotest.(check (list string))
      (Printf.sprintf "round %d verdicts match the fixed cascade" round)
      fixed_kinds kinds
  done;
  (* pre-routing did skip something, i.e. the adaptive path was actually
     exercised *)
  let skipped =
    List.fold_left
      (fun acc (_, (s : Dispatch.prover_stats)) -> acc + s.Dispatch.skipped)
      0
      (Dispatch.stats_snapshot d_adaptive)
  in
  Alcotest.(check bool) "fragment pre-routing skipped some attempts" true
    (skipped > 0)

(* ------------------------------------------------------------------ *)
(* End-to-end: parallel program verification                           *)
(* ------------------------------------------------------------------ *)

let examples_dir =
  let candidates = [ "../examples"; "../../examples"; "examples" ] in
  match
    List.find_opt (fun d -> Sys.file_exists (d ^ "/global/Buffer.java")) candidates
  with
  | Some d -> d
  | None -> "../examples"

let test_verify_program_parallel () =
  let prog =
    Javaparser.Jparser.parse_program_file (examples_dir ^ "/global/Buffer.java")
  in
  let run jobs =
    let opts = { (Jahob_core.Jahob.default_options ()) with jobs } in
    let r = Jahob_core.Jahob.verify_program ~opts prog in
    ( r.Jahob_core.Jahob.ok,
      List.map
        (fun (m : Jahob_core.Jahob.method_report) ->
          ( m.Jahob_core.Jahob.method_name,
            m.Jahob_core.Jahob.obligations.Dispatch.valid,
            m.Jahob_core.Jahob.obligations.Dispatch.total ))
        r.Jahob_core.Jahob.methods )
  in
  let ok1, m1 = run 1 in
  let ok3, m3 = run 3 in
  Alcotest.(check bool) "same overall outcome" ok1 ok3;
  Alcotest.(check (list (pair string (pair int int))))
    "same per-method counts"
    (List.map (fun (n, v, t) -> (n, (v, t))) m1)
    (List.map (fun (n, v, t) -> (n, (v, t))) m3)

let suite =
  [ ( "dispatch-engine",
      [ Alcotest.test_case "pool map preserves order" `Quick test_pool_map_order;
        Alcotest.test_case "pool nested map" `Quick test_pool_nested;
        Alcotest.test_case "pool exception propagation" `Quick
          test_pool_exception;
        Alcotest.test_case "deque push/pop/steal" `Quick test_deque_ops;
        Alcotest.test_case "deque concurrent steal exactly-once" `Quick
          test_deque_concurrent_steal;
        Alcotest.test_case "pool stress: nested maps, exactly-once" `Quick
          test_pool_stress;
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
        Alcotest.test_case "unknown keyed by portfolio" `Quick
          test_unknown_keyed_by_portfolio;
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
        Alcotest.test_case "race settles and cancels loser" `Quick
          test_race_settles_and_cancels_loser;
        Alcotest.test_case "sched skips inadmissible provers" `Quick
          test_sched_skips_inadmissible;
        Alcotest.test_case "sched surfaces prover crashes" `Quick
          test_sched_raised_surfaced;
        Alcotest.test_case "sched ordering: cold, learned, deterministic"
          `Quick test_sched_cold_order_is_fixed_order;
        Alcotest.test_case "sched adaptive verdict parity" `Quick
          test_sched_adaptive_verdict_parity;
        Alcotest.test_case "verify_program parallel" `Quick
          test_verify_program_parallel;
      ] );
  ]
