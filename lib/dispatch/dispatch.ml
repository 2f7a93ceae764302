(** The prover dispatcher: goal decomposition and routing.

    This is the architecture claim of the paper — "a verification
    condition generator that can invoke any one of a number of decision
    procedures", with "a simple goal decomposition technique to prove
    different conjuncts in the goal using different decision procedures".

    Each obligation is simplified, then offered to the portfolio in a
    configurable order.  A prover that answers [Unknown] passes the goal
    on; [Valid] and [Invalid] are final.  Assumption filtering keeps each
    query small: hypotheses sharing no symbols with the goal (direct or
    transitive) are dropped before a prover runs.

    Obligations are independent, so [prove_all] fans them out across the
    domains of an optional {!Pool.t}.  An optional verdict {!Cache.t}
    settles repeated obligations once, and [with_budget] bounds the
    wall-clock time of any single prover call.

    The cache also replays [Unknown] — but only an Unknown that no
    resource limit produced, and only to a dispatcher with the same
    portfolio.  Every attempt reports whether it was resource-limited:
    a budget exceeded or cancelled, a {!Deadline.Expired}, a prover
    that raised, or a prover's own {!Sequent.Resource_limited} (fol's
    wall-clock cut-off, cooper's stack overflow).  Fuel, clause caps,
    saturation and fragment rejections are deterministic: re-running the
    same portfolio on the same obligation gives the same Unknown, so
    replaying it is as trustworthy as a fresh attempt. *)

open Logic

(* re-export the sibling modules: [dispatch] is this library's main
   module, so [Pool], [Cache] and [Sched] are only reachable through it *)
module Pool = Pool
module Cache = Cache
module Sched = Sched

type prover_stats = {
  mutable attempts : int;
  mutable proved : int;
  mutable refuted : int;
  mutable raised : int; (* attempts that ended in an exception *)
  mutable skipped : int; (* attempts avoided by fragment pre-routing *)
}

type report = {
  sequent : Sequent.t;
  verdict : Sequent.verdict;
  prover : string option; (* which prover settled it *)
  cached : bool; (* true when the verdict came from the cache *)
  limited : bool; (* an Unknown that some attempt's resource limit produced *)
}

type t = {
  provers : Sequent.prover list;
  budget_s : float option; (* wall-clock budget per prover attempt *)
  portfolio : string; (* qualifies this dispatcher's cached Unknowns *)
  stats : (string, prover_stats) Hashtbl.t;
  stats_mutex : Mutex.t; (* guards [stats]: domains update it concurrently *)
  pool : Pool.t option; (* fan obligations out when present *)
  cache : Cache.t option; (* verdict memoization when present *)
  sched : Sched.t; (* routing/ordering policy for the cascade *)
  simplify_first : bool;
  filter_assumptions : bool;
  ground_saturate : bool;
}

(* ------------------------------------------------------------------ *)
(* Per-prover wall-clock budgets                                       *)
(* ------------------------------------------------------------------ *)

(* [p s] under a wall-clock budget, and whether the budget — or an
   enclosing cancellation reaching through it — cut the attempt short.
   The prover runs in a helper thread under a {!Deadline} token; on
   timeout the waiter {e cancels} the token and returns immediately, and
   the helper stops at its next checkpoint (every search loop in the
   portfolio polls one) instead of burning a core to completion.  The
   helper's token is parented to the calling thread's token, if any, so
   an enclosing race that cancels its losers reaches through the budget.
   Exceptions other than {!Deadline.Expired} are re-raised in the
   caller, where the dispatcher counts them. *)
let run_budgeted ~(budget_s : float) (p : Sequent.prover) (s : Sequent.t) :
    Sequent.verdict * bool =
  let caller = Deadline.current () in
  let token = Deadline.make ~deadline_in:budget_s ?parent:caller () in
  let result = Atomic.make None in
  let (_ : Thread.t) =
    Thread.create
      (fun () ->
        let r =
          try Ok (Deadline.with_token token (fun () -> p.Sequent.prove s))
          with e -> Error e
        in
        Atomic.set result (Some r))
      ()
  in
  (* whether the expiry was this budget's own deadline or an enclosing
     token (a race that already settled) reaching through; drives both
     the verdict message and the counters *)
  let cancelled () =
    Trace.incr "deadline.cancelled";
    (Sequent.Unknown "attempt cancelled", true)
  in
  let budget_exceeded () =
    Trace.incr "budget.exceeded";
    Trace.instant ~cat:"budget"
      ~args:(fun () ->
        [ ("prover", Trace.S p.Sequent.prover_name);
          ("budget_s", Trace.F budget_s) ])
      "exceeded";
    (Sequent.Unknown (Printf.sprintf "budget of %gs exceeded" budget_s), true)
  in
  let rec wait delay =
    match Atomic.get result with
    | Some (Ok v) -> (v, false)
    | Some (Error Deadline.Expired) ->
      (* the helper hit a checkpoint first; an explicit cancel request
         means a race settled elsewhere, otherwise the token timed out on
         its own — that is the budget *)
      if Deadline.cancel_requested token then cancelled ()
      else budget_exceeded ()
    | Some (Error e) -> raise e
    | None ->
      if Deadline.expired token then begin
        (* stop the helper at its next checkpoint and answer now *)
        let raced_away = Deadline.cancel_requested token in
        Deadline.cancel token;
        if raced_away then cancelled () else budget_exceeded ()
      end
      else begin
        Thread.delay delay;
        wait (Float.min (delay *. 2.) 0.01)
      end
  in
  wait 2e-4

(** [with_budget ~budget_s p] answers [Unknown] once [p] has run for
    [budget_s] seconds of wall-clock time, so one pathological query
    cannot stall the portfolio.  A dispatcher created with [~budget_s]
    applies the same budget itself, so that it can tell a budgeted
    Unknown from a deterministic one. *)
let with_budget ~(budget_s : float) (p : Sequent.prover) : Sequent.prover =
  { Sequent.prover_name = p.Sequent.prover_name;
    prove = (fun s -> fst (run_budgeted ~budget_s p s)) }

(* What decides a deterministic Unknown: the provers tried and the
   preprocessing before them.  Order, admission and racing do not —
   admission skips only provers that would answer Unknown, and an
   Unknown means every admitted prover was tried. *)
let portfolio_of ~simplify_first ~filter_assumptions ~ground_saturate
    (provers : Sequent.prover list) : string =
  let flag b c = if b then c else "-" in
  String.concat ","
    (List.sort_uniq String.compare
       (List.map (fun p -> p.Sequent.prover_name) provers))
  ^ ";" ^ flag simplify_first "s" ^ flag filter_assumptions "f"
  ^ flag ground_saturate "g"

let create ?(simplify_first = true) ?(filter_assumptions = true)
    ?(ground_saturate = true) ?pool ?cache ?budget_s ?sched
    (provers : Sequent.prover list) : t =
  let sched = match sched with Some s -> s | None -> Sched.create () in
  { provers; budget_s;
    portfolio =
      portfolio_of ~simplify_first ~filter_assumptions ~ground_saturate
        provers;
    stats = Hashtbl.create 8; stats_mutex = Mutex.create ();
    pool; cache; sched; simplify_first; filter_assumptions; ground_saturate }

let sched (d : t) : Sched.t = d.sched

let stats_for (d : t) (name : string) : prover_stats =
  match Hashtbl.find_opt d.stats name with
  | Some s -> s
  | None ->
    let s = { attempts = 0; proved = 0; refuted = 0; raised = 0; skipped = 0 } in
    Hashtbl.add d.stats name s;
    s

(* all stats mutation goes through here; [upd] must not block *)
let bump_stats (d : t) (name : string) (upd : prover_stats -> unit) : unit =
  Mutex.lock d.stats_mutex;
  upd (stats_for d name);
  Mutex.unlock d.stats_mutex

(* ------------------------------------------------------------------ *)
(* Assumption filtering                                                *)
(* ------------------------------------------------------------------ *)

(* Keep hypotheses connected to the goal through shared free variables.
   Each hypothesis's free-variable set is computed once up front and the
   fixpoint then only manipulates the precomputed sets. *)
let relevant_hyps (hyps : Form.t list) (goal : Form.t) : Form.t list =
  let hyp_fvs = List.map (fun h -> (h, Form.fv h)) hyps in
  let rec grow (relevant : Form.Sset.t) =
    let next =
      List.fold_left
        (fun acc (_, hv) ->
          if Form.Sset.is_empty (Form.Sset.inter hv relevant) then acc
          else Form.Sset.union acc hv)
        relevant hyp_fvs
    in
    if Form.Sset.equal next relevant then relevant else grow next
  in
  let reachable = grow (Form.fv goal) in
  List.filter_map
    (fun (h, hv) ->
      if
        Form.Sset.is_empty hv
        || not (Form.Sset.is_empty (Form.Sset.inter hv reachable))
      then Some h
      else None)
    hyp_fvs

(* ------------------------------------------------------------------ *)
(* Proving                                                             *)
(* ------------------------------------------------------------------ *)

(* cheap syntactic discharge: goal among hypotheses, or trivially true *)
let syntactic (s : Sequent.t) : Sequent.verdict option =
  let goal = Simplify.simplify s.Sequent.goal in
  if Form.is_true goal then Some Sequent.Valid
  else if
    List.exists
      (fun h -> Form.equal (Simplify.simplify h) goal)
      s.Sequent.hyps
  then Some Sequent.Valid
  else if List.exists (fun h -> Form.is_false (Simplify.simplify h)) s.Sequent.hyps
  then Some Sequent.Valid
  else None

(* ------------------------------------------------------------------ *)
(* The cascade engine                                                  *)
(* ------------------------------------------------------------------ *)

(* a prover crash is a portfolio event, not a verdict: count it, leave an
   instant in the trace, and move on as if the prover said Unknown *)
let note_raised (d : t) (name : string) (e : exn) : Sequent.verdict =
  Trace.incr "prover.raised";
  Trace.instant ~cat:"dispatch"
    ~args:(fun () ->
      [ ("prover", Trace.S name); ("exn", Trace.S (Printexc.to_string e)) ])
    "prover.raised";
  bump_stats d name (fun st -> st.raised <- st.raised + 1);
  Sequent.Unknown ("prover raised " ^ Printexc.to_string e)

let settled = function
  | Sequent.Valid | Sequent.Invalid _ -> true
  | Sequent.Unknown _ -> false

(* one timed prover attempt: stats, crash accounting, EMA feedback.
   The flag says whether a resource limit produced the verdict: the
   budget, a cancellation, a crash or the prover's own
   [Resource_limited] *)
let attempt (d : t) ~(signature : string) (s : Sequent.t)
    (p : Sequent.prover) : Sequent.verdict * bool =
  let name = p.Sequent.prover_name in
  bump_stats d name (fun st -> st.attempts <- st.attempts + 1);
  let t0 = Clock.now () in
  let v, limited =
    match
      match d.budget_s with
      | None -> (p.Sequent.prove s, false)
      | Some budget_s -> run_budgeted ~budget_s p s
    with
    | r -> r
    | exception Deadline.Expired ->
      (* a racing sibling settled first; not a crash *)
      Trace.incr "sched.race_cancelled";
      (Sequent.Unknown "attempt cancelled", true)
    | exception Sequent.Resource_limited why ->
      Trace.incr "prover.resource_limited";
      (Sequent.Unknown why, true)
    | exception e -> (note_raised d name e, true)
  in
  (match d.sched.Sched.policy with
  | Sched.Fixed -> ()
  | Sched.Adaptive ->
    Sched.record d.sched ~signature ~prover:name
      ~latency_s:(Clock.now () -. t0) ~settled:(settled v));
  (match v with
  | Sequent.Valid -> bump_stats d name (fun st -> st.proved <- st.proved + 1)
  | Sequent.Invalid _ ->
    bump_stats d name (fun st -> st.refuted <- st.refuted + 1)
  | Sequent.Unknown _ -> ());
  (v, limited)

let report_of (s : Sequent.t) (p : Sequent.prover) (v : Sequent.verdict) :
    report =
  { sequent = s; verdict = v; prover = Some p.Sequent.prover_name;
    cached = false; limited = false }

(* race [ps] on the pool: every racer runs under its own cancel token,
   the first settled verdict wins and cancels the others, which unwind at
   their next Deadline checkpoint.  Pool.map is nest-safe (the calling
   worker helps run its own race), so with a busy pool this degrades to
   the sequential cascade: later racers find the winner already posted
   and return without running, or get cancelled at their first poll.
   Without a winner, the flag says whether any racer was
   resource-limited. *)
let race_attempts (d : t) ~(signature : string) (pool : Pool.t)
    (s : Sequent.t) (ps : Sequent.prover list) : report option * bool =
  Trace.incr "sched.race";
  let winner = Atomic.make None in
  let limited = Atomic.make false in
  let entries =
    List.map (fun p -> (p, Deadline.make ?parent:(Deadline.current ()) ())) ps
  in
  let run (p, token) =
    if Atomic.get winner <> None then ()
    else
      let v, l =
        match Deadline.with_token token (fun () -> attempt d ~signature s p)
        with
        | r -> r
        | exception Deadline.Expired ->
          Trace.incr "sched.race_cancelled";
          (Sequent.Unknown "attempt cancelled", true)
      in
      if l then Atomic.set limited true;
      if settled v then
        if Atomic.compare_and_set winner None (Some (v, p)) then
          List.iter
            (fun (q, t) -> if not (q == p) then Deadline.cancel t)
            entries
  in
  let (_ : unit list) = Pool.map pool run entries in
  (Option.map (fun (v, p) -> report_of s p v) (Atomic.get winner),
   Atomic.get limited)

(* the scheduler-driven cascade: order the portfolio (learned EMAs under
   Adaptive, as declared under Fixed), skip provers whose admission
   predicate rejects the sequent, and either try the survivors in order
   or race them [race] at a time *)
let run_cascade (d : t) (s : Sequent.t) : report =
  let signature = Sched.signature s in
  let give_up limited =
    { sequent = s;
      verdict = Sequent.Unknown "no prover settled the goal";
      prover = None;
      cached = false;
      limited }
  in
  (* admission is evaluated lazily, in attempt order: once a prover
     settles the goal, the predicates of everyone behind it never run *)
  let admit (p : Sequent.prover) : bool =
    let name = p.Sequent.prover_name in
    if Sched.admitted d.sched s name then true
    else begin
      Trace.incr "sched.skipped";
      Trace.incr ("sched.skipped." ^ name);
      bump_stats d name (fun st -> st.skipped <- st.skipped + 1);
      false
    end
  in
  let race_width =
    match d.pool with None -> 1 | Some _ -> Sched.race d.sched
  in
  let rec go limited = function
    | [] -> give_up limited
    | p :: rest when not (admit p) -> go limited rest
    | p :: rest when race_width > 1 -> (
      (* collect up to race_width admitted provers, racing them as a
         group; admission of provers beyond the group stays lazy *)
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | q :: rest when not (admit q) -> take k acc rest
        | q :: rest -> take (k - 1) (q :: acc) rest
      in
      let group, rest = take (race_width - 1) [ p ] rest in
      match group with
      | [ lone ] -> (
        match attempt d ~signature s lone with
        | v, _ when settled v -> report_of s lone v
        | _, l -> go (limited || l) rest)
      | group -> (
        let pool = Option.get d.pool in
        match race_attempts d ~signature pool s group with
        | Some r, _ -> r
        | None, l -> go (limited || l) rest))
    | p :: rest -> (
      match attempt d ~signature s p with
      | v, _ when settled v -> report_of s p v
      | _, l -> go (limited || l) rest)
  in
  go false (Sched.order d.sched ~signature d.provers)

(* the portfolio run proper, after the cache has been consulted *)
let prove_uncached (d : t) (s : Sequent.t) : report =
  let s =
    if d.simplify_first then
      Trace.with_span ~cat:"dispatch" "simplify" (fun () ->
          (* joint type inference resolves <=, < and - between sets *)
          let s =
            match Typecheck.check_formula (Sequent.to_form s) with
            | f -> Sequent.of_form ~name:s.Sequent.name f
            | exception Typecheck.Type_error _ -> s
          in
          { s with
            Sequent.hyps = List.map Simplify.simplify s.Sequent.hyps;
            goal = Simplify.simplify s.Sequent.goal })
    else s
  in
  let s =
    if d.filter_assumptions then
      { s with Sequent.hyps = relevant_hyps s.Sequent.hyps s.Sequent.goal }
    else s
  in
  match syntactic s with
  | Some v ->
    { sequent = s; verdict = v; prover = Some "syntactic"; cached = false;
      limited = false }
  | None ->
    let s =
      if d.ground_saturate then
        Trace.with_span ~cat:"dispatch" "saturate" (fun () ->
            try
              let s' = Instantiate.saturate s in
              (* keep the saturated sequent connected to the goal *)
              if d.filter_assumptions then
                { s' with
                  Sequent.hyps = relevant_hyps s'.Sequent.hyps s'.Sequent.goal }
              else s'
            with _ -> s)
      else s
    in
    run_cascade d s

(* the cache-consulting path, without the obligation span *)
let prove_sequent_inner (d : t) (s : Sequent.t) : report =
  match d.cache with
  | None -> prove_uncached d s
  | Some cache -> (
    let k = Cache.key s in
    let portfolio = d.portfolio in
    match Cache.acquire ~portfolio cache k with
    | Cache.Hit e ->
      { sequent = s;
        verdict = e.Cache.verdict;
        prover = e.Cache.prover;
        cached = true;
        limited = false }
    | Cache.Claimed -> (
      (* we hold the in-flight claim for [k]: identical obligations on
         other domains are blocked in [acquire] until we settle it, so
         the claim must be released on every exit path *)
      match prove_uncached d s with
      | r ->
        (* a resource-limited Unknown is not what a fresh attempt would
           return — a later, better-resourced one may succeed — so it is
           not cached; any other Unknown is stored for this portfolio *)
        if r.limited then begin
          Cache.abandon cache k;
          Trace.incr "cache.unknown_not_cached"
        end
        else
          Cache.publish ~portfolio cache k
            { Cache.verdict = r.verdict; prover = r.prover };
        r
      | exception e ->
        Cache.abandon cache k;
        raise e))

(** Prove one sequent with the portfolio, consulting the verdict cache
    first.  The cache key is computed on the incoming sequent, before any
    simplification, so a repeated obligation costs one canonicalization
    and nothing else.  [Valid]/[Invalid] verdicts are cached for every
    dispatcher; an [Unknown] only when no attempt on it was
    resource-limited, and then only for dispatchers with this one's
    portfolio — a resource-limited Unknown is re-attempted on every
    call. *)
let prove_sequent (d : t) (s : Sequent.t) : report =
  if not (Trace.enabled ()) then prove_sequent_inner d s
  else begin
    let sp =
      Trace.start_span ~cat:"obligation"
        ~args:(fun () -> [ ("name", Trace.S s.Sequent.name) ])
        "prove"
    in
    match prove_sequent_inner d s with
    | r ->
      Trace.finish_span
        ~args:(fun () ->
          [ ("verdict", Trace.S (Sequent.verdict_kind r.verdict));
            ("prover", Trace.S (Option.value r.prover ~default:"-"));
            ("cache", Trace.S (if r.cached then "hit" else "miss")) ])
        sp;
      r
    | exception e ->
      Trace.finish_span
        ~args:(fun () -> [ ("raised", Trace.S (Printexc.to_string e)) ])
        sp;
      raise e
  end

(** Prove a list of obligations; returns individual reports in input
    order.  When the dispatcher holds a pool, obligations are claimed by
    its domains from a shared queue. *)
let prove_all (d : t) (sequents : Sequent.t list) : report list =
  Pool.map_opt d.pool (prove_sequent d) sequents

type summary = {
  total : int;
  valid : int;
  invalid : int;
  unknown : int;
  reports : report list;
}

let summarize (reports : report list) : summary =
  let valid =
    List.length
      (List.filter (fun r -> r.verdict = Sequent.Valid) reports)
  in
  let invalid =
    List.length
      (List.filter
         (fun r -> match r.verdict with Sequent.Invalid _ -> true | _ -> false)
         reports)
  in
  let total = List.length reports in
  { total; valid; invalid; unknown = total - valid - invalid; reports }

(** Per-prover counters accumulated by this dispatcher, copied field by
    field under [stats_mutex] while pool domains may still be flushing
    updates.  The returned records are detached snapshots: safe to read,
    print or serialize while other domains keep proving.  Every consumer
    that formats stats (including [jahob verify --stats]) must go through
    here rather than touching the live table. *)
let stats_snapshot (d : t) : (string * prover_stats) list =
  Mutex.lock d.stats_mutex;
  let r =
    Hashtbl.fold
      (fun name s acc ->
        ( name,
          { attempts = s.attempts; proved = s.proved; refuted = s.refuted;
            raised = s.raised; skipped = s.skipped } )
        :: acc)
      d.stats []
    |> List.sort compare
  in
  Mutex.unlock d.stats_mutex;
  r

let stats = stats_snapshot

(** The dispatcher's verdict cache, if caching is enabled. *)
let cache (d : t) : Cache.t option = d.cache

let pp_stats ppf (d : t) =
  List.iter
    (fun (name, (s : prover_stats)) ->
      Format.fprintf ppf
        "@,  %-12s attempts %4d   proved %4d   refuted %4d   raised %3d   skipped %4d"
        name s.attempts s.proved s.refuted s.raised s.skipped)
    (stats_snapshot d);
  match d.cache with
  | None -> ()
  | Some c ->
    let k = Cache.counters c in
    Format.fprintf ppf
      "@,  %-12s hits %7d   misses %5d   entries %4d   hit rate %.1f%%   \
       unknown entries %d   replayed %d"
      "cache" k.Cache.hit_count k.Cache.miss_count k.Cache.entries
      (100. *. Cache.hit_rate c) k.Cache.unknown_entries
      k.Cache.unknown_replayed

let pp_summary ppf (s : summary) =
  Format.fprintf ppf "%d obligations: %d valid, %d invalid, %d unknown"
    s.total s.valid s.invalid s.unknown;
  List.iter
    (fun r ->
      match r.verdict with
      | Sequent.Valid -> ()
      | v ->
        Format.fprintf ppf "@,  [%s] %s"
          (Sequent.verdict_to_string v)
          r.sequent.Sequent.name)
    s.reports
