(** The prover dispatcher: goal decomposition and routing.

    This is the architecture claim of the paper — "a verification
    condition generator that can invoke any one of a number of decision
    procedures", with "a simple goal decomposition technique to prove
    different conjuncts in the goal using different decision procedures".

    The dispatcher types and simplifies an obligation jointly and settles
    it syntactically when it can; then it offers that one sequent, every
    hypothesis kept, to the portfolio in declared order.  No prover sees
    a weakened obligation, so an [Invalid] is a countermodel of the
    obligation as stated.
    A prover that answers [Unknown] passes the goal on; [Valid] and
    [Invalid] are final.  The default portfolio is smt, bapa and fol
    ([Jahob.default_provers]).  Each prover's front end is its admission
    and prepares its own input: fol and bapa start with a one-pass
    syntactic scan ([Fol.admit], [Bapa.admit]); a prover outside its
    fragment gives up there, says why in its [Unknown] and counts the
    rejection in [prover.<name>.rejected].  smt, and fol once admitted,
    add ground instances ({!Instantiate.saturate}); bapa never sees
    them.

    Obligations are independent, so [prove_all] fans them out across the
    domains of an optional {!Pool.t}.  An optional verdict {!Cache.t}
    settles repeated obligations once, and a budget bounds the
    wall-clock time of any single prover call.  A budgeted attempt runs
    on the thread that asked for it, under a {!Deadline} token: the
    prover stops at its next checkpoint once the budget is spent.  Each
    attempt counts itself in the trace counters
    [prover.<name>.{attempts,proved,refuted,raised}].

    The cache also replays [Unknown] — but only an Unknown that no
    resource limit produced.  A cache serves the one dispatcher that
    owns it, so a replayed Unknown comes from the same portfolio.  Every
    attempt reports whether it was resource-limited:
    a budget exceeded or cancelled, a {!Deadline.Expired}, a prover
    that raised, or a prover's own {!Sequent.Resource_limited} (fol's
    wall-clock cut-off).  Fuel, clause caps,
    saturation and fragment rejections are deterministic: re-running the
    same portfolio on the same obligation gives the same Unknown, so
    replaying it is as trustworthy as a fresh attempt. *)

open Logic

(* re-export the sibling modules: [dispatch] is this library's main
   module, so [Pool] and [Cache] are only reachable through it *)
module Pool = Pool
module Cache = Cache

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
  pool : Pool.t option; (* fan obligations out when present *)
  cache : Cache.t option; (* verdict memoization when present *)
}

(* ------------------------------------------------------------------ *)
(* Per-prover wall-clock budgets                                       *)
(* ------------------------------------------------------------------ *)

(** [p s] under a wall-clock budget, and whether the budget — or an
    enclosing cancellation reaching through it — cut the attempt short.
    The prover runs on the calling thread under a {!Deadline} token
    parented to the caller's own, and stops at its next checkpoint (every
    search loop in the portfolio polls one).  A prover that returns
    before it checkpoints keeps its verdict, however late.  Exceptions
    other than {!Deadline.Expired} propagate: the dispatcher counts them,
    and the fuzzer, which budgets each party's call with this directly,
    turns them into [Unknown]. *)
let run_budgeted ~(budget_s : float) (p : Sequent.prover) (s : Sequent.t) :
    Sequent.verdict * bool =
  let token =
    Deadline.make ~deadline_in:budget_s ?parent:(Deadline.current ()) ()
  in
  match Deadline.with_token token (fun () -> p.Sequent.prove s) with
  | v -> (v, false)
  | exception Deadline.Expired when Deadline.cancel_requested token ->
    (* an enclosing token was cancelled, not this budget *)
    Trace.incr "deadline.cancelled";
    (Sequent.Unknown "attempt cancelled", true)
  | exception Deadline.Expired ->
    Trace.incr "budget.exceeded";
    Trace.instant ~cat:"budget"
      ~args:(fun () ->
        [ ("prover", Trace.S p.Sequent.prover_name);
          ("budget_s", Trace.F budget_s) ])
      "exceeded";
    (Sequent.Unknown (Printf.sprintf "budget of %gs exceeded" budget_s), true)

(** A dispatcher over [provers], in dispatch order.  A [cache] must
    serve this one dispatcher: it replays the portfolio's deterministic
    Unknowns, which another portfolio might settle. *)
let create ?pool ?cache ?budget_s (provers : Sequent.prover list) : t =
  { provers; budget_s; pool; cache }

(* ------------------------------------------------------------------ *)
(* Proving                                                             *)
(* ------------------------------------------------------------------ *)

(* cheap syntactic discharge of the simplified sequent: the goal is true
   or among the hypotheses, or a hypothesis is false *)
let syntactic (s : Sequent.t) : Sequent.verdict option =
  let goal = s.Sequent.goal in
  if
    Form.is_true goal
    || List.exists
         (fun h -> Form.is_false h || Form.equal h goal)
         s.Sequent.hyps
  then Some Sequent.Valid
  else None

(* ------------------------------------------------------------------ *)
(* The cascade engine                                                  *)
(* ------------------------------------------------------------------ *)

(* a prover crash is a portfolio event, not a verdict: count it, leave an
   instant in the trace, and move on as if the prover said Unknown *)
let note_raised (name : string) (e : exn) : Sequent.verdict =
  Trace.incr ("prover." ^ name ^ ".raised");
  Trace.instant ~cat:"dispatch"
    ~args:(fun () ->
      [ ("prover", Trace.S name); ("exn", Trace.S (Printexc.to_string e)) ])
    "prover.raised";
  Sequent.Unknown ("prover raised " ^ Printexc.to_string e)

let settled = function
  | Sequent.Valid | Sequent.Invalid _ -> true
  | Sequent.Unknown _ -> false

(* one prover attempt: the per-prover trace counters
   [prover.<name>.{attempts,proved,refuted,raised}] and crash
   accounting.  The flag says whether a resource limit produced the
   verdict: the budget, a cancellation, a crash or the prover's own
   [Resource_limited] *)
let attempt (d : t) (s : Sequent.t) (p : Sequent.prover) :
    Sequent.verdict * bool =
  let name = p.Sequent.prover_name in
  Trace.incr ("prover." ^ name ^ ".attempts");
  let v, limited =
    match
      match d.budget_s with
      | None -> (p.Sequent.prove s, false)
      | Some budget_s -> run_budgeted ~budget_s p s
    with
    | r -> r
    | exception Deadline.Expired ->
      (* an enclosing deadline expired mid-attempt; not a crash *)
      Trace.incr "deadline.cancelled";
      (Sequent.Unknown "attempt cancelled", true)
    | exception Sequent.Resource_limited why ->
      Trace.incr "prover.resource_limited";
      (Sequent.Unknown why, true)
    | exception e -> (note_raised name e, true)
  in
  (match v with
  | Sequent.Valid -> Trace.incr ("prover." ^ name ^ ".proved")
  | Sequent.Invalid _ -> Trace.incr ("prover." ^ name ^ ".refuted")
  | Sequent.Unknown _ -> ());
  (v, limited)

let report_of (s : Sequent.t) (p : Sequent.prover) (v : Sequent.verdict) :
    report =
  { sequent = s; verdict = v; prover = Some p.Sequent.prover_name;
    cached = false; limited = false }

(* the cascade: offer the sequent to each prover in portfolio order
   until one settles it *)
let run_cascade (d : t) (s : Sequent.t) : report =
  let rec go limited = function
    | [] ->
      { sequent = s;
        verdict = Sequent.Unknown "no prover settled the goal";
        prover = None;
        cached = false;
        limited }
    | p :: rest -> (
      match attempt d s p with
      | v, _ when settled v -> report_of s p v
      | _, l -> go (limited || l) rest)
  in
  go false d.provers

(* the portfolio run proper, after the cache has been consulted *)
let prove_uncached (d : t) (s : Sequent.t) : report =
  let s =
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
  in
  match syntactic s with
  | Some v ->
    { sequent = s; verdict = v; prover = Some "syntactic"; cached = false;
      limited = false }
  | None -> run_cascade d s

(* the cache-consulting path, without the obligation span *)
let prove_sequent_inner (d : t) (s : Sequent.t) : report =
  match d.cache with
  | None -> prove_uncached d s
  | Some cache -> (
    let k = Cache.key s in
    match Cache.acquire cache k with
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
           not cached; any other Unknown is *)
        if r.limited then begin
          Cache.abandon cache k;
          Trace.incr "cache.unknown_not_cached"
        end
        else
          Cache.publish cache k
            { Cache.verdict = r.verdict; prover = r.prover };
        r
      | exception e ->
        Cache.abandon cache k;
        raise e))

(** Prove one sequent with the portfolio, consulting the verdict cache
    first.  The cache key is computed on the incoming sequent, before any
    simplification, so a repeated obligation costs one canonicalization
    and nothing else.  [Valid]/[Invalid] verdicts are cached, and so is
    an [Unknown] that no attempt's resource limit produced; a
    resource-limited Unknown is re-attempted on every call. *)
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

(** The dispatcher's verdict cache, if caching is enabled. *)
let cache (d : t) : Cache.t option = d.cache

(** The verdict-cache line of [--stats], nothing without a cache.  It
    reads the cache's own counters because table sizes are not trace
    counters; per-prover counts are (see {!attempt}). *)
let pp_stats ppf (d : t) =
  match d.cache with
  | None -> ()
  | Some c ->
    let k = Cache.counters c in
    Format.fprintf ppf
      "verdict cache: hits %d   misses %d   entries %d   hit rate %.1f%%   \
       unknown entries %d   replayed %d@."
      k.Cache.hit_count k.Cache.miss_count k.Cache.entries
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
