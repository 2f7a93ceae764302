(** Term indexing for the saturation engine.

    Over the clause set of one refutation:

    - a {e discrimination tree} per (sign, predicate) pair over the active
      clauses' literals.  A literal's argument list is flattened to its
      pre-order symbol spine (variables flatten to a wildcard) and stored
      as a path; retrieval walks the query's spine, branching into the
      wildcard edge at every position and skipping whole stored subterms
      under query variables.  The result is a superset of the truly
      unifiable complements — the caller still unifies — fetched without
      scanning every active literal;
    - the same trees run full-clause subsumption through the two other
      classic retrieval modes.  Forward ("is this clause subsumed by an
      active one?") retrieves {e generalizations}: every active clause
      files its most specific literal in a watch-tree; a subsumer's
      watch literal necessarily generalizes some literal of the subsumee,
      so querying each literal of the new clause covers all candidates.
      Backward ("which active clauses does this one subsume?") retrieves
      {e instances} of the new clause's most specific literal from the
      active literals' trees.  Any literal would be complete in either
      direction (a subsumee holds an instance of every literal of its
      subsumer); the most specific one — most non-variable symbols, the
      crowded equality and sort-guard trees losing ties — matches the
      fewest stored literals, where an all-variable one such as
      [~obj(X)] matches its whole tree;
    - the active unit clauses, for the cheap filter ({!unit_subsumed})
      that every generated clause meets: a ground unit matches only its
      own literal, so ground units sit in a hash table keyed by the
      literal and the filter costs one lookup per ground literal (on
      list, 267 of the 309 unit clauses activated are ground); the
      non-ground ones keep a (sign, predicate) bucket.

    Only active clauses are indexed.  A queued (passive) clause is just
    numbered by {!register}; the renamed copy and the keys that the
    subsumption tests need are built when it is activated, and most
    queued clauses never are.  Instead of retiring queued clauses when a
    new clause is activated, the engine asks {!take} about a queued
    clause when it comes off a queue: it is dropped if an active clause
    activated after its registration (its [stamp] exceeds the clause's
    [id]) subsumes it.  That is exactly the set eager backward
    subsumption would have retired by then: subsumption with the length
    guard is transitive, and an active clause leaves the active set only
    when a newer active clause subsumes it, so the subsumer that was
    activated after the clause, or one that replaced it, is still active
    and still newer.  The same scan of the watch-trees tells whether an
    older active clause subsumes it, which is the forward subsumption
    test the clause meets if it is picked.

    Entries are retired lazily: {!retire} flips the state and retrieval
    filters on it, so deletion costs O(1) and no tree surgery.  Stats are
    accumulated locally and {!flush_stats} publishes them as
    [fol.index.*] / [fol.subsume.*] / [fol.given] trace counters once per
    refutation, keeping {!Trace} calls out of the inner loop. *)

open Folterm
open Folclause

type cstate = Passive | Active | Dead

type entry = {
  id : int; (* registration order *)
  cl : clause;
  weight : int; (* clause_size: the passive queue's priority *)
  nlits : int; (* List.length: the subsumption length guard *)
  mutable cl_r : clause;
      (* built by {!activate}: [cl] renamed apart once and reused by every
         subsumption test; most specific literal first, so a failing match
         fails early *)
  mutable keys : (bool * string) list;
      (* built by {!activate}: distinct (sign, pred), sorted *)
  mutable stamp : int;
      (* set by {!activate}: the number of clauses registered before the
         activation, so [stamp > id'] iff the clause with id [id'] was
         registered before this one was activated *)
  mutable state : cstate;
}

(* ------------------------------------------------------------------ *)
(* Discrimination tree                                                 *)
(* ------------------------------------------------------------------ *)

type sym = SVar | SFn of string * int

type node = {
  mutable leaf : (entry * lit) list;
      (* literals whose flattened spine ends here *)
  succ : (sym, node) Hashtbl.t;
}

let new_node () = { leaf = []; succ = Hashtbl.create 4 }

let insert_path (root : node) (args : term list) (v : entry * lit) : unit =
  let rec go nd = function
    | [] -> nd.leaf <- v :: nd.leaf
    | t :: rest ->
      let sym, rest =
        match t with
        | V _ -> (SVar, rest)
        | Fn (f, fargs) -> (SFn (f, List.length fargs), fargs @ rest)
      in
      let nd' =
        match Hashtbl.find_opt nd.succ sym with
        | Some nd' -> nd'
        | None ->
          let fresh = new_node () in
          Hashtbl.add nd.succ sym fresh;
          fresh
      in
      go nd' rest
  in
  go root args

(* visit every node reachable by skipping [n] whole stored terms *)
let rec skip (n : int) (nd : node) (k : node -> unit) : unit =
  if n = 0 then k nd
  else
    Hashtbl.iter
      (fun sym nd' ->
        match sym with
        | SVar -> skip (n - 1) nd' k
        | SFn (_, arity) -> skip (n - 1 + arity) nd' k)
      nd.succ

(* the three classic discrimination-tree retrieval modes: candidates
   that may unify with the query, that may be instances of it, and that
   may generalize it.  All three overapproximate (the tree is blind to
   repeated variables); callers confirm with unification or matching. *)
type mode = Unifiable | Instances | Generalizations

let retrieve_path (mode : mode) (root : node) (args : term list) :
    (entry * lit) list =
  let out = ref [] in
  let rec go nd = function
    | [] ->
      (if List.exists (fun (e, _) -> e.state = Dead) nd.leaf then
         nd.leaf <- List.filter (fun (e, _) -> e.state <> Dead) nd.leaf);
      List.iter (fun v -> out := v :: !out) nd.leaf
    | V _ :: rest -> (
      match mode with
      | Unifiable | Instances ->
        (* a query variable admits any stored subterm *)
        skip 1 nd (fun nd' -> go nd' rest)
      | Generalizations -> (
        (* only a stored variable generalizes a query variable *)
        match Hashtbl.find_opt nd.succ SVar with
        | Some nd' -> go nd' rest
        | None -> ()))
    | Fn (f, fargs) :: rest ->
      (match mode with
      | Instances -> () (* a stored variable is not an instance *)
      | Unifiable | Generalizations -> (
        match Hashtbl.find_opt nd.succ SVar with
        | Some nd' -> go nd' rest
        | None -> ()));
      (match Hashtbl.find_opt nd.succ (SFn (f, List.length fargs)) with
      | Some nd' -> go nd' (fargs @ rest)
      | None -> ())
  in
  go root args;
  !out

(* ------------------------------------------------------------------ *)
(* The index                                                           *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable retrieved : int; (* candidates returned by the trees *)
  mutable scanned : int; (* active literals a naive scan would have tried *)
  mutable fwd : int; (* clauses discarded by forward subsumption *)
  mutable bwd : int;
      (* active clauses retired by backward subsumption, and queued
         clauses dropped by {!take} *)
  mutable dedup : int; (* normalized-clause dedup hits *)
  mutable given : int; (* clauses activated *)
}

(* ground literals paired with their {!Folclause.hash_lit} *)
module LitTbl = Hashtbl.Make (struct
  type t = int * lit

  let equal ((h1, l1) : t) ((h2, l2) : t) = h1 = h2 && equal_lit l1 l2
  let hash ((h, _) : t) = h
end)

type t = {
  trees : (bool * string, node) Hashtbl.t;
      (* active literals: resolution-partner retrieval (Unifiable) *)
  watch_trees : (bool * string, node) Hashtbl.t;
      (* one designated literal per active clause: forward-subsumption
         candidate retrieval (Generalizations) *)
  ground_units : unit LitTbl.t;
      (* the literals of the active ground unit clauses (forward
         subsumption keeps a second copy of one from being activated):
         the generation-time filter's one lookup per literal *)
  units : (bool * string, (entry * lit) list ref) Hashtbl.t;
      (* active non-ground unit clauses, literal pre-renamed apart: the
         rest of the filter *)
  mutable next_id : int;
  mutable active_lits : int;
  stats : stats;
}

let create () : t =
  { trees = Hashtbl.create 32;
    watch_trees = Hashtbl.create 32;
    ground_units = LitTbl.create 64;
    units = Hashtbl.create 32;
    next_id = 0;
    active_lits = 0;
    stats =
      { retrieved = 0; scanned = 0; fwd = 0; bwd = 0; dedup = 0; given = 0 };
  }

let lit_key (l : lit) = (l.sign, l.pred)

let compare_key ((s1, p1) : bool * string) ((s2, p2) : bool * string) =
  let c = Bool.compare s1 s2 in
  if c <> 0 then c else String.compare p1 p2

let clause_keys (c : clause) : (bool * string) list =
  List.sort_uniq compare_key (List.map lit_key c)

(* sorted-list inclusion *)
let rec key_subset xs ys =
  match xs, ys with
  | [], _ -> true
  | _, [] -> false
  | x :: xs', y :: ys' ->
    let c = compare_key x y in
    if c = 0 then key_subset xs' ys'
    else if c > 0 then key_subset xs ys'
    else false

let tree_of family key : node =
  match Hashtbl.find_opt family key with
  | Some nd -> nd
  | None ->
    let nd = new_node () in
    Hashtbl.add family key nd;
    nd

(* how specific a literal is: its non-variable symbols, the crowded
   equality and sort-guard trees losing ties (the low bit).  [activate]
   puts the most specific literal first in [cl_r]; both subsumption
   directions file or query by it *)
let specificity (l : lit) : int =
  let rec syms n = function
    | V _ -> n
    | Fn (_, args) -> List.fold_left syms (n + 1) args
  in
  (2 * List.fold_left syms 0 l.args)
  + if l.pred = "=" || l.pred = "obj" then 0 else 1

(** Number a kept clause of {!Folclause.clause_size} [weight]; it waits
    in the engine's queues, unindexed, until {!activate}. *)
let register (t : t) ~(weight : int) (c : clause) : entry =
  let e =
    { id = t.next_id;
      cl = c;
      weight;
      nlits = List.length c;
      cl_r = [];
      keys = [];
      stamp = 0;
      state = Passive;
    }
  in
  t.next_id <- t.next_id + 1;
  e

let activate (t : t) (e : entry) : unit =
  e.state <- Active;
  e.stamp <- t.next_id;
  e.cl_r <-
    rename_clause
      (List.map snd
         (List.stable_sort
            (fun (a, _) (b, _) -> Int.compare b a)
            (List.map (fun l -> (specificity l, l)) e.cl)));
  e.keys <- clause_keys e.cl;
  t.stats.given <- t.stats.given + 1;
  List.iter
    (fun l -> insert_path (tree_of t.trees (lit_key l)) l.args (e, l))
    e.cl;
  t.active_lits <- t.active_lits + List.length e.cl;
  (match (e.cl, e.cl_r) with
  | [ l ], _ when ground_lit l ->
    LitTbl.replace t.ground_units (hash_lit l, l) ()
  | [ l ], [ lr ] ->
    let cell =
      match Hashtbl.find_opt t.units (lit_key l) with
      | Some cell -> cell
      | None ->
        let cell = ref [] in
        Hashtbl.add t.units (lit_key l) cell;
        cell
    in
    cell := (e, lr) :: !cell
  | _ -> ());
  match e.cl_r with
  | l :: _ -> insert_path (tree_of t.watch_trees (lit_key l)) l.args (e, l)
  | [] -> ()

let retire (t : t) (e : entry) : unit =
  if e.state = Active then begin
    t.active_lits <- t.active_lits - List.length e.cl;
    match e.cl with
    | [ l ] when ground_lit l -> LitTbl.remove t.ground_units (hash_lit l, l)
    | _ -> ()
  end;
  e.state <- Dead

let note_dedup (t : t) : unit = t.stats.dedup <- t.stats.dedup + 1

(** Unification candidates among the active literals complementary to
    [l]: a superset of the truly unifiable partners (the engine still
    unifies against a renamed copy). *)
let retrieve_partners (t : t) (l : lit) : (entry * lit) list =
  t.stats.scanned <- t.stats.scanned + t.active_lits;
  match Hashtbl.find_opt t.trees (not l.sign, l.pred) with
  | None -> []
  | Some root ->
    (* the trees hold active entries only, once retrieval has compacted
       the retired ones out of the leaves it reached *)
    let cands = retrieve_path Unifiable root l.args in
    t.stats.retrieved <- t.stats.retrieved + List.length cands;
    cands

(* does the pre-renamed unit literal [u] match [l]? *)
let unit_matches (u : lit) (l : lit) : bool =
  match List.fold_left2 match_term [] u.args l.args with
  | _ -> true
  | exception (No_unifier | Invalid_argument _) -> false

(** Whether an active {e unit} clause subsumes [c], whose {!profile} is
    [p]: the cheap filter the engine runs on every generated clause.  A
    ground unit matches only its own literal, so each ground literal of
    [c] costs one hash lookup among the ground units; every literal is
    also matched, without backtracking, against each non-ground unit of
    its (sign, predicate) bucket.  The full check runs when a queue
    takes the clause ({!take}).  Dead entries are compacted out of a
    bucket whenever a scan walks past them. *)
let unit_subsumed (t : t) (c : clause) (p : profile) : bool =
  let hit =
    List.exists2
      (fun l h ->
        (h >= 0 && LitTbl.mem t.ground_units (h, l))
        ||
        match Hashtbl.find_opt t.units (lit_key l) with
        | None -> false
        | Some cell ->
          (if List.exists (fun (e, _) -> e.state = Dead) !cell then
             cell := List.filter (fun (e, _) -> e.state <> Dead) !cell);
          List.exists
            (fun (e, u) -> e.state = Active && unit_matches u l)
            !cell)
      c p.ground
  in
  if hit then t.stats.fwd <- t.stats.fwd + 1;
  hit

(* whether [stop] accepts one of the active clauses that pass [want] and
   subsume [c]: every literal of [c] asks the watch-trees for stored
   watch literals generalizing it — the subsumer, wherever it maps its
   watch literal, is found by that literal.  [want] runs before the
   subsumption test, [stop] on each subsumer found *)
let scan_subsumers (t : t) (c : clause) (want : entry -> bool)
    (stop : entry -> bool) : bool =
  let keys = lazy (clause_keys c) in
  let n = List.length c in
  let subsumer (e, _) =
    e.state = Active && e.nlits <= n && want e
    && key_subset e.keys (Lazy.force keys)
    && subsumes_prepared e.cl_r c
    && stop e
  in
  List.exists
    (fun l ->
      match Hashtbl.find_opt t.watch_trees (lit_key l) with
      | None -> false
      | Some root ->
        List.exists subsumer (retrieve_path Generalizations root l.args))
    c

(** Whether an active clause subsumes [c] (counted as forward
    subsumption). *)
let forward_subsumed (t : t) (c : clause) : bool =
  let hit = scan_subsumers t c (fun _ -> true) (fun _ -> true) in
  if hit then t.stats.fwd <- t.stats.fwd + 1;
  hit

(** How a queued clause stands when a queue takes it. *)
type standing =
  | Fresh  (** no active clause subsumes it *)
  | Subsumed
      (** only active clauses activated before its registration subsume
          it: forward subsumption discards it if it is picked *)
  | Dropped
      (** an active clause activated after its registration subsumes it:
          eager backward subsumption would have retired it by now *)

(** The standing of the queued clause [e], found in one scan of the
    watch-trees.  A [Dropped] clause is retired and counted as
    backward-subsumed here; the engine asks this of every queued clause
    it takes off a queue, before spending a pick on it.  Forward
    subsumption of a [Subsumed] clause is counted when the engine picks
    it ({!retire_subsumed}). *)
let take (t : t) (e : entry) : standing =
  let older = ref false in
  let newer a = a.stamp > e.id in
  let dropped =
    scan_subsumers t e.cl
      (* once an older subsumer is known, only a newer one tells more *)
      (fun a -> newer a || not !older)
      (fun a ->
        newer a
        || begin
             older := true;
             false
           end)
  in
  if dropped then begin
    retire t e;
    t.stats.bwd <- t.stats.bwd + 1;
    Dropped
  end
  else if !older then Subsumed
  else Fresh

(** Retire the picked clause [e], which {!take} found [Subsumed]. *)
let retire_subsumed (t : t) (e : entry) : unit =
  retire t e;
  t.stats.fwd <- t.stats.fwd + 1

(** Every active clause other than [e] itself that [e]'s clause subsumes
    (the caller retires them).  [e]'s most specific literal asks the
    active trees for stored instances; the owners of those literals are
    the only active clauses [e] can subsume.  Queued clauses are left to
    {!take}. *)
let backward_subsumed (t : t) (e : entry) : entry list =
  match e.cl_r with
  | [] -> []
  | lp :: _ -> (
    (* [cl_r] leads with the most specific literal; its renamed
       variables are as blind to the tree as the originals *)
    match Hashtbl.find_opt t.trees (lit_key lp) with
    | None -> []
    | Some root ->
      let seen = Hashtbl.create 16 in
      let subsumed =
        List.filter
          (fun (c, _) ->
            c.id <> e.id && c.state = Active && e.nlits <= c.nlits
            && key_subset e.keys c.keys
            && (not (Hashtbl.mem seen c.id))
            && begin
                 Hashtbl.add seen c.id ();
                 subsumes_prepared e.cl_r c.cl
               end)
          (retrieve_path Instances root lp.args)
      in
      t.stats.bwd <- t.stats.bwd + List.length subsumed;
      List.map fst subsumed)

(** Publish the refutation's counters; one [Trace.add] per counter, so the
    tracing fast path never sits in the given-clause loop. *)
let flush_stats (t : t) : unit =
  let s = t.stats in
  Trace.add "fol.index.retrieved" s.retrieved;
  Trace.add "fol.index.scanned" s.scanned;
  Trace.add "fol.subsume.forward" s.fwd;
  Trace.add "fol.subsume.backward" s.bwd;
  Trace.add "fol.dedup.hits" s.dedup;
  Trace.add "fol.given" s.given
