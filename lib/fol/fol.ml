(** Resolution theorem prover for first-order logic with equality — the
    portfolio's stand-in for off-the-shelf ATPs such as Vampire [78],
    which the paper suggests for discharging client-level obligations
    about abstract sets.

    Pipeline: specification formulas are translated to first-order logic
    (set operations become pointwise [elem] facts), clausified (NNF,
    prenexing, skolemization, distribution), and refuted by a given-clause
    loop with binary resolution + factoring.  Equality is handled by
    adding congruence axioms for the symbols that occur.  The clause set
    is the translation of the sequent given and nothing more: the
    portfolio entry {!prover} grounds an admitted sequent once, with
    {!Instantiate.saturate}.  The prover is refutation-complete for FOL
    but of course not a decision procedure: it answers [Valid] or gives
    up with [Unknown] when its budget runs out (it never claims
    [Invalid]). *)

open Logic
open Folterm

(* ------------------------------------------------------------------ *)
(* Literals and clauses                                                *)
(* ------------------------------------------------------------------ *)

(* the clause language and the inference rules live in {!Folclause};
   re-exported here so this entry module keeps its historical interface *)
include Folclause

(** The term language and the clause indexes, re-exported for tests and
    tooling (library-internal modules are otherwise hidden behind this
    entry module). *)
module Term = Folterm

module Index = Index

(* ------------------------------------------------------------------ *)
(* Translation from specification formulas                             *)
(* ------------------------------------------------------------------ *)

exception Untranslatable of string

(* Set-theoretic operators are eliminated pointwise before clausification:
   every set equality / inclusion over set-typed expressions becomes a
   universally quantified membership formula, and memberships in compound
   sets are expanded by Simplify. *)
let rec set_to_fol (set_exprs_hint : string list) (f : Form.t) : Form.t =
  let is_set_expr = Instantiate.is_set_expr set_exprs_hint in
  let pointwise mk a b =
    let e = Form.fresh_name "e" in
    Form.mk_forall
      [ (e, Ftype.Obj) ]
      (mk (Form.mk_elem (Form.Var e) a) (Form.mk_elem (Form.Var e) b))
  in
  let is_formula_like g =
    match Form.strip_types g with
    | Form.App
        ( Form.Const
            ( Form.Eq | Form.Elem | Form.Subseteq | Form.Subset | Form.And
            | Form.Or | Form.Not | Form.Impl | Form.Iff | Form.Lt | Form.Le
            | Form.Gt | Form.Ge ),
          _ )
    | Form.Const (Form.BoolLit _) ->
      true
    | _ -> false
  in
  let step g =
    match Form.strip_types g with
    | Form.App (Form.Const Form.Eq, [ a; b ]) when is_set_expr a || is_set_expr b
      ->
      pointwise Form.mk_iff a b
    | Form.App (Form.Const Form.Eq, [ a; b ])
      when is_formula_like a || is_formula_like b ->
      (* boolean-sorted equality, e.g. result = (content = {}) *)
      Form.mk_iff a b
    | Form.App (Form.Const Form.Subseteq, [ a; b ]) ->
      pointwise Form.mk_impl a b
    | Form.App (Form.Const Form.Subset, [ a; b ]) ->
      Form.mk_and
        [ pointwise Form.mk_impl a b;
          Form.mk_not (pointwise Form.mk_iff a b) ]
    | _ -> g
  in
  let g = Form.map_bottom_up step f in
  let g' = Simplify.simplify g in
  if Form.equal g' f then g' else set_to_fol set_exprs_hint g'

(* the variable of a universal: its position among the enclosing
   universals (the first, should two share a name) *)
let universal_var (universals : string list) (x : string) : int option =
  let rec go i = function
    | [] -> None
    | y :: rest -> if String.equal x y then Some i else go (i + 1) rest
  in
  go 0 universals

(* atoms: elem(x, S), eq(a, b), or uninterpreted predicate applications *)
let rec fol_term (universals : string list) (f : Form.t) : term =
  match Form.strip_types f with
  | Form.Var x -> (
    match universal_var universals x with
    | Some i -> V i
    | None -> Fn ("c_" ^ x, []))
  | Form.Const Form.Null -> Fn ("null", [])
  | Form.Const (Form.IntLit n) -> Fn (Printf.sprintf "int_%d" n, [])
  | Form.Const Form.EmptySet -> Fn ("emptyset", [])
  | Form.Const Form.UnivSet -> Fn ("univ", [])
  | Form.App (Form.Const Form.FieldRead, [ fld; obj ]) ->
    Fn ("read", [ fol_term universals fld; fol_term universals obj ])
  | Form.App (Form.Const Form.FieldWrite, [ fld; obj; v ]) ->
    Fn
      ( "write",
        [ fol_term universals fld;
          fol_term universals obj;
          fol_term universals v ] )
  | Form.App (Form.Const Form.Union, [ a; b ]) ->
    Fn ("union", [ fol_term universals a; fol_term universals b ])
  | Form.App (Form.Const Form.Inter, [ a; b ]) ->
    Fn ("inter", [ fol_term universals a; fol_term universals b ])
  | Form.App (Form.Const Form.Diff, [ a; b ]) ->
    Fn ("setdiff", [ fol_term universals a; fol_term universals b ])
  | Form.App (Form.Const Form.FiniteSet, elems) ->
    List.fold_left
      (fun acc e -> Fn ("insert", [ fol_term universals e; acc ]))
      (Fn ("emptyset", []))
      elems
  | Form.App (Form.Var fn, args) ->
    Fn ("f_" ^ fn, List.map (fol_term universals) args)
  | g -> raise (Untranslatable (Pprint.to_string g))

(* a reachability lambda (% u v. E(u) = v) denotes the reflexive
   transitive closure of the *function* E; we translate it as an
   uninterpreted binary predicate rt(E0, x, y) over the step function's
   translation, and add sound (not complete) closure axioms.  [step_field]
   finds E: the field (possibly an updated field term) read at [u]. *)
let step_field (p : Form.t) : Form.t option =
  match Form.strip_types p with
  | Form.Binder (Form.Lambda, [ (u, _); (v, _) ], body) -> (
    match Form.strip_types body with
    | Form.App (Form.Const Form.Eq, [ lhs; Form.Var v' ]) when v' = v -> (
      match Form.strip_types lhs with
      | Form.App (Form.Const Form.FieldRead, [ fld; Form.Var u' ])
        when u' = u && not (List.mem u (Form.fv_list fld)) ->
        Some fld
      | _ -> None)
    | _ -> None)
  | _ -> None

let fol_atom (universals : string list) (f : Form.t) : lit =
  match Form.strip_types f with
  | Form.App (Form.Const Form.Rtrancl, [ p; a; b ]) -> (
    match step_field p with
    | Some fld ->
      let step = fol_term universals fld in
      { sign = true;
        pred = "rt";
        args =
          [ step; fol_term universals a; fol_term universals b ] }
    | None -> raise (Untranslatable (Pprint.to_string f)))
  | Form.App (Form.Const Form.Eq, [ a; b ]) ->
    { sign = true; pred = "="; args = [ fol_term universals a; fol_term universals b ] }
  | Form.App (Form.Const Form.Elem, [ x; s ]) ->
    { sign = true;
      pred = "elem";
      args = [ fol_term universals x; fol_term universals s ] }
  | Form.Var p -> { sign = true; pred = "p_" ^ p; args = [] }
  | g -> raise (Untranslatable (Pprint.to_string g))

(* clausify an NNF, prenexed, skolemized matrix *)
let rec clausify_matrix (universals : string list) (f : Form.t) : clause list =
  match Form.strip_types f with
  | Form.App (Form.Const Form.And, gs) ->
    List.concat_map (clausify_matrix universals) gs
  | Form.App (Form.Const Form.Or, gs) ->
    let parts = List.map (clausify_matrix universals) gs in
    (* distribute: cartesian product of clause sets *)
    List.fold_left
      (fun acc cs ->
        List.concat_map (fun c1 -> List.map (fun c2 -> c1 @ c2) cs) acc)
      [ [] ] parts
  | Form.App (Form.Const Form.Not, [ g ]) -> [ [ lit_negate (fol_atom universals g) ] ]
  | Form.Const (Form.BoolLit true) -> []
  | Form.Const (Form.BoolLit false) -> [ [] ]
  | g -> [ [ fol_atom universals g ] ]

(* Sort erasure is only sound if object-sorted quantifiers cannot range
   over the set/field constants of the unsorted encoding: [ALL q::obj. y = q]
   would otherwise collapse every sort into one class (the fuzzer found
   exactly this).  Obj-sorted binders are therefore relativized with an
   [obj] guard predicate; [obj] facts for ground object terms come from
   {!theory_axioms} and the free-variable units in {!outcome_typed}.  [Tvar]
   counts as object-sorted: the rest of the portfolio (and the oracle)
   grounds unconstrained sorts at objects. *)
let obj_sorted (ty : Ftype.t) : bool =
  match ty with Ftype.Obj | Ftype.Tvar _ -> true | _ -> false

let obj_lit sign t = { sign; pred = "obj"; args = [ t ] }

(* skolemize, tracking which variables are universal *)
let clausify (f : Form.t) : clause list =
  let qs, matrix = Simplify.prenex (Simplify.nnf f) in
  let extra = ref [] in
  let rec go universals guarded subs = function
    | [] ->
      let matrix = Form.subst_list subs matrix in
      let names = List.map fst universals in
      let cs = clausify_matrix names matrix in
      (* ALL x::obj. C becomes  ~obj(x) | C  for each clause mentioning x
         (clauses without x need no guard: obj(null) witnesses
         nonemptiness).  A clause already containing a negative elem
         literal over x needs no guard either: memberships can be read as
         false outside the object sort, which satisfies the clause on any
         off-sort instance — this keeps the pointwise set clauses lean. *)
      List.map
        (fun c ->
          let vs = clause_vars c in
          let neg_elem_vars =
            List.concat_map
              (fun l ->
                if (not l.sign) && l.pred = "elem" then
                  List.fold_left term_vars [] l.args
                else [])
              c
          in
          let guards =
            List.filter_map
              (fun x ->
                match universal_var names x with
                | Some v when List.mem v vs && not (List.mem v neg_elem_vars)
                  ->
                  Some (obj_lit false (V v))
                | _ -> None)
              guarded
          in
          guards @ c)
        cs
    | (`All, (x, ty)) :: rest ->
      go
        (universals @ [ (x, ()) ])
        (if obj_sorted ty then x :: guarded else guarded)
        subs rest
    | (`Ex, (x, ty)) :: rest ->
      let sk = Form.fresh_name ("sk_" ^ x) in
      let term =
        if universals = [] then Form.Var sk
        else Form.App (Form.Var sk, List.map (fun (u, ()) -> Form.Var u) universals)
      in
      (* an obj-sorted witness can always be chosen inside the object
         domain, whatever the enclosing universals are bound to *)
      if obj_sorted ty then
        extra :=
          [ obj_lit true (fol_term (List.map fst universals) term) ] :: !extra;
      go universals guarded ((x, term) :: subs) rest
  in
  (* skolem applications App (Var sk, universals) translate via "f_sk" *)
  let cs = go [] [] [] qs in
  cs @ !extra

(* ------------------------------------------------------------------ *)
(* Equality axioms                                                     *)
(* ------------------------------------------------------------------ *)

let equality_axioms (clauses : clause list) : clause list =
  (* collect function and predicate symbols with arities *)
  let fns = Hashtbl.create 16 and preds = Hashtbl.create 16 in
  let rec note_term = function
    | V _ -> ()
    | Fn (f, args) ->
      if args <> [] then Hashtbl.replace fns (f, List.length args) ();
      List.iter note_term args
  in
  let uses_equality = ref false in
  List.iter
    (List.iter (fun l ->
         if l.pred = "=" then uses_equality := true
         else Hashtbl.replace preds (l.pred, List.length l.args) ();
         List.iter note_term l.args))
    clauses;
  if not !uses_equality then []
  else begin
    let eq a b = { sign = true; pred = "="; args = [ a; b ] } in
    let neq a b = { sign = false; pred = "="; args = [ a; b ] } in
    let x = V 0 and y = V 1 and z = V 2 in
    let refl = [ eq x x ] in
    let sym = [ neq x y; eq y x ] in
    let trans = [ neq x y; neq y z; eq x z ] in
    (* x_i = y_i ... -> f(xs) = f(ys), over variables x_i = i and
       y_i = arity + i *)
    let xs arity = List.init arity (fun i -> V i) in
    let ys arity = List.init arity (fun i -> V (arity + i)) in
    let congruences =
      Hashtbl.fold
        (fun (f, arity) () acc ->
          let xs = xs arity and ys = ys arity in
          (List.map2 neq xs ys @ [ eq (Fn (f, xs)) (Fn (f, ys)) ]) :: acc)
        fns []
    in
    let pred_congruences =
      Hashtbl.fold
        (fun (p, arity) () acc ->
          (* no congruence for the [obj] sort guard: sorts are
             equality-invariant by construction, and the axiom's
             resolvents flood the search space *)
          if arity = 0 || p = "obj" then acc
          else begin
            let xs = xs arity and ys = ys arity in
            (List.map2 neq xs ys
            @ [ { sign = false; pred = p; args = xs };
                { sign = true; pred = p; args = ys } ])
            :: acc
          end)
        preds []
    in
    (refl :: sym :: trans :: congruences) @ pred_congruences
  end

(* Sound axioms for the interpreted symbols occurring in the clause set:
   reflexive-transitive closure of a functional step, select-over-store
   for field writes, and the null-field convention read(f, null) = null. *)
let theory_axioms (clauses : clause list) : clause list =
  let has_pred p =
    List.exists (List.exists (fun l -> l.pred = p)) clauses
  in
  let has_fn name =
    let rec in_term = function
      | V _ -> false
      | Fn (f, args) -> f = name || List.exists in_term args
    in
    List.exists (List.exists (fun l -> List.exists in_term l.args)) clauses
  in
  (* field constants: 0-ary symbols appearing as the first argument of
     read — they obey read(f, null) = null *)
  let field_consts =
    let acc = ref [] in
    let rec scan = function
      | V _ -> ()
      | Fn ("read", [ (Fn (f, []) as fld); _ ]) ->
        if not (List.mem f !acc) then acc := f :: !acc;
        scan fld
      | Fn (_, args) -> List.iter scan args
    in
    List.iter (List.iter (fun l -> List.iter scan l.args)) clauses;
    !acc
  in
  let eq a b = { sign = true; pred = "="; args = [ a; b ] } in
  let neq a b = { sign = false; pred = "="; args = [ a; b ] } in
  let rt f x y = { sign = true; pred = "rt"; args = [ f; x; y ] } in
  let nrt f x y = { sign = false; pred = "rt"; args = [ f; x; y ] } in
  let null = Fn ("null", []) in
  let read f x = Fn ("read", [ f; x ]) in
  let f = V 0 and x = V 1 and y = V 2 and z = V 3 and v = V 4 in
  let rt_axioms =
    if not (has_pred "rt") then []
    else
      [ (* reflexivity *)
        [ rt f x x ];
        (* build-up: step then closure *)
        [ neq (read f x) y; nrt f y z; rt f x z ];
        (* transitivity *)
        [ nrt f x y; nrt f y z; rt f x z ];
        (* functional unfolding: rt(x,y) -> x = y \/ rt(step(x), y) *)
        [ nrt f x y; eq x y; rt f (read f x) y ];
        (* nothing beyond null *)
        [ nrt f null y; eq y null ];
      ]
  in
  let write_axioms =
    if not (has_fn "write") then []
    else
      [ (* read over write, same location *)
        [ eq (read (Fn ("write", [ f; x; v ])) x) v ];
        (* read over write, different location *)
        [ eq y x; eq (read (Fn ("write", [ f; x; v ])) y) (read f y) ];
      ]
  in
  let null_field_axioms =
    List.map (fun f -> [ eq (read (Fn (f, [])) null) null ]) field_consts
  in
  (* ground object terms for the sort guards introduced by [clausify]:
     null and every field read denote objects, and so does any ground
     term in the element slot of a membership (the translation puts only
     object-sorted expressions there).  Ground units instead of a general
     [elem(x,s) -> obj(x)] axiom: the axiom resolves against every
     membership literal in the search space and floods it. *)
  let obj_axioms =
    if not (has_pred "obj") then []
    else begin
      let elem_members =
        let acc = ref [] in
        List.iter
          (List.iter (fun l ->
               match l.pred, l.args with
               | "elem", [ x; _ ] when ground x && not (List.mem x !acc) ->
                 acc := x :: !acc
               | _ -> ()))
          clauses;
        !acc
      in
      [ obj_lit true null ]
      :: [ obj_lit true (read f x) ]
      :: List.map (fun t -> [ obj_lit true t ]) elem_members
    end
  in
  rt_axioms @ write_axioms @ null_field_axioms @ obj_axioms

(* ------------------------------------------------------------------ *)
(* Given-clause resolution                                             *)
(* ------------------------------------------------------------------ *)

(** [GaveUp] is the deterministic clause cap; [TimedOut] is the
    wall-clock cut-off, whose verdict depends on the host and its load. *)
type outcome = Proof | Saturated | GaveUp | TimedOut

(* tally a refutation's outcome as a [fol.outcome.*] trace counter *)
let count_outcome (o : outcome) : outcome =
  Trace.incr
    (match o with
    | Proof -> "fol.outcome.proof"
    | Saturated -> "fol.outcome.saturated"
    | GaveUp -> "fol.outcome.gave_up"
    | TimedOut -> "fol.outcome.timed_out");
  o

(** Refute [usable] (axioms + hypotheses, assumed consistent) against the
    set-of-support [sos] (the negated goal): every inference uses at least
    one SOS-descended parent, the classic Wos-style strategy that keeps
    the equality axioms from feeding on themselves.  Against the textbook
    given-clause loop (the fuzzer's reference engine, [Fuzz.Folab]) with
    the same inference rules and SOS restriction:

    - resolution partners come from a discrimination-tree index over the
      active literals instead of a scan of every active clause;
    - forward subsumption is full-clause (a new or popped clause subsumed
      by any active clause is discarded, not just unit-subsumed ones) and
      backward subsumption retires every active clause the newly
      activated given clause subsumes;
    - queued clauses are not indexed.  A queued clause that either queue
      takes is dropped, without spending a pick, if an active clause
      activated after it was kept subsumes it ({!Index.take}).
      The search is the one that eager backward subsumption of queued
      clauses would make: a dropped clause is exactly one that such a
      step would have retired by the time of the pop, because
      subsumption with the length guard is transitive and an active
      clause leaves the active set only when a newer active clause
      subsumes it.  The active set, the queues' contents and every pick
      are therefore the same; [fol.subsume.backward] counts the queued
      clauses a queue actually takes and drops, not those the search
      never reaches;
    - the passive queue alternates between best-weight and oldest-age
      picks, five weight picks per age pick, so old heavy clauses cannot
      starve;
    - the dedup table is keyed on {!Folclause.normalize_clause}'s
      variable-normalized form, so renamed variants collapse, and hashed
      over the whole clause in the same walk that sizes the clause for
      the filters ({!Folclause.profile}).

    Each refutation publishes its index counters, the number of clauses
    it activated ([fol.given]) and kept ([fol.kept]) and its outcome
    ([fol.outcome.*]) to the trace. *)
let refute ?(max_clauses = 4000) ?(max_weight = 60) ?(max_lits = 6)
    ?(timeout_s = 1.5) ~(usable : clause list) ~(sos : clause list) () :
    outcome =
  let deadline = Clock.now () +. timeout_s in
  let usable =
    List.filter (fun c -> not (is_tautology c)) (List.map normalize_clause usable)
  in
  let sos = List.map normalize_clause sos in
  if List.exists (fun c -> c = []) (usable @ sos) then count_outcome Proof
  else begin
    let idx = Index.create () in
    (* the weight queue, ordered by (weight, id) *)
    let module Pq = Set.Make (struct
      type t = Index.entry

      let compare (a : t) (b : t) =
        let c = Int.compare a.Index.weight b.Index.weight in
        if c <> 0 then c else Int.compare a.Index.id b.Index.id
    end) in
    let passive = ref Pq.empty in
    let age_queue : Index.entry Queue.t = Queue.create () in
    let seen = Tbl.create 256 in
    let total = ref 0 in
    (* [max_clauses] bounds clauses actually {e kept}: duplicates the
       dedup table absorbs and tautologies cost nothing (the fuzzer's
       naive engine charges its budget for every generated clause) *)
    let add_passive c (p : profile) =
      let key = (p.hash, c) in
      if Tbl.mem seen key then Index.note_dedup idx
      else if not (is_tautology c) then begin
        Tbl.add seen key ();
        incr total;
        let e = Index.register idx ~weight:p.size c in
        passive := Pq.add e !passive;
        Queue.add e age_queue
      end
    in
    (* usable clauses are active from the start; forward subsumption
       between them already prunes duplicated axioms *)
    List.iter
      (fun c ->
        if not (Index.forward_subsumed idx c) then
          Index.activate idx (Index.register idx ~weight:(clause_size c) c))
      usable;
    List.iter (fun c -> add_passive c (profile c)) sos;
    let picks = ref 0 in
    (* a queued clause met by either queue is dropped, without spending a
       pick, if a clause activated after it was kept subsumes it; the same
       scan tells whether an older active clause subsumes it *)
    let take e =
      if e.Index.state <> Index.Passive then None
      else
        match Index.take idx e with
        | Index.Dropped -> None
        | standing -> Some (e, standing)
    in
    let rec pop_weight () =
      match Pq.min_elt_opt !passive with
      | None -> None
      | Some e -> (
        passive := Pq.remove e !passive;
        match take e with Some _ as taken -> taken | None -> pop_weight ())
    in
    (* An age pick takes the oldest passive clause — unless it is far
       heavier than the current best, in which case it is requeued and
       this round falls back to a weight pick.  Unguarded FIFO picks let
       one aged, variable-headed equality clause resolve against the
       whole active set and flood the clause budget; the guard defers
       such clauses until the light clauses are spent (the Pq minimum
       has risen), which is when fairness actually needs them. *)
    let age_pick_admissible w =
      match Pq.min_elt_opt !passive with
      | None -> true
      | Some m -> w <= (2 * m.Index.weight) + 4
    in
    let rec pop_age budget =
      if budget = 0 then pop_weight ()
      else
        match Queue.take_opt age_queue with
        | None -> pop_weight ()
        | Some e -> (
          (* an entry a weight pick already took is [Active]: skip it *)
          match take e with
          | None -> pop_age budget
          | Some _ as taken when age_pick_admissible e.Index.weight ->
            passive := Pq.remove e !passive;
            taken
          | Some _ ->
            Queue.add e age_queue;
            pop_age (budget - 1))
    in
    let pop_given () =
      incr picks;
      (* five weight picks, then one age pick *)
      if !picks mod 6 = 0 then
        pop_age (Queue.length age_queue)
      else pop_weight ()
    in
    let result = ref None in
    while !result = None do
      Deadline.check ();
      if Pq.is_empty !passive then result := Some Saturated
      else if !total > max_clauses then result := Some GaveUp
      else if Clock.now () > deadline then result := Some TimedOut
      else
        match pop_given () with
        | None ->
          (* only subsumed or retired clauses were left queued:
             saturation with respect to the live set *)
          result := Some Saturated
        | Some (given, Index.Subsumed) ->
          (* forward subsumption: an older active clause subsumes it *)
          Index.retire_subsumed idx given
        | Some (given, _) ->
          let gcl = given.Index.cl in
          Index.activate idx given;
          List.iter (Index.retire idx) (Index.backward_subsumed idx given);
          (* SOS restriction: the given clause (SOS-descended) resolves
             against the active set — which now includes itself, so
             self-resolvents are covered by the same retrieval.  Each new
             clause is filtered and queued as it is made; the active set
             does not change meanwhile *)
          let consider c =
            if c = [] then result := Some Proof
            else
              let p = profile c in
              if
                p.size <= max_weight && p.lits <= max_lits
                (* cheap unit filter here, once per generated clause;
                   the full subsumption check runs when a queue takes
                   the clause *)
                && not (Index.unit_subsumed idx c p)
              then add_passive c p
          in
          List.iter consider (factors gcl);
          List.iter
            (fun l ->
              List.iter
                (fun (e, l2) ->
                  match resolve_on gcl l e.Index.cl l2 with
                  | Some c -> consider c
                  | None -> ())
                (Index.retrieve_partners idx l))
            gcl
    done;
    Index.flush_stats idx;
    Trace.add "fol.kept" !total;
    count_outcome (match !result with Some r -> r | None -> assert false)
  end

(* ------------------------------------------------------------------ *)
(* Translation and refutation of a sequent                             *)
(* ------------------------------------------------------------------ *)

(* the free variables' types, inferred once per attempt: they name both
   the set variables (extensionality) and the object-sorted constants
   (the [obj] guard units) *)
let free_types (s : Sequent.t) : Typecheck.env =
  match Typecheck.infer (Sequent.to_form s) with
  | _, _, free -> free
  | exception Typecheck.Type_error _ -> Typecheck.Smap.empty

(* A renaming of clause symbols: each fresh-style symbol ([base__N],
   from {!Form.fresh_name} directly or behind a [c_]/[f_]/[p_] prefix,
   skolems included) becomes [base__k], numbered per base by first
   occurrence; every other symbol stays.  It is injective and keeps the
   image inside the [__] namespace.  The search breaks ties by symbol
   order, so without it the search would follow how far the process-wide
   fresh counter had advanced. *)
let renumber_fresh () : lit -> lit =
  let names : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let next : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let name n =
    match Hashtbl.find_opt names n with
    | Some n' -> n'
    | None ->
      let n' =
        match Sequent.fresh_base n with
        | None -> n
        | Some base ->
          let k = 1 + Option.value ~default:0 (Hashtbl.find_opt next base) in
          Hashtbl.replace next base k;
          Printf.sprintf "%s__%d" base k
      in
      Hashtbl.add names n n';
      n'
  in
  let rec term t =
    match t with V _ -> t | Fn (f, args) -> Fn (name f, List.map term args)
  in
  fun l -> { l with pred = name l.pred; args = List.map term l.args }

(* [translate] given the free variables' types, forced only when some
   clause carries an [obj] guard *)
let clauses_typed ~set_vars ~(free : Typecheck.env Lazy.t) (s : Sequent.t) :
    (clause list * clause list, string) result =
  match
    let translated_hyps = List.map (set_to_fol set_vars) s.Sequent.hyps in
    let translated_goal = set_to_fol set_vars (Form.mk_not s.Sequent.goal) in
    let hyp_clauses = List.concat_map clausify translated_hyps in
    let goal_clauses = clausify translated_goal in
    let rename = renumber_fresh () in
    let hyp_clauses = List.map (List.map rename) hyp_clauses in
    let goal_clauses = List.map (List.map rename) goal_clauses in
    (* free variables the typechecker sorts at objects satisfy the [obj]
       guards; only needed when some clause actually carries a guard.
       Sorted by renumbered constant, descending as the fold over the
       original names gave them, so this order does not follow the
       counter either *)
    let obj_var_units =
      let uses_obj =
        List.exists
          (List.exists (fun l -> l.pred = "obj"))
          (hyp_clauses @ goal_clauses)
      in
      if not uses_obj then []
      else
        Typecheck.Smap.fold
          (fun x ty acc ->
            if obj_sorted ty then rename (obj_lit true (Fn ("c_" ^ x, []))) :: acc
            else acc)
          (Lazy.force free) []
        |> List.sort (fun a b -> compare b.args a.args)
        |> List.map (fun l -> [ l ])
    in
    let hyp_clauses = obj_var_units @ hyp_clauses in
    let theory = theory_axioms (hyp_clauses @ goal_clauses) in
    let axioms = equality_axioms (theory @ hyp_clauses @ goal_clauses) in
    (axioms @ theory @ hyp_clauses, goal_clauses)
  with
  | clauses -> Ok clauses
  | exception Untranslatable what -> Error what

(** The translation of a sequent: [Ok (usable, sos)], the clause sets
    {!refute} takes (axioms, theory and hypotheses; the negated goal), or
    [Error what] when the sequent is not first-order translatable.
    [set_vars] names the variables that get extensionality treatment.
    The admission scan ({!admit}) does not run here. *)
let translate ~set_vars (s : Sequent.t) :
    (clause list * clause list, string) result =
  clauses_typed ~set_vars ~free:(lazy (free_types s)) s

(** Translate a sequent and run the refutation, exposing the raw
    saturation outcome and the limit knobs for testing; [Error what]
    means the sequent is not first-order translatable. *)
let outcome_with ?max_clauses ?max_weight ?max_lits ?timeout_s
    ?(set_vars = []) (s : Sequent.t) : (outcome, string) result =
  Result.map
    (fun (usable, sos) ->
      refute ?max_clauses ?max_weight ?max_lits ?timeout_s ~usable ~sos ())
    (translate ~set_vars s)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(* the constructs [fol_atom] and [fol_term] never translate, wherever
   they occur *)
let untranslatable (g : Form.t) : bool =
  match g with
  | Form.App (Form.Const (Form.Tree | Form.Ite), _) -> true
  | Form.App (Form.Const Form.Rtrancl, [ p; _; _ ]) -> step_field p = None
  | Form.App (Form.Const Form.Rtrancl, _) -> true
  | _ -> false

(** The admission scan: one pass over each formula of the sequent as the
    dispatcher hands it over, before any type inference or translation,
    for a [tree], an [if] term, or a reachability whose step is not a
    field.  It answers the first such subterm, but only from a formula
    whose every node is {!Simplify.inert}: the translation then meets the
    construct unchanged and fails on it, so the scan refuses nothing the
    translation would take.  [Ok ()] admits the sequent to the
    translation, which may still refuse it. *)
let admit (s : Sequent.t) : (unit, string) result =
  let exception Unsettled in
  let offending f =
    match
      Form.fold
        (fun found g ->
          if not (Simplify.inert g) then raise Unsettled;
          match found with
          | Some _ -> found
          | None -> if untranslatable g then Some g else None)
        None f
    with
    | found -> found
    | exception Unsettled -> None
  in
  match List.find_map offending (s.Sequent.hyps @ [ s.Sequent.goal ]) with
  | None -> Ok ()
  | Some g -> Error (Pprint.to_string g)

(** Does the sequent pass {!admit}?  (The prover is sound-but-incomplete
    on its fragment — it only ever answers [Valid] or [Unknown] — so
    membership means "worth asking", not "decides".) *)
let in_fragment (s : Sequent.t) : bool = Result.is_ok (admit s)

(* ------------------------------------------------------------------ *)
(* Prover interface                                                    *)
(* ------------------------------------------------------------------ *)

let timed_out_reason = "resolution wall-clock limit reached"

(* a front-end rejection, by the scan or by the translation *)
let rejected (what : string) : Sequent.verdict =
  Trace.incr "prover.fol.rejected";
  Sequent.Unknown ("not first-order translatable: " ^ what)

(* the translation and the refutation of an admitted sequent.  One type
   inference serves the set variables (unless given) and the [obj]
   units.  The wall-clock cut-off raises, so the dispatcher can tell it
   from the deterministic give-ups *)
let refute ?set_vars (s : Sequent.t) : Sequent.verdict =
  let free = lazy (free_types s) in
  let set_vars =
    match set_vars with
    | Some sv -> sv
    | None -> Instantiate.set_vars_of (Lazy.force free)
  in
  match
    Result.map
      (fun (usable, sos) -> refute ~usable ~sos ())
      (clauses_typed ~set_vars ~free s)
  with
  | Ok Proof -> Sequent.Valid
  | Ok Saturated ->
    (* saturation without equality-completeness caveats: the clause set
       is satisfiable, but our translation abstracts sorts, so stay
       safe *)
    Sequent.Unknown "resolution saturated without a proof"
  | Ok GaveUp -> Sequent.Unknown "resolution clause budget exhausted"
  | Ok TimedOut -> raise (Sequent.Resource_limited timed_out_reason)
  | Error what -> rejected what

(** Prove a sequent: the scan, then [refute].  [set_vars] names the
    variables known to denote sets (they get extensionality treatment),
    inferred from the sequent when absent.  A wall-clock cut-off answers
    [Unknown] here; only {!prover} raises {!Sequent.Resource_limited}. *)
let prove_with ?set_vars (s : Sequent.t) : Sequent.verdict =
  match admit s with
  | Error what -> rejected what
  | Ok () -> (
    try refute ?set_vars s
    with Sequent.Resource_limited why -> Sequent.Unknown why)

(* infer set-typed variables from the formula so the prover can be used
   standalone *)
let infer_set_vars (s : Sequent.t) : string list =
  Instantiate.set_vars_of (free_types s)

let prove (s : Sequent.t) : Sequent.verdict = prove_with s

(* the portfolio entry: the scan, then [refute] on the admitted sequent
   saturated with ground instances *)
let prover : Sequent.prover =
  Sequent.traced_prover
    { prover_name = "fol";
      prove =
        (fun s ->
          match admit s with
          | Error what -> rejected what
          | Ok () -> refute (Instantiate.saturate s)) }
