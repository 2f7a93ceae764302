(** Resolution theorem prover for first-order logic with equality — the
    portfolio's stand-in for off-the-shelf ATPs such as Vampire [78],
    which the paper suggests for discharging client-level obligations
    about abstract sets.

    Pipeline: specification formulas are translated to first-order logic
    (set operations become pointwise [elem] facts), clausified (NNF,
    prenexing, skolemization, distribution), and refuted by a given-clause
    loop with binary resolution + factoring.  Equality is handled by
    adding congruence axioms for the symbols that occur.  The prover is
    refutation-complete for FOL but of course not a decision procedure:
    it answers [Valid] or gives up with [Unknown] when its budget runs
    out (it never claims [Invalid]). *)

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
  let is_set_expr g =
    match Form.strip_types g with
    | Form.Const (Form.EmptySet | Form.UnivSet) -> true
    | Form.App (Form.Const (Form.Union | Form.Inter | Form.Diff | Form.FiniteSet), _)
      ->
      true
    | Form.Binder (Form.Comprehension, _, _) -> true
    | Form.Var x -> List.mem x set_exprs_hint
    | Form.App (Form.Const Form.FieldRead, [ fld; _ ]) -> (
      match Form.strip_types fld with
      | Form.Var x -> List.mem x set_exprs_hint
      | _ -> false)
    | _ -> false
  in
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

(* atoms: elem(x, S), eq(a, b), or uninterpreted predicate applications *)
let rec fol_term (universals : string list) (f : Form.t) : term =
  match Form.strip_types f with
  | Form.Var x -> if List.mem x universals then V x else Fn ("c_" ^ x, [])
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
   translation, and add sound (not complete) closure axioms. *)
let functional_step (universals : string list) (p : Form.t) : term option =
  match Form.strip_types p with
  | Form.Binder (Form.Lambda, [ (u, _); (v, _) ], body) -> (
    match Form.strip_types body with
    | Form.App (Form.Const Form.Eq, [ lhs; Form.Var v' ]) when v' = v -> (
      match Form.strip_types lhs with
      | Form.App (Form.Const Form.FieldRead, [ fld; Form.Var u' ])
        when u' = u && not (List.mem u (Form.fv_list fld)) ->
        (* step function = the field (possibly an updated field term) *)
        Some (fol_term universals fld)
      | _ -> None)
    | _ -> None)
  | _ -> None

let fol_atom (universals : string list) (f : Form.t) : lit =
  match Form.strip_types f with
  | Form.App (Form.Const Form.Rtrancl, [ p; a; b ]) -> (
    match functional_step universals p with
    | Some step ->
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
   {!theory_axioms} and the free-variable units in {!prove_with}.  [Tvar]
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
      let cs = clausify_matrix (List.map fst universals) matrix in
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
                if List.mem x vs && not (List.mem x neg_elem_vars) then
                  Some (obj_lit false (V x))
                else None)
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
    let refl = [ eq (V "x") (V "x") ] in
    let sym = [ neq (V "x") (V "y"); eq (V "y") (V "x") ] in
    let trans =
      [ neq (V "x") (V "y"); neq (V "y") (V "z"); eq (V "x") (V "z") ]
    in
    let congruences =
      Hashtbl.fold
        (fun (f, arity) () acc ->
          (* x_i = y_i ... -> f(xs) = f(ys) *)
          let xs = List.init arity (fun i -> V (Printf.sprintf "x%d" i)) in
          let ys = List.init arity (fun i -> V (Printf.sprintf "y%d" i)) in
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
            let xs = List.init arity (fun i -> V (Printf.sprintf "x%d" i)) in
            let ys = List.init arity (fun i -> V (Printf.sprintf "y%d" i)) in
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
  let rt_axioms =
    if not (has_pred "rt") then []
    else
      [ (* reflexivity *)
        [ rt (V "f") (V "x") (V "x") ];
        (* build-up: step then closure *)
        [ neq (read (V "f") (V "x")) (V "y");
          nrt (V "f") (V "y") (V "z");
          rt (V "f") (V "x") (V "z") ];
        (* transitivity *)
        [ nrt (V "f") (V "x") (V "y");
          nrt (V "f") (V "y") (V "z");
          rt (V "f") (V "x") (V "z") ];
        (* functional unfolding: rt(x,y) -> x = y \/ rt(step(x), y) *)
        [ nrt (V "f") (V "x") (V "y");
          eq (V "x") (V "y");
          rt (V "f") (read (V "f") (V "x")) (V "y") ];
        (* nothing beyond null *)
        [ nrt (V "f") null (V "y"); eq (V "y") null ];
      ]
  in
  let write_axioms =
    if not (has_fn "write") then []
    else
      [ (* read over write, same location *)
        [ eq (read (Fn ("write", [ V "f"; V "x"; V "v" ])) (V "x")) (V "v") ];
        (* read over write, different location *)
        [ eq (V "y") (V "x");
          eq
            (read (Fn ("write", [ V "f"; V "x"; V "v" ])) (V "y"))
            (read (V "f") (V "y")) ];
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
      let rec ground = function
        | V _ -> false
        | Fn (_, args) -> List.for_all ground args
      in
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
      :: [ obj_lit true (read (V "g") (V "x")) ]
      :: List.map (fun t -> [ obj_lit true t ]) elem_members
    end
  in
  rt_axioms @ write_axioms @ null_field_axioms @ obj_axioms

(* ------------------------------------------------------------------ *)
(* Given-clause resolution loops                                       *)
(* ------------------------------------------------------------------ *)

(** [GaveUp] is the deterministic clause cap; [TimedOut] is the
    wall-clock cut-off, whose verdict depends on the host and its load. *)
type outcome = Proof | Saturated | GaveUp | TimedOut

(** Which saturation engine runs a refutation.  [Indexed] is the default:
    discrimination-tree partner retrieval, full forward/backward
    subsumption and an age–weight passive queue.  [Naive] is the original
    textbook loop, kept as the A/B baseline for the bench guard and the
    fuzzer's engine differential. *)
type engine = Indexed | Naive

(** The original engine: O(active) partner scans, unit-only forward
    subsumption, weight-only passive queue. *)
let refute_naive ?(max_clauses = 4000) ?(max_weight = 60) ?(max_lits = 6)
    ?(timeout_s = 1.5) ~(usable : clause list) ~(sos : clause list) () :
    outcome =
  let deadline = Clock.now () +. timeout_s in
  let usable = List.filter (fun c -> not (is_tautology c)) (List.map normalize_clause usable) in
  let sos = List.map normalize_clause sos in
  if List.exists (fun c -> c = []) (usable @ sos) then Proof
  else begin
    let module Pq = Set.Make (struct
      type t = int * int * clause

      let compare = compare
    end) in
    let counter = ref 0 in
    let passive = ref Pq.empty in
    let seen = Hashtbl.create 256 in
    let add_passive c =
      if not (Hashtbl.mem seen c) && not (is_tautology c) then begin
        Hashtbl.add seen c ();
        incr counter;
        passive := Pq.add (clause_size c, !counter, c) !passive
      end
    in
    (* passive holds only SOS clauses; usable clauses are active from the
       start *)
    List.iter add_passive sos;
    let active_usable = ref usable in
    let active_sos = ref [] in
    let total = ref (List.length sos) in
    let result = ref None in
    let unit_subsumed c =
      let units =
        List.filter (fun a -> List.length a = 1) (!active_usable @ !active_sos)
      in
      List.exists (fun u -> subsumes u c) units
    in
    while !result = None do
      Deadline.check ();
      if Pq.is_empty !passive then result := Some Saturated
      else if !total > max_clauses then result := Some GaveUp
      else if Clock.now () > deadline then result := Some TimedOut
      else begin
        let ((_, _, given) as entry) = Pq.min_elt !passive in
        passive := Pq.remove entry !passive;
        if unit_subsumed given && clause_size given > 3 then ()
        else begin
          (* SOS restriction: given (an SOS clause) resolves against
             everything active *)
          let partners = !active_usable @ !active_sos in
          let new_clauses =
            List.map
              (List.sort_uniq compare)
              (factors given
              @ List.concat_map (fun a -> resolvents given a) partners
              @ resolvents given given)
          in
          active_sos := given :: !active_sos;
          List.iter
            (fun c ->
              if c = [] then result := Some Proof
              else if
                clause_size c <= max_weight
                && clause_lits c <= max_lits
                && not (unit_subsumed c)
              then begin
                incr total;
                add_passive c
              end)
            new_clauses
        end
      end
    done;
    match !result with Some r -> r | None -> assert false
  end

(** The indexed engine.  Same inference rules and SOS restriction as
    {!refute_naive}, but:

    - resolution partners come from a discrimination-tree index over the
      active literals instead of a scan of every active clause;
    - forward subsumption is full-clause (a new or popped clause subsumed
      by any active clause is discarded, not just unit-subsumed ones) and
      backward subsumption retires every active {e and passive} clause the
      newly activated given clause subsumes;
    - the passive queue alternates between best-weight and oldest-age
      picks at [age_weight_ratio] weight picks per age pick, so old heavy
      clauses cannot starve;
    - the dedup table is keyed on {!Folclause.normalize_clause}'s
      variable-normalized form, so renamed variants collapse. *)
let refute_indexed ?(max_clauses = 4000) ?(max_weight = 60) ?(max_lits = 6)
    ?(timeout_s = 1.5) ?(age_weight_ratio = 5) ~(usable : clause list)
    ~(sos : clause list) () : outcome =
  let deadline = Clock.now () +. timeout_s in
  let usable =
    List.filter (fun c -> not (is_tautology c)) (List.map normalize_clause usable)
  in
  let sos = List.map normalize_clause sos in
  if List.exists (fun c -> c = []) (usable @ sos) then Proof
  else begin
    let idx = Index.create () in
    let module Pq = Set.Make (struct
      type t = int * int * Index.entry

      let compare (w1, i1, _) (w2, i2, _) = compare (w1, i1) (w2, i2)
    end) in
    let passive = ref Pq.empty in
    let age_queue : Index.entry Queue.t = Queue.create () in
    let seen = Hashtbl.create 256 in
    let total = ref 0 in
    (* [max_clauses] bounds clauses actually {e kept}: duplicates the
       dedup table absorbs and tautologies cost nothing (the naive
       engine charges its budget for every generated clause) *)
    let add_passive c =
      if Hashtbl.mem seen c then Index.note_dedup idx
      else if not (is_tautology c) then begin
        Hashtbl.add seen c ();
        incr total;
        let e = Index.register idx c in
        passive := Pq.add (e.Index.weight, e.Index.id, e) !passive;
        Queue.add e age_queue
      end
    in
    (* usable clauses are active from the start; forward subsumption
       between them already prunes duplicated axioms *)
    List.iter
      (fun c ->
        if Index.forward_subsumed idx c = None then
          Index.activate idx (Index.register idx c))
      usable;
    List.iter add_passive sos;
    let picks = ref 0 in
    let rec pop_weight () =
      match Pq.min_elt_opt !passive with
      | None -> None
      | Some ((_, _, e) as entry) ->
        passive := Pq.remove entry !passive;
        if e.Index.state = Index.Passive then Some e else pop_weight ()
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
      | Some (wmin, _, _) -> w <= (2 * wmin) + 4
    in
    let rec pop_age budget =
      if budget = 0 then pop_weight ()
      else
        match Queue.take_opt age_queue with
        | None -> pop_weight ()
        | Some e ->
          if e.Index.state <> Index.Passive then pop_age budget
          else if age_pick_admissible e.Index.weight then begin
            passive := Pq.remove (e.Index.weight, e.Index.id, e) !passive;
            Some e
          end
          else begin
            Queue.add e age_queue;
            pop_age (budget - 1)
          end
    in
    let pop_given () =
      incr picks;
      if age_weight_ratio > 0 && !picks mod (age_weight_ratio + 1) = 0 then
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
          (* only retired (back-subsumed) clauses were left queued:
             saturation with respect to the live set *)
          result := Some Saturated
        | Some given ->
          let gcl = given.Index.cl in
          (match Index.forward_subsumed idx gcl with
          | Some _ -> Index.retire idx given
          | None ->
            Index.activate idx given;
            List.iter (Index.retire idx) (Index.backward_subsumed idx given);
            (* SOS restriction: the given clause (SOS-descended) resolves
               against the active set — which now includes itself, so
               self-resolvents are covered by the same retrieval *)
            let new_clauses =
              factors gcl
              @ List.concat_map
                  (fun l ->
                    List.filter_map
                      (fun (e, l2) -> resolve_on gcl l e.Index.cl l2)
                      (Index.retrieve_partners idx l))
                  gcl
            in
            List.iter
              (fun c ->
                if c = [] then result := Some Proof
                else if
                  clause_size c <= max_weight
                  && clause_lits c <= max_lits
                  (* cheap unit filter here, once per generated clause;
                     the full subsumption check runs at activation *)
                  && Index.unit_subsumed idx c = None
                then add_passive c)
              new_clauses)
    done;
    Index.flush_stats idx;
    match !result with Some r -> r | None -> assert false
  end

(** Refute [usable] (axioms + hypotheses, assumed consistent) against the
    set-of-support [sos] (the negated goal): every inference uses at least
    one SOS-descended parent, the classic Wos-style strategy that keeps
    the equality axioms from feeding on themselves. *)
let refute ?(engine = Indexed) ?max_clauses ?max_weight ?max_lits ?timeout_s
    ?age_weight_ratio ~(usable : clause list) ~(sos : clause list) () :
    outcome =
  match engine with
  | Indexed ->
    refute_indexed ?max_clauses ?max_weight ?max_lits ?timeout_s
      ?age_weight_ratio ~usable ~sos ()
  | Naive ->
    refute_naive ?max_clauses ?max_weight ?max_lits ?timeout_s ~usable ~sos ()

(* ------------------------------------------------------------------ *)
(* Prover interface                                                    *)
(* ------------------------------------------------------------------ *)

(* Bounded ground instantiation: universally quantified hypotheses are
   instantiated with the object-denoting constants of the sequent.  The
   resulting ground unit facts give resolution short proofs where deep
   unification chains would blow the budget. *)
let object_candidates (hyps : Form.t list) (goal : Form.t) : Form.t list =
  let acc = ref [ Form.mk_null ] in
  let note t =
    match Form.strip_types t with
    | Form.Var x when not (String.contains x '.') ->
      if not (List.exists (Form.equal t) !acc) then acc := t :: !acc
    | _ -> ()
  in
  let scan f =
    ignore
      (Form.fold
         (fun () g ->
           match g with
           | Form.App (Form.Const Form.Elem, [ x; _ ]) -> note x
           | Form.App (Form.Const Form.FieldRead, [ _; r ]) -> note r
           | Form.App (Form.Const Form.Eq, [ a; b ]) ->
             (match Form.strip_types a, Form.strip_types b with
             | _, Form.Const Form.Null -> note a
             | Form.Const Form.Null, _ -> note b
             | _ -> ())
           | _ -> ())
         () f)
  in
  List.iter scan hyps;
  scan goal;
  !acc

let instantiate_foralls (cands : Form.t list) (hyps : Form.t list) :
    Form.t list =
  let max_instances_per_hyp = 80 in
  List.concat_map
    (fun h ->
      match Form.strip_types h with
      | Form.Binder (Form.Forall, vars, body)
        when List.length vars <= 2
             && List.for_all (fun (_, ty) -> obj_sorted ty) vars ->
        let n = List.length cands in
        let rec tuples k =
          if k = 0 then [ [] ]
          else
            List.concat_map
              (fun rest -> List.map (fun c -> c :: rest) cands)
              (tuples (k - 1))
        in
        let arity = List.length vars in
        if int_of_float (float_of_int n ** float_of_int arity)
           > max_instances_per_hyp
        then []
        else
          List.filter_map
            (fun tuple ->
              let sub = List.map2 (fun (x, _) c -> (x, c)) vars tuple in
              (* one fresh tree per instantiation: the memo never pays here *)
              let inst = Simplify.simplify (Form.subst_list sub body) in
              if Form.is_true inst then None else Some inst)
            (tuples arity)
      | _ -> [])
    hyps

(** Translate a sequent and run the refutation, exposing the raw
    saturation outcome (and the engine / limit knobs) for differential
    testing and benchmarking; [Error what] means the sequent is not
    first-order translatable. *)
let outcome_with ?engine ?max_clauses ?max_weight ?max_lits ?timeout_s
    ?age_weight_ratio ?(set_vars = []) (s : Sequent.t) :
    (outcome, string) result =
  match
    let translated_hyps = List.map (set_to_fol set_vars) s.Sequent.hyps in
    let translated_goal = set_to_fol set_vars (Form.mk_not s.Sequent.goal) in
    let cands = object_candidates translated_hyps translated_goal in
    let instances = instantiate_foralls cands translated_hyps in
    let hyp_clauses =
      List.concat_map clausify (translated_hyps @ instances)
    in
    let goal_clauses = clausify translated_goal in
    (* free variables the typechecker sorts at objects satisfy the [obj]
       guards; only needed when some clause actually carries a guard *)
    let obj_var_units =
      let uses_obj =
        List.exists
          (List.exists (fun l -> l.pred = "obj"))
          (hyp_clauses @ goal_clauses)
      in
      if not uses_obj then []
      else
        match Typecheck.infer (Sequent.to_form s) with
        | exception Typecheck.Type_error _ -> []
        | _, _, free ->
          Typecheck.Smap.fold
            (fun x ty acc ->
              if obj_sorted ty then
                [ obj_lit true (Fn ("c_" ^ x, [])) ] :: acc
              else acc)
            free []
    in
    let hyp_clauses = obj_var_units @ hyp_clauses in
    let theory = theory_axioms (hyp_clauses @ goal_clauses) in
    let axioms = equality_axioms (theory @ hyp_clauses @ goal_clauses) in
    refute ?engine ?max_clauses ?max_weight ?max_lits ?timeout_s
      ?age_weight_ratio
      ~usable:(axioms @ theory @ hyp_clauses)
      ~sos:goal_clauses ()
  with
  | o -> Ok o
  | exception Untranslatable what -> Error what

let timed_out_reason = "resolution wall-clock limit reached"

(* the portfolio entry: the wall-clock cut-off raises, so the dispatcher
   can tell it from the deterministic give-ups *)
let prove_limited ?engine ~set_vars (s : Sequent.t) : Sequent.verdict =
  match outcome_with ?engine ~set_vars s with
  | Ok Proof -> Sequent.Valid
  | Ok Saturated ->
    (* saturation without equality-completeness caveats: the clause set is
       satisfiable, but our translation abstracts sorts, so stay safe *)
    Sequent.Unknown "resolution saturated without a proof"
  | Ok GaveUp -> Sequent.Unknown "resolution clause budget exhausted"
  | Ok TimedOut -> raise (Sequent.Resource_limited timed_out_reason)
  | Error what -> Sequent.Unknown ("not first-order translatable: " ^ what)

(** Prove a sequent; [set_vars] names the variables known to denote sets
    (they get extensionality treatment).  A wall-clock cut-off answers
    [Unknown] here; only {!prover} raises {!Sequent.Resource_limited}. *)
let prove_with ?engine ?(set_vars = []) (s : Sequent.t) : Sequent.verdict =
  try prove_limited ?engine ~set_vars s
  with Sequent.Resource_limited why -> Sequent.Unknown why

(* infer set-typed variables from the formula so the prover can be used
   standalone *)
let infer_set_vars (s : Sequent.t) : string list =
  let f = Sequent.to_form s in
  match Typecheck.infer f with
  | _, _, free ->
    Typecheck.Smap.fold
      (fun x ty acc ->
        match ty with
        | Ftype.Set _ -> x :: acc
        | Ftype.Arrow (_, Ftype.Set _) -> x :: acc (* per-instance set *)
        | _ -> acc)
      free []
  | exception Typecheck.Type_error _ -> []

let prove (s : Sequent.t) : Sequent.verdict =
  prove_with ~set_vars:(infer_set_vars s) s

(** Does the whole sequent translate to first-order clauses?  (The prover
    is sound-but-incomplete on its fragment — it only ever answers [Valid]
    or [Unknown] — so membership means "worth asking", not "decides".) *)
let in_fragment (s : Sequent.t) : bool =
  let set_vars = infer_set_vars s in
  match
    List.iter
      (fun f -> ignore (clausify (set_to_fol set_vars f)))
      (Form.mk_not s.Sequent.goal :: s.Sequent.hyps)
  with
  | () -> true
  | exception Untranslatable _ -> false

let prover : Sequent.prover =
  Sequent.traced_prover
    { prover_name = "fol";
      prove = (fun s -> prove_limited ~set_vars:(infer_set_vars s) s) }
