(** Bounded ground instantiation of sequent hypotheses.

    Verification conditions routinely contain universally quantified frame
    conditions and set equalities whose proofs only need finitely many
    ground instances — the object constants already in the sequent.  This
    module saturates a sequent with such instances so that the ground
    provers can finish propositionally.  smt and fol saturate their own
    input; bapa (and the MONA route, outside the portfolio) sees the
    sequent without the instances:

    - [ALL x (y). body] hypotheses are instantiated with all object
      candidates: [null] and the sequent's free object constants (arity
      at most 2, instance count capped);
    - set-sorted equalities and inclusions are expanded pointwise at each
      candidate ([c : S <-> c : T] for [S = T]), with memberships
      simplified so unions, differences and singletons unfold.

    One round of quantifier instantiation can expose new set equalities
    (e.g. a frame condition instantiated at a receiver), so the process
    runs for three rounds. *)

let max_new_hyps = 500

(* object-denoting candidate terms of a sequent: its free variables in
   element or receiver position, except those used as field functions or
   sets.  A name bound by a quantifier is not a constant of the sequent. *)
let candidates (hyps : Form.t list) (goal : Form.t) : Form.t list =
  let acc = ref [ Form.mk_null ] in
  let functions = ref [] in
  let sets = ref [] in
  let free_name bound t =
    match Form.strip_types t with
    | Form.Var x when not (Form.Sset.mem x bound) -> Some x
    | _ -> None
  in
  let note bound t =
    match free_name bound t with
    | Some _ -> if not (List.exists (Form.equal t) !acc) then acc := t :: !acc
    | None -> ()
  in
  let note_fn bound t =
    match free_name bound t with
    | Some x -> if not (List.mem x !functions) then functions := x :: !functions
    | None -> ()
  in
  let note_set bound t =
    match free_name bound t with
    | Some x -> if not (List.mem x !sets) then sets := x :: !sets
    | None -> ()
  in
  let rec scan bound g =
    (match g with
    | Form.App (Form.Const Form.Elem, [ x; st ]) ->
      note bound x;
      note_set bound st
    | Form.App (Form.Const (Form.Subseteq | Form.Subset), [ a; b ]) ->
      note_set bound a;
      note_set bound b
    | Form.App (Form.Const Form.FieldRead, [ fld; r ]) ->
      note_fn bound fld;
      note bound r
    | Form.App (Form.Const Form.Eq, [ a; b ]) -> (
      match Form.strip_types a, Form.strip_types b with
      | _, Form.Const Form.Null -> note bound a
      | Form.Const Form.Null, _ -> note bound b
      | _ -> ())
    | _ -> ());
    match g with
    | Form.Var _ | Form.Const _ -> ()
    | Form.App (h, args) ->
      scan bound h;
      List.iter (scan bound) args
    | Form.Binder (_, vars, body) ->
      scan (List.fold_left (fun b (x, _) -> Form.Sset.add x b) bound vars) body
    | Form.TypedForm (h, _) -> scan bound h
  in
  List.iter (scan Form.Sset.empty) hyps;
  scan Form.Sset.empty goal;
  List.filter
    (fun t ->
      match Form.strip_types t with
      | Form.Var x -> (not (List.mem x !functions)) && not (List.mem x !sets)
      | _ -> true)
    !acc

(** The free variables that denote sets, from their inferred types: a
    set, or a field whose value at each object is a set. *)
let set_vars_of (free : Typecheck.env) : string list =
  Typecheck.Smap.fold
    (fun x ty acc ->
      match ty with
      | Ftype.Set _ -> x :: acc
      | Ftype.Arrow (_, Ftype.Set _) -> x :: acc
      | _ -> acc)
    free []

(** Is [g] set-sorted?  Set literals, operators and comprehensions are;
    so are a variable that [set_vars] names and a read of such a field. *)
let is_set_expr (set_vars : string list) (g : Form.t) : bool =
  match Form.strip_types g with
  | Form.Const (Form.EmptySet | Form.UnivSet) -> true
  | Form.App
      (Form.Const (Form.Union | Form.Inter | Form.Diff | Form.FiniteSet), _)
    ->
    true
  | Form.Binder (Form.Comprehension, _, _) -> true
  | Form.Var x -> List.mem x set_vars
  | Form.App (Form.Const Form.FieldRead, [ fld; _ ]) -> (
    match Form.strip_types fld with
    | Form.Var x -> List.mem x set_vars
    | _ -> false)
  | _ -> false

(* set-sorted sides, detected syntactically plus via type inference *)
let set_expr_detector (hyps : Form.t list) (goal : Form.t) :
    Form.t -> bool =
  let set_vars =
    match Typecheck.infer (Form.mk_impl_chain hyps goal) with
    | _, _, free -> set_vars_of free
    | exception Typecheck.Type_error _ -> []
  in
  is_set_expr set_vars

(* pointwise expansion of one set fact at one candidate *)
let pointwise_at (c : Form.t) (h : Form.t) (is_set : Form.t -> bool) :
    Form.t option =
  match Form.strip_types h with
  | Form.App (Form.Const Form.Eq, [ a; b ]) when is_set a || is_set b ->
    Some (Form.mk_iff (Form.mk_elem c a) (Form.mk_elem c b))
  | Form.App (Form.Const Form.Subseteq, [ a; b ]) ->
    Some (Form.mk_impl (Form.mk_elem c a) (Form.mk_elem c b))
  | _ -> None

let instantiate_forall (cands : Form.t list) (h : Form.t) : Form.t list =
  match Form.strip_types h with
  | Form.Binder (Form.Forall, vars, body) when List.length vars <= 2 ->
    let arity = List.length vars in
    let rec tuples k =
      if k = 0 then [ [] ]
      else
        List.concat_map
          (fun rest -> List.map (fun c -> c :: rest) cands)
          (tuples (k - 1))
    in
    if List.length cands > 10 && arity = 2 then []
    else
      List.map
        (fun tuple ->
          let sub = List.map2 (fun (x, _) c -> (x, c)) vars tuple in
          Form.subst_list sub body)
        (tuples arity)
  | _ -> []

(** Replace a set-sorted goal equality/inclusion by its pointwise version
    at a fresh witness constant (extensionality): [S = T] becomes
    [w : S <-> w : T].  Valid iff the original is valid, and it exposes
    the witness to ground instantiation. *)
let extensionalize_goal (is_set : Form.t -> bool) (s : Sequent.t) : Sequent.t =
  let w () = Form.Var (Form.fresh_name "witness") in
  match Form.strip_types s.Sequent.goal with
  | Form.App (Form.Const Form.Eq, [ a; b ]) when is_set a || is_set b ->
    let w = w () in
    { s with
      Sequent.goal =
        (* fresh witness name: memoizing could never hit, stay plain *)
        Simplify.simplify
          (Form.mk_iff (Form.mk_elem w a) (Form.mk_elem w b))
    }
  | Form.App (Form.Const Form.Subseteq, [ a; b ]) ->
    let w = w () in
    { s with
      Sequent.goal =
        Simplify.simplify
          (Form.mk_impl (Form.mk_elem w a) (Form.mk_elem w b))
    }
  | _ -> s

(** Saturate a sequent with ground instances: the result holds the
    original hypotheses followed by the instances made.  The trace span
    keeps the name [dispatch:saturate] that e2ebench's
    [dispatch.saturate_s] reads. *)
let saturate (s : Sequent.t) : Sequent.t =
  Trace.with_span ~cat:"dispatch" "saturate" @@ fun () ->
  let is_set = set_expr_detector s.Sequent.hyps s.Sequent.goal in
  let s = extensionalize_goal is_set s in
  let cands = candidates s.Sequent.hyps s.Sequent.goal in
  (* every simplified hypothesis so far, original or produced *)
  let seen = Form.Tbl.create 64 in
  let fresh_facts = ref [] in
  let n_fresh = ref 0 in
  let note f =
    (* each produced instance is a fresh tree; the memo never pays here *)
    let f = Simplify.simplify f in
    if
      (not (Form.is_true f))
      && (not (Form.Tbl.mem seen f))
      && !n_fresh < max_new_hyps
    then begin
      Form.Tbl.replace seen f ();
      fresh_facts := f :: !fresh_facts;
      incr n_fresh
    end
  in
  let simplified = List.map Simplify.simplify s.Sequent.hyps in
  List.iter (fun h -> Form.Tbl.replace seen h ()) simplified;
  let expand (frontier : Form.t list) : Form.t list =
    let produced = ref [] in
    List.iter
      (fun h ->
        let insts = instantiate_forall cands h in
        let points =
          List.filter_map (fun c -> pointwise_at c h is_set) cands
        in
        (* unit propagation: an implication whose antecedent conjuncts are
           all established releases its consequent's conjuncts *)
        let propagated =
          match Form.strip_types h with
          | Form.App (Form.Const Form.Impl, [ a; b ]) ->
            let holds g = Form.Tbl.mem seen (Simplify.simplify g) in
            if List.for_all holds (Form.conjuncts a) then Form.conjuncts b
            else []
          | _ -> []
        in
        List.iter
          (fun f ->
            let f = Simplify.simplify f in
            if not (Form.is_true f) then produced := f :: !produced)
          (insts @ points @ propagated))
      frontier;
    !produced
  in
  let rec go k frontier =
    if k = 0 || frontier = [] then ()
    else begin
      let fresh =
        List.filter (fun f -> not (Form.Tbl.mem seen f)) (expand frontier)
      in
      List.iter note fresh;
      go (k - 1) fresh
    end
  in
  go 3 simplified;
  { s with Sequent.hyps = s.Sequent.hyps @ List.rev !fresh_facts }
