(** Bounded ground instantiation of sequent hypotheses.

    Verification conditions routinely contain universally quantified frame
    conditions and set equalities whose proofs only need finitely many
    ground instances — the object constants already in the sequent.  This
    module saturates a sequent with such instances so that the ground
    provers (SMT especially) can finish propositionally:

    - [ALL x (y). body] hypotheses are instantiated with all object
      candidates (arity at most 2, instance count capped);
    - set-sorted equalities and inclusions are expanded pointwise at each
      candidate ([c : S <-> c : T] for [S = T]), with memberships
      simplified so unions, differences and singletons unfold.

    One round of quantifier instantiation can expose new set equalities
    (e.g. a frame condition instantiated at a receiver), so the process
    runs for a configurable number of rounds. *)

let max_new_hyps = 500

(* object-denoting candidate terms of a sequent: variables in element or
   receiver position, except those used as field functions or sets *)
let candidates (hyps : Form.t list) (goal : Form.t) : Form.t list =
  let acc = ref [ Form.mk_null ] in
  let functions = ref [] in
  let sets = ref [] in
  let note t =
    match Form.strip_types t with
    | Form.Var _ ->
      if not (List.exists (Form.equal t) !acc) then acc := t :: !acc
    | _ -> ()
  in
  let note_fn t =
    match Form.strip_types t with
    | Form.Var x -> if not (List.mem x !functions) then functions := x :: !functions
    | _ -> ()
  in
  let note_set t =
    match Form.strip_types t with
    | Form.Var x -> if not (List.mem x !sets) then sets := x :: !sets
    | _ -> ()
  in
  let scan f =
    Form.fold
      (fun () g ->
        match g with
        | Form.App (Form.Const Form.Elem, [ x; st ]) ->
          note x;
          note_set st
        | Form.App (Form.Const (Form.Subseteq | Form.Subset), [ a; b ]) ->
          note_set a;
          note_set b
        | Form.App (Form.Const Form.FieldRead, [ fld; r ]) ->
          note_fn fld;
          note r
        | Form.App (Form.Const Form.Eq, [ a; b ]) -> (
          match Form.strip_types a, Form.strip_types b with
          | _, Form.Const Form.Null -> note a
          | Form.Const Form.Null, _ -> note b
          | _ -> ())
        | _ -> ())
      () f
  in
  List.iter scan hyps;
  scan goal;
  List.filter
    (fun t ->
      match Form.strip_types t with
      | Form.Var x -> (not (List.mem x !functions)) && not (List.mem x !sets)
      | _ -> true)
    !acc

(* set-sorted sides, detected syntactically plus via type inference *)
let set_expr_detector (hyps : Form.t list) (goal : Form.t) :
    Form.t -> bool =
  let set_vars =
    match Typecheck.infer (Form.mk_impl_chain hyps goal) with
    | _, _, free ->
      Typecheck.Smap.fold
        (fun x ty acc ->
          match ty with
          | Ftype.Set _ -> x :: acc
          | Ftype.Arrow (_, Ftype.Set _) -> x :: acc
          | _ -> acc)
        free []
    | exception Typecheck.Type_error _ -> []
  in
  fun g ->
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
let extensionalize_goal (s : Sequent.t) : Sequent.t =
  let is_set = set_expr_detector s.Sequent.hyps s.Sequent.goal in
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

(** Saturate a sequent with ground instances (the original hypotheses are
    kept). *)
let saturate ?(rounds = 3) (s : Sequent.t) : Sequent.t =
  let s = extensionalize_goal s in
  let is_set = set_expr_detector s.Sequent.hyps s.Sequent.goal in
  let cands = candidates s.Sequent.hyps s.Sequent.goal in
  let seen = ref [] in
  let fresh_facts = ref [] in
  let note f =
    (* each produced instance is a fresh tree; the memo never pays here *)
    let f = Simplify.simplify f in
    if
      (not (Form.is_true f))
      && (not (List.exists (Form.equal f) !seen))
      && List.length !fresh_facts < max_new_hyps
    then begin
      seen := f :: !seen;
      fresh_facts := f :: !fresh_facts
    end
  in
  List.iter (fun h -> seen := Simplify.simplify h :: !seen) s.Sequent.hyps;
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
            let holds g = List.exists (Form.equal (Simplify.simplify g)) !seen in
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
      let produced = expand frontier in
      let fresh =
        List.filter
          (fun f -> not (List.exists (Form.equal f) !seen))
          produced
      in
      List.iter note fresh;
      go (k - 1) fresh
    end
  in
  go rounds (List.map Simplify.simplify s.Sequent.hyps);
  { s with Sequent.hyps = s.Sequent.hyps @ List.rev !fresh_facts }
