(** Logical simplification used throughout the pipeline.

    The verification-condition generator produces large, shallow formulas
    full of [fieldWrite]/[fieldRead] redexes, comprehension memberships and
    beta-redexes.  These rewrites put formulas into the executable-set
    fragment that the decision procedures expect. *)

open Form

(* ------------------------------------------------------------------ *)
(* Beta reduction and set-theoretic rewriting                          *)
(* ------------------------------------------------------------------ *)

let rec rewrite_step f =
  match f with
  (* beta: (% x1 .. xn. body) a1 .. an *)
  | App (Binder (Lambda, vars, body), args)
    when List.length args >= List.length vars ->
    let n = List.length vars in
    let head_args, rest =
      let rec split k xs =
        if k = 0 then ([], xs)
        else
          match xs with
          | x :: tl ->
            let a, b = split (k - 1) tl in
            (x :: a, b)
          | [] -> assert false
      in
      split n args
    in
    let pairs = List.map2 (fun (x, _) a -> (x, a)) vars head_args in
    Some (mk_app (subst_list pairs body) rest)
  (* ite-lifting: predicates over conditional terms become conditional
     formulas, which the boolean layers of the provers handle *)
  | App (Const ((Eq | Elem | Le | Lt | Ge | Gt | Subseteq) as p), [ a; b ])
    when is_ite a || is_ite b -> (
    match strip_types a, strip_types b with
    | App (Const Ite, [ c; x; y ]), _ ->
      Some (mk_ite c (App (Const p, [ x; b ])) (App (Const p, [ y; b ])))
    | _, App (Const Ite, [ c; x; y ]) ->
      Some (mk_ite c (App (Const p, [ a; x ])) (App (Const p, [ a; y ])))
    | _ -> None)
  (* membership in comprehension: x : {y. P}  ~~>  P[y := x] *)
  | App (Const Elem, [ x; comp ]) -> begin
    match strip_types comp with
    | Binder (Comprehension, [ (y, _) ], p) -> Some (subst1 y x p)
    | App (Const FiniteSet, elems) ->
      Some (mk_or (List.map (fun e -> mk_eq x e) elems))
    | Const EmptySet -> Some mk_false
    | Const UnivSet -> Some mk_true
    | App (Const Union, [ a; b ]) ->
      Some (mk_or [ mk_elem x a; mk_elem x b ])
    | App (Const Inter, [ a; b ]) ->
      Some (mk_and [ mk_elem x a; mk_elem x b ])
    | App (Const (Diff | Minus), [ a; b ]) ->
      (* the right operand of [:] is a set, so [-] must be set difference *)
      Some (mk_and [ mk_elem x a; mk_not (mk_elem x b) ])
    | _ -> None
  end
  (* select-of-store on fields *)
  | App (Const FieldRead, [ fw; x ]) -> begin
    match strip_types fw with
    | App (Const FieldWrite, [ f0; y; v ]) ->
      (* fieldRead (fieldWrite f y v) x = if x = y then v else fieldRead f x *)
      if equal x y then Some v
      else Some (mk_ite (mk_eq x y) v (mk_field_read f0 x))
    | Binder (Lambda, _, _) -> Some (mk_app fw [ x ])
    | _ -> None
  end
  (* select-of-store on arrays *)
  | App (Const ArrayRead, [ aw; o; i ]) -> begin
    match strip_types aw with
    | App (Const ArrayWrite, [ a0; o'; i'; v ]) ->
      if equal o o' && equal i i' then Some v
      else
        Some
          (mk_ite
             (mk_and [ mk_eq o o'; mk_eq i i' ])
             v
             (mk_array_read a0 o i))
    | _ -> None
  end
  (* double negation / trivial propositional laws are handled by the smart
     constructors; normalize via them *)
  | App (Const And, fs) -> simple_change (mk_and fs) f
  | App (Const Or, fs) -> simple_change (mk_or fs) f
  | App (Const Not, [ g ]) -> simple_change (mk_not g) f
  | App (Const Impl, [ a; b ]) ->
    if is_true a || is_false a || is_true b then Some (mk_impl a b)
    else if is_false b then Some (mk_not a)
    else if equal a b then Some mk_true
    else None
  | App (Const Iff, [ a; b ]) ->
    (* [mk_iff] folds all four boolean-constant cases; only the
       alpha-equality collapse is extra knowledge here *)
    if equal a b then Some mk_true else simple_change (mk_iff a b) f
  | App (Const Ite, [ c; a; b ]) ->
    if is_true c then Some a
    else if is_false c then Some b
    else if equal a b then Some a
    else None
  | App (Const Eq, [ a; b ]) when equal a b -> Some mk_true
  | App (Const Eq, [ a; b ]) when is_formula_like a || is_formula_like b ->
    (* boolean-sorted equality, e.g. result = (content = {}) *)
    Some (mk_iff a b)
  (* subset via membership is kept; empty-set facts fold away *)
  | App (Const Union, [ a; b ]) -> simple_change (mk_union a b) f
  | App (Const Diff, [ a; b ]) -> simple_change (mk_diff a b) f
  | App (Const Subseteq, [ a; b ]) when equal a b -> Some mk_true
  | _ -> None

and is_ite f =
  match strip_types f with App (Const Ite, _) -> true | _ -> false

and is_formula_like f =
  match strip_types f with
  | App
      ( Const
          ( Eq | Elem | Subseteq | Subset | And | Or | Not | Impl | Iff | Lt
          | Le | Gt | Ge ),
        _ )
  | Const (BoolLit _) ->
    true
  | _ -> false

and simple_change candidate original =
  if candidate == original || equal candidate original then None
  else Some candidate

(** Exhaustive bottom-up rewriting with {!rewrite_step}; terminates because
    every rule strictly reduces a well-founded measure (redex count / size
    on ite-free paths). *)
let simplify f =
  let changed = ref true in
  let apply g =
    match rewrite_step g with
    | Some g' ->
      changed := true;
      g'
    | None -> g
  in
  let rec loop g fuel =
    if fuel = 0 then g
    else begin
      changed := false;
      let g' = map_bottom_up apply g in
      if !changed then loop g' (fuel - 1) else g'
    end
  in
  loop f 64

(* ------------------------------------------------------------------ *)
(* Negation normal form                                                *)
(* ------------------------------------------------------------------ *)

let rec nnf f =
  match strip_types f with
  | App (Const Not, [ g ]) -> nnf_neg g
  | App (Const And, fs) -> mk_and (List.map nnf fs)
  | App (Const Or, fs) -> mk_or (List.map nnf fs)
  | App (Const Impl, [ a; b ]) -> mk_or [ nnf_neg a; nnf b ]
  | App (Const Iff, [ a; b ]) ->
    mk_or [ mk_and [ nnf a; nnf b ]; mk_and [ nnf_neg a; nnf_neg b ] ]
  | Binder (Forall, vars, body) -> mk_forall vars (nnf body)
  | Binder (Exists, vars, body) -> mk_exists vars (nnf body)
  | g -> g

and nnf_neg f =
  match strip_types f with
  | App (Const Not, [ g ]) -> nnf g
  | App (Const And, fs) -> mk_or (List.map nnf_neg fs)
  | App (Const Or, fs) -> mk_and (List.map nnf_neg fs)
  | App (Const Impl, [ a; b ]) -> mk_and [ nnf a; nnf_neg b ]
  | App (Const Iff, [ a; b ]) ->
    mk_or [ mk_and [ nnf a; nnf_neg b ]; mk_and [ nnf_neg a; nnf b ] ]
  | Binder (Forall, vars, body) -> mk_exists vars (nnf_neg body)
  | Binder (Exists, vars, body) -> mk_forall vars (nnf_neg body)
  | Const (BoolLit b) -> mk_bool (not b)
  | g -> mk_not g

(* ------------------------------------------------------------------ *)
(* Prenex form and skolemization (used by the FOL back end)            *)
(* ------------------------------------------------------------------ *)

(** Pull quantifiers of an NNF formula to the front.  Binder variables are
    renamed apart first. *)
let prenex f =
  let rec pull f =
    match strip_types f with
    | Binder (Forall, vars, body) ->
      let qs, m = pull body in
      (List.map (fun v -> (`All, v)) vars @ qs, m)
    | Binder (Exists, vars, body) ->
      let qs, m = pull body in
      (List.map (fun v -> (`Ex, v)) vars @ qs, m)
    | App (Const And, fs) ->
      let parts = List.map pull_renamed fs in
      (List.concat_map fst parts, mk_and (List.map snd parts))
    | App (Const Or, fs) ->
      let parts = List.map pull_renamed fs in
      (List.concat_map fst parts, mk_or (List.map snd parts))
    | g -> ([], g)
  and pull_renamed f =
    (* rename bound variables apart to allow hoisting *)
    let rec rename f =
      match f with
      | Binder (b, vars, body) ->
        let pairs =
          List.map (fun (x, ty) -> ((x, ty), fresh_name x)) vars
        in
        let sub = List.map (fun ((x, _), x') -> (x, Var x')) pairs in
        let vars' = List.map (fun ((_, ty), x') -> (x', ty)) pairs in
        Binder (b, vars', rename (subst_list sub body))
      | App (g, args) -> App (rename g, List.map rename args)
      | TypedForm (g, ty) -> TypedForm (rename g, ty)
      | Var _ | Const _ -> f
    in
    pull (rename f)
  in
  pull_renamed f

(** Skolemize an NNF formula: existentials become fresh function symbols of
    the preceding universals.  Returns the matrix under the remaining
    universal prefix (implicitly all-quantified). *)
let skolemize f =
  let qs, matrix = prenex (nnf f) in
  let rec go universals subs = function
    | [] -> subst_list subs matrix
    | (`All, (x, _ty)) :: rest -> go (universals @ [ Var x ]) subs rest
    | (`Ex, (x, _ty)) :: rest ->
      let sk = fresh_name ("sk_" ^ x) in
      let term = if universals = [] then Var sk else App (Var sk, universals) in
      go universals ((x, term) :: subs) rest
  in
  go [] [] qs
