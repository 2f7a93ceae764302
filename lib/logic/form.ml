(** The Jahob specification logic: a subset of Isabelle/HOL.

    Everything the system manipulates — method contracts, class invariants,
    abstraction functions, verification conditions — is a value of type
    {!type:t}.  The representation follows the original Jahob design: a
    lambda-structured tree of applications, constants and binders, so that
    set comprehensions, reflexive-transitive closure and field reads all
    live in a single language.  Translations into each decision procedure
    are partial functions defined elsewhere. *)

type ident = string

type binder =
  | Forall          (** [ALL x. F] *)
  | Exists          (** [EX x. F] *)
  | Lambda          (** [% x. F] *)
  | Comprehension   (** [{x. F}] *)

type const =
  (* literals *)
  | BoolLit of bool
  | IntLit of int
  | Null
  (* propositional *)
  | Not
  | And
  | Or
  | Impl
  | Iff
  | Ite
  (* equality and order *)
  | Eq
  | Lt
  | Le
  | Gt
  | Ge
  (* integer arithmetic *)
  | Plus
  | Minus
  | Uminus
  | Mult
  | Div
  | Mod
  (* sets *)
  | EmptySet
  | UnivSet
  | FiniteSet       (** [{e1, ..., en}], applied to its elements *)
  | Union
  | Inter
  | Diff
  | Elem            (** [x : S] *)
  | Subseteq        (** [S <= T] on sets *)
  | Subset          (** [S < T] strict *)
  | Card            (** [card S] *)
  (* heap *)
  | FieldRead       (** [fieldRead f x], surface syntax [x..f] *)
  | FieldWrite      (** [fieldWrite f x v], a function-valued update *)
  | ArrayRead
  | ArrayWrite
  | Rtrancl         (** [rtrancl_pt (% x y. F) a b] *)
  | Tree            (** [tree [f1, ..., fn]]: fields form a forest *)
  | Old             (** [old e]: pre-state value, eliminated by vcgen *)

type t =
  | Var of ident
  | Const of const
  | App of t * t list
  | Binder of binder * (ident * Ftype.t) list * t
  | TypedForm of t * Ftype.t

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let mk_var x = Var x
let mk_int n = Const (IntLit n)
let mk_bool b = Const (BoolLit b)
let mk_true = Const (BoolLit true)
let mk_false = Const (BoolLit false)
let mk_null = Const Null

let mk_app f args = if args = [] then f else App (f, args)

(** Strip outer type annotations. *)
let rec strip_types f =
  match f with
  | TypedForm (g, _) -> strip_types g
  | Var _ | Const _ | App _ | Binder _ -> f

let is_true f = match strip_types f with Const (BoolLit true) -> true | _ -> false
let is_false f = match strip_types f with Const (BoolLit false) -> true | _ -> false

(** Conjunction with unit laws and flattening: [mk_and] never produces a
    nested [And] and never contains [True] conjuncts. *)
let mk_and fs =
  let rec gather acc f =
    match strip_types f with
    | App (Const And, args) -> List.fold_left gather acc args
    | g when is_true g -> acc
    | _ -> f :: acc
  in
  let fs = List.rev (List.fold_left gather [] fs) in
  if List.exists is_false fs then mk_false
  else
    match fs with
    | [] -> mk_true
    | [ f ] -> f
    | _ -> App (Const And, fs)

let mk_or fs =
  let rec gather acc f =
    match strip_types f with
    | App (Const Or, args) -> List.fold_left gather acc args
    | g when is_false g -> acc
    | _ -> f :: acc
  in
  let fs = List.rev (List.fold_left gather [] fs) in
  if List.exists is_true fs then mk_true
  else
    match fs with
    | [] -> mk_false
    | [ f ] -> f
    | _ -> App (Const Or, fs)

let mk_not f =
  match strip_types f with
  | Const (BoolLit b) -> mk_bool (not b)
  | App (Const Not, [ g ]) -> g
  | _ -> App (Const Not, [ f ])

let mk_impl a b =
  if is_true a then b
  else if is_false a then mk_true
  else if is_true b then mk_true
  else App (Const Impl, [ a; b ])

let mk_iff a b =
  if is_true a then b
  else if is_true b then a
  else if is_false a then mk_not b
  else if is_false b then mk_not a
  else App (Const Iff, [ a; b ])

let mk_ite c a b = App (Const Ite, [ c; a; b ])
let mk_eq a b = App (Const Eq, [ a; b ])
let mk_neq a b = mk_not (mk_eq a b)
let mk_lt a b = App (Const Lt, [ a; b ])
let mk_le a b = App (Const Le, [ a; b ])
let mk_gt a b = App (Const Gt, [ a; b ])
let mk_ge a b = App (Const Ge, [ a; b ])
let mk_plus a b = App (Const Plus, [ a; b ])
let mk_minus a b = App (Const Minus, [ a; b ])
let mk_uminus a = App (Const Uminus, [ a ])
let mk_mult a b = App (Const Mult, [ a; b ])
let mk_emptyset = Const EmptySet
let mk_univ = Const UnivSet
let mk_finite_set es = if es = [] then mk_emptyset else App (Const FiniteSet, es)
let mk_singleton e = mk_finite_set [ e ]

let mk_union a b =
  match strip_types a, strip_types b with
  | Const EmptySet, _ -> b
  | _, Const EmptySet -> a
  | _, _ -> App (Const Union, [ a; b ])

let mk_inter a b = App (Const Inter, [ a; b ])

let mk_diff a b =
  match strip_types b with
  | Const EmptySet -> a
  | _ -> App (Const Diff, [ a; b ])

let mk_elem x s = App (Const Elem, [ x; s ])
let mk_notelem x s = mk_not (mk_elem x s)
let mk_subseteq a b = App (Const Subseteq, [ a; b ])
let mk_subset a b = App (Const Subset, [ a; b ])
let mk_card s = App (Const Card, [ s ])
let mk_field_read fld obj = App (Const FieldRead, [ fld; obj ])
let mk_field_write fld obj v = App (Const FieldWrite, [ fld; obj; v ])
let mk_array_read arr obj idx = App (Const ArrayRead, [ arr; obj; idx ])
let mk_array_write arr obj idx v = App (Const ArrayWrite, [ arr; obj; idx; v ])
let mk_rtrancl p a b = App (Const Rtrancl, [ p; a; b ])
let mk_old e = App (Const Old, [ e ])
let mk_tree flds = App (Const Tree, flds)

let mk_binder b vars body = if vars = [] then body else Binder (b, vars, body)

let mk_forall vars body =
  if is_true body then mk_true else mk_binder Forall vars body

let mk_exists vars body =
  if is_false body then mk_false else mk_binder Exists vars body

let mk_lambda vars body = mk_binder Lambda vars body
let mk_comprehension vars body = Binder (Comprehension, vars, body)

(** n-ary conjunction/implication helpers used by the VC generator. *)
let mk_impl_chain hyps goal = mk_impl (mk_and hyps) goal

(* ------------------------------------------------------------------ *)
(* Structural equality (modulo type annotations)                       *)
(* ------------------------------------------------------------------ *)

let const_equal (a : const) (b : const) = a = b

(* position of [x] in the names bound around a subterm (innermost binder
   first, a binder's own names in order), or -1 when [x] is free there *)
let bound_index x bound =
  let rec go i = function
    | [] -> -1
    | y :: ys -> if String.equal x y then i else go (i + 1) ys
  in
  go 0 bound

let bind_names vars bound = List.fold_right (fun (x, _) b -> x :: b) vars bound

(* alpha-equivalence: a bound variable must sit at the same binder
   position on both sides, a free one must have the same name *)
let equal a b =
  let rec eq bl br a b =
    match strip_types a, strip_types b with
    | Var x, Var y ->
      let i = bound_index x bl in
      i = bound_index y br && (i >= 0 || String.equal x y)
    | Const c, Const d -> const_equal c d
    | App (f, xs), App (g, ys) ->
      eq bl br f g
      && List.length xs = List.length ys
      && List.for_all2 (eq bl br) xs ys
    | Binder (b1, v1, f1), Binder (b2, v2, f2) ->
      b1 = b2
      && List.length v1 = List.length v2
      && eq (bind_names v1 bl) (bind_names v2 br) f1 f2
    | (Var _ | Const _ | App _ | Binder _), _ -> false
    | TypedForm _, _ -> assert false (* strip_types never returns TypedForm *)
  in
  eq [] [] a b

(** A hash that agrees with {!equal}: type annotations are ignored, bound
    variables hash by binder position and free ones by name. *)
let hash f =
  let mix h x = (h * 1000003) lxor x in
  let rec go bound h f =
    match f with
    | TypedForm (g, _) -> go bound h g
    | Var x ->
      let i = bound_index x bound in
      if i >= 0 then mix (mix h 1) i else mix (mix h 2) (Hashtbl.hash x)
    | Const c -> mix (mix h 3) (Hashtbl.hash c)
    | App (g, args) -> List.fold_left (go bound) (go bound (mix h 4) g) args
    | Binder (b, vars, body) ->
      go (bind_names vars bound)
        (mix (mix (mix h 5) (Hashtbl.hash b)) (List.length vars))
        body
  in
  go [] 0 f land max_int

(** Formula tables up to alpha-equivalence and type annotations. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(* ------------------------------------------------------------------ *)
(* Free variables and substitution                                     *)
(* ------------------------------------------------------------------ *)

module Sset = Set.Make (String)
module Smap = Map.Make (String)

let rec fv_acc bound acc f =
  match f with
  | Var x -> if Sset.mem x bound then acc else Sset.add x acc
  | Const _ -> acc
  | App (g, args) -> List.fold_left (fv_acc bound) (fv_acc bound acc g) args
  | Binder (_, vars, body) ->
    let bound = List.fold_left (fun b (x, _) -> Sset.add x b) bound vars in
    fv_acc bound acc body
  | TypedForm (g, _) -> fv_acc bound acc g

(** Free variables of a formula. *)
let fv f = fv_acc Sset.empty Sset.empty f

let fv_list f = Sset.elements (fv f)

(* Fresh-name generation: names use a reserved separator that the parsers
   never produce, so uniqueness only needs a process-wide id sequence. *)
let fresh_counter = Atomic.make 0

let fresh_name base =
  Printf.sprintf "%s__%d" base (Atomic.fetch_and_add fresh_counter 1 + 1)

(* [List.map] that returns the input list unchanged (physically) when [f]
   changes no element — keeps rebuilt trees sharing their untouched
   subtrees, so repeated passes allocate only along the changed paths. *)
let map_sharing f xs =
  let changed = ref false in
  let ys =
    List.map
      (fun x ->
        let y = f x in
        if y != x then changed := true;
        y)
      xs
  in
  if !changed then ys else xs

(** Capture-avoiding parallel substitution.  [subst map f] replaces each
    free occurrence of a variable bound in [map].  Subtrees that contain
    no substituted variable are returned physically unchanged. *)
let rec subst (map : t Smap.t) f =
  if Smap.is_empty map then f
  else
    match f with
    | Var x -> ( match Smap.find_opt x map with Some g -> g | None -> f)
    | Const _ -> f
    | App (g, args) ->
      let g' = subst map g in
      let args' = map_sharing (subst map) args in
      if g' == g && args' == args then f else App (g', args')
    | TypedForm (g, ty) ->
      let g' = subst map g in
      if g' == g then f else TypedForm (g', ty)
    | Binder (b, vars, body) ->
      (* drop bindings shadowed by the binder *)
      let map = List.fold_left (fun m (x, _) -> Smap.remove x m) map vars in
      if Smap.is_empty map then f
      else
        (* rename binder variables that would capture *)
        let clashing =
          Smap.fold (fun _ g acc -> Sset.union (fv g) acc) map Sset.empty
        in
        let rename (vars_rev, ren) (x, ty) =
          if Sset.mem x clashing then
            let x' = fresh_name x in
            ((x', ty) :: vars_rev, Smap.add x (Var x') ren)
          else ((x, ty) :: vars_rev, ren)
        in
        let vars_rev, ren = List.fold_left rename ([], Smap.empty) vars in
        let vars' = List.rev vars_rev in
        let body0 = if Smap.is_empty ren then body else subst ren body in
        let body' = subst map body0 in
        if Smap.is_empty ren && body' == body then f
        else Binder (b, vars', body')

let subst1 x g f = subst (Smap.singleton x g) f

(** Alpha-normalization: every bound variable is renamed to a canonical
    name determined only by its binding depth ([?b0], [?b1], ...).  Type
    annotations are stripped by default; [~keep_types:true] preserves them
    (the verdict-cache digest needs sorts, or [ALL x::int] and
    [ALL x::obj] obligations would collide).  Alpha-equivalent formulas
    normalize to structurally identical trees, so their printed forms —
    and hence their digests — coincide.  The [?] prefix cannot clash with
    source-level identifiers: no parser produces it.  Subtrees that are
    already in normal form (no binders, or canonically named ones) come
    back physically unchanged, so normalization preserves sharing. *)
let alpha_normalize ?(keep_types = false) f =
  let rec go (env : ident Smap.t) (depth : int) f =
    match f with
    | TypedForm (g, ty) ->
      if keep_types then
        let g' = go env depth g in
        if g' == g then f else TypedForm (g', ty)
      else go env depth g
    | Var x -> (
      match Smap.find_opt x env with
      | Some y -> if String.equal y x then f else Var y
      | None -> f)
    | Const _ -> f
    | App (g, args) ->
      let g' = go env depth g in
      let args' = map_sharing (go env depth) args in
      if g' == g && args' == args then f else App (g', args')
    | Binder (b, vars, body) ->
      let vars_rev, env, depth, renamed =
        List.fold_left
          (fun (vs, env, d, renamed) (x, ty) ->
            let x' = Printf.sprintf "?b%d" d in
            ( (x', ty) :: vs, Smap.add x x' env, d + 1,
              renamed || not (String.equal x' x) ))
          ([], env, depth, false) vars
      in
      let body' = go env depth body in
      if (not renamed) && body' == body then f
      else Binder (b, List.rev vars_rev, body')
  in
  go Smap.empty 0 f

let subst_list pairs f =
  subst (List.fold_left (fun m (x, g) -> Smap.add x g m) Smap.empty pairs) f

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

(** Bottom-up transformation: applies [fn] to every node after
    transforming its children.  Untouched subtrees come back physically
    unchanged, so repeated passes preserve sharing. *)
let rec map_bottom_up fn f =
  let f' =
    match f with
    | Var _ | Const _ -> f
    | App (g, args) ->
      let g' = map_bottom_up fn g in
      let args' = map_sharing (map_bottom_up fn) args in
      if g' == g && args' == args then f else App (g', args')
    | Binder (b, vars, body) ->
      let body' = map_bottom_up fn body in
      if body' == body then f else Binder (b, vars, body')
    | TypedForm (g, ty) ->
      let g' = map_bottom_up fn g in
      if g' == g then f else TypedForm (g', ty)
  in
  fn f'

(** Fold over all subformulas, top-down, including binders' bodies. *)
let rec fold fn acc f =
  let acc = fn acc f in
  match f with
  | Var _ | Const _ -> acc
  | App (g, args) -> List.fold_left (fold fn) (fold fn acc g) args
  | Binder (_, _, body) -> fold fn acc body
  | TypedForm (g, _) -> fold fn acc g

(** Size of the formula tree (number of nodes), used by benchmarks and by
    the dispatcher's cost heuristics. *)
let size f = fold (fun n _ -> n + 1) 0 f

(** Does any subformula satisfy [p]? *)
let exists_sub p f =
  let exception Found in
  try
    fold (fun () g -> if p g then raise Found) () f;
    false
  with Found -> true

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

(** Split a formula into its top-level conjuncts. *)
let conjuncts f =
  match strip_types f with
  | App (Const And, args) -> args
  | g when is_true g -> []
  | _ -> [ f ]

(** View an implication chain [h1 --> h2 --> ... --> g] as
    ([h1; h2; ...], g). *)
let rec hypotheses_and_goal f =
  match strip_types f with
  | App (Const Impl, [ a; b ]) ->
    let hs, g = hypotheses_and_goal b in
    (conjuncts a @ hs, g)
  | _ -> ([], f)

(** Kept for callers that reset process-wide state between cold runs.
    No process-wide formula memo remains, so this does nothing. *)
let clear_memos () = ()
