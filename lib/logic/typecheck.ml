(** Hindley-Milner style type inference for specification formulas.

    Besides checking well-typedness, inference resolves the operators that
    the parser cannot disambiguate without types: [<=], [<] and [-] denote
    integer comparison/subtraction or set inclusion/difference depending on
    their operands.  {!disambiguate} rewrites such nodes to the proper
    set-theoretic constants.

    Each call runs one inference over one {!Ftype.Store}: unification
    binds type variables in place, and types are resolved only where the
    rebuild thunks and the free variables' types read them, after the
    last unification. *)

module Smap = Map.Make (String)

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

type env = Ftype.t Smap.t

let env_of_list l = List.fold_left (fun m (x, t) -> Smap.add x t m) Smap.empty l

type state = {
  store : Ftype.Store.store;
  mutable next_tvar : int;
  free : (string, Ftype.t) Hashtbl.t; (* inferred types of free variables *)
}

let fresh st =
  st.next_tvar <- st.next_tvar + 1;
  Ftype.Tvar st.next_tvar

let unify_failed x y ctx =
  type_error "cannot unify %s with %s in %s" (Ftype.to_string x)
    (Ftype.to_string y) ctx

(* the context subformula is printed only when unification fails: printing
   it at every node would make checking quadratic in the formula size *)
let unify st a b (ctx : Form.t) =
  try Ftype.Store.unify st.store a b
  with Ftype.Unify_failure (x, y) -> unify_failed x y (Pprint.to_string ctx)

let resolve st t = Ftype.Store.resolve st.store t

let new_state () =
  { store = Ftype.Store.create (); next_tvar = 0; free = Hashtbl.create 16 }

(* Renumber parser-generated type variables so that inference owns a fresh,
   disjoint supply. *)
let freshen_tvars st (ty : Ftype.t) : Ftype.t =
  let mapping = Hashtbl.create 4 in
  let rec go (t : Ftype.t) : Ftype.t =
    match t with
    | Bool | Int | Obj -> t
    | Set e -> Set (go e)
    | Arrow (a, r) -> Arrow (go a, go r)
    | Tuple ts -> Tuple (List.map go ts)
    | Tvar i -> (
      match Hashtbl.find_opt mapping i with
      | Some v -> v
      | None ->
        let v = fresh st in
        Hashtbl.add mapping i v;
        v)
  in
  go ty

(* Type of each unambiguous constant, instantiated with fresh variables.
   Returns (argument types, result type). *)
let const_signature st (c : Form.const) : Ftype.t list * Ftype.t =
  let a () = fresh st in
  match c with
  | Form.BoolLit _ -> ([], Bool)
  | IntLit _ -> ([], Int)
  | Null -> ([], Obj)
  | Not -> ([ Bool ], Bool)
  | And | Or -> ([], Bool) (* variadic; handled specially *)
  | Impl | Iff -> ([ Bool; Bool ], Bool)
  | Ite ->
    let t = a () in
    ([ Bool; t; t ], t)
  | Eq ->
    let t = a () in
    ([ t; t ], Bool)
  | Lt | Le | Gt | Ge ->
    (* ambiguous: t is either Int or a set; constrained to t,t -> Bool and
       resolved in the rebuild phase *)
    let t = a () in
    ([ t; t ], Bool)
  | Plus | Mult | Div | Mod -> ([ Int; Int ], Int)
  | Minus ->
    let t = a () in
    ([ t; t ], t)
  | Uminus -> ([ Int ], Int)
  | EmptySet | UnivSet -> ([], Set (a ()))
  | FiniteSet -> ([], Set (a ())) (* variadic; handled specially *)
  | Union | Inter | Diff ->
    let s = Ftype.Set (a ()) in
    ([ s; s ], s)
  | Elem ->
    let t = a () in
    ([ t; Set t ], Bool)
  | Subseteq | Subset ->
    let s = Ftype.Set (a ()) in
    ([ s; s ], Bool)
  | Card -> ([ Set (a ()) ], Int)
  | FieldRead ->
    let dom = a () and rng = a () in
    ([ Arrow (dom, rng); dom ], rng)
  | FieldWrite ->
    let dom = a () and rng = a () in
    ([ Arrow (dom, rng); dom; rng ], Arrow (dom, rng))
  | ArrayRead ->
    let rng = a () in
    ([ Arrow (Obj, Arrow (Int, rng)); Obj; Int ], rng)
  | ArrayWrite ->
    let rng = a () in
    let arr : Ftype.t = Arrow (Obj, Arrow (Int, rng)) in
    ([ arr; Obj; Int; rng ], arr)
  | Rtrancl ->
    let t = a () in
    ([ Arrow (t, Arrow (t, Bool)); t; t ], Bool)
  | Tree -> ([], Bool) (* variadic over Obj => Obj fields *)
  | Old ->
    let t = a () in
    ([ t ], t)

(* Inference producing a rebuild thunk: forcing the thunk after the final
   substitution is known yields the disambiguated formula. *)
let rec infer_form st (env : env) (f : Form.t) : Ftype.t * (unit -> Form.t) =
  match f with
  | Form.Var x -> (
    match Smap.find_opt x env with
    | Some t -> (t, fun () -> f)
    | None -> (
      match Hashtbl.find_opt st.free x with
      | Some t -> (t, fun () -> f)
      | None ->
        let t = fresh st in
        Hashtbl.add st.free x t;
        (t, fun () -> f)))
  | Const c ->
    let args, result = const_signature st c in
    (Ftype.arrows args result, fun () -> f)
  | App (Const And, fs) | App (Const Or, fs) ->
    let rebuilds =
      List.map
        (fun g ->
          let t, rb = infer_form st env g in
          unify st t Bool g;
          rb)
        fs
    in
    let c = match f with App (h, _) -> h | _ -> assert false in
    (Bool, fun () -> Form.App (c, List.map (fun rb -> rb ()) rebuilds))
  | App (Const FiniteSet, es) ->
    let elt = fresh st in
    let rebuilds =
      List.map
        (fun e ->
          let t, rb = infer_form st env e in
          unify st t elt e;
          rb)
        es
    in
    ( Set elt,
      fun () -> Form.App (Const FiniteSet, List.map (fun rb -> rb ()) rebuilds) )
  | App (Const Tree, flds) ->
    let rebuilds =
      List.map
        (fun g ->
          let t, rb = infer_form st env g in
          unify st t (Arrow (Obj, Obj)) g;
          rb)
        flds
    in
    (Bool, fun () -> Form.App (Const Tree, List.map (fun rb -> rb ()) rebuilds))
  | App (Const ((Lt | Le | Gt | Ge | Minus) as c), [ x; y ]) ->
    let tx, rbx = infer_form st env x in
    let ty_, rby = infer_form st env y in
    unify st tx ty_ f;
    let result = match c with Minus -> tx | _ -> Ftype.Bool in
    let rebuild () =
      let resolved = resolve st tx in
      let c' : Form.const =
        match resolved, c with
        | Ftype.Set _, Lt -> Subset
        | Ftype.Set _, Le -> Subseteq
        | Ftype.Set _, Gt -> Subset
        | Ftype.Set _, Ge -> Subseteq
        | Ftype.Set _, Minus -> Diff
        | _, _ -> c
      in
      (* a > b on sets is printed/stored as b < a *)
      match c', c with
      | (Subset | Subseteq), (Gt | Ge) -> Form.App (Const c', [ rby (); rbx () ])
      | _ -> Form.App (Const c', [ rbx (); rby () ])
    in
    (result, rebuild)
  | App (g, args) ->
    let tg, rbg = infer_form st env g in
    let rbs =
      List.map
        (fun arg ->
          let targ, rb = infer_form st env arg in
          (targ, rb))
        args
    in
    let result = fresh st in
    let expected = Ftype.arrows (List.map fst rbs) result in
    unify st tg expected f;
    (result, fun () -> Form.App (rbg (), List.map (fun (_, rb) -> rb ()) rbs))
  | Binder (b, vars, body) ->
    let vars = List.map (fun (x, t) -> (x, freshen_tvars st t)) vars in
    let env' = List.fold_left (fun e (x, t) -> Smap.add x t e) env vars in
    let tb, rb = infer_form st env' body in
    let result =
      match b, vars with
      | (Forall | Exists), _ ->
        unify st tb Bool body;
        Ftype.Bool
      | Lambda, _ ->
        Ftype.arrows (List.map snd vars) tb
      | Comprehension, [ (_, t) ] ->
        unify st tb Bool body;
        Ftype.Set t
      | Comprehension, _ ->
        type_error "comprehension must bind exactly one variable"
    in
    ( result,
      fun () ->
        Form.Binder (b, List.map (fun (x, t) -> (x, resolve st t)) vars, rb ())
    )
  | TypedForm (g, ty) ->
    let ty = freshen_tvars st ty in
    let tg, rb = infer_form st env g in
    unify st tg ty f;
    (ty, fun () -> Form.TypedForm (rb (), resolve st ty))

(** Infer the type of [f] under [env]; returns the disambiguated formula,
    its type, and the inferred types of its free variables.  Raises
    {!Type_error} if [f] is ill-typed. *)
let infer ?(env = Smap.empty) (f : Form.t) : Form.t * Ftype.t * env =
  let st = new_state () in
  let t, rebuild = infer_form st env f in
  let free =
    Hashtbl.fold (fun x tx m -> Smap.add x (resolve st tx) m) st.free Smap.empty
  in
  (rebuild (), resolve st t, free)

(** Check that [f] is a well-typed boolean formula and resolve ambiguous
    operators.  Raises {!Type_error} when [f] is not boolean. *)
let check_formula ?(env = Smap.empty) (f : Form.t) : Form.t =
  let st = new_state () in
  let t, rebuild = infer_form st env f in
  (try Ftype.Store.unify st.store t Bool
   with Ftype.Unify_failure (x, y) -> unify_failed x y "formula");
  rebuild ()

(** Best-effort disambiguation: on type error the input is returned
    unchanged (translators will then reject out-of-fragment parts). *)
let disambiguate ?(env = Smap.empty) (f : Form.t) : Form.t =
  match check_formula ~env f with
  | f' -> f'
  | exception Type_error _ -> f

let well_typed ?(env = Smap.empty) (f : Form.t) : bool =
  match infer ~env f with _ -> true | exception Type_error _ -> false
