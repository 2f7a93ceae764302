(** Simple types for the Jahob specification logic.

    The specification language is a subset of Isabelle/HOL, so types are
    simple types: base sorts ([bool], [int], [obj]), sets, function spaces
    and tuples.  Type variables support Hindley-Milner style inference in
    {!Typecheck}: each inference binds them in its own {!Store}, a
    union-find store that {!Store.unify} extends in place and
    {!Store.resolve} reads back. *)

type t =
  | Bool
  | Int
  | Obj                       (** references, including [null] *)
  | Set of t                  (** [t set] *)
  | Arrow of t * t            (** [t1 => t2] *)
  | Tuple of t list           (** [t1 * ... * tn], n >= 2 *)
  | Tvar of int               (** unification variable *)

let objset = Set Obj

(** [arrows [t1;...;tn] r] builds [t1 => ... => tn => r]. *)
let arrows args result = List.fold_right (fun a r -> Arrow (a, r)) args result

let rec equal a b =
  match a, b with
  | Bool, Bool | Int, Int | Obj, Obj -> true
  | Set x, Set y -> equal x y
  | Arrow (a1, r1), Arrow (a2, r2) -> equal a1 a2 && equal r1 r2
  | Tuple xs, Tuple ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Tvar i, Tvar j -> i = j
  | (Bool | Int | Obj | Set _ | Arrow _ | Tuple _ | Tvar _), _ -> false

let rec pp ppf t =
  match t with
  | Bool -> Format.pp_print_string ppf "bool"
  | Int -> Format.pp_print_string ppf "int"
  | Obj -> Format.pp_print_string ppf "obj"
  | Set e -> Format.fprintf ppf "%a set" pp_atom e
  | Arrow (a, r) -> Format.fprintf ppf "%a => %a" pp_atom a pp r
  | Tuple ts ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " * ") pp_atom)
      ts
  | Tvar i -> Format.fprintf ppf "'t%d" i

and pp_atom ppf t =
  match t with
  | Bool | Int | Obj | Tvar _ | Set _ -> pp ppf t
  | Arrow _ | Tuple _ -> Format.fprintf ppf "(%a)" pp t

let to_string t = Format.asprintf "%a" pp t

exception Unify_failure of t * t

(** The bindings of one inference's unification variables: a mutable
    union-find store with path compression.  A variable is unbound or
    bound to a type, which may itself be a variable; {!Store.repr} follows
    such chains and points every variable it passes at the end of its
    chain, so a lookup costs what the chain needs once, not at every
    node.  Variables [0 .. dense_limit - 1] live in chunks of 128 slots,
    added as needed, any other number in a table.  A chunk is small
    enough for the minor heap; one array doubled to the largest variable
    would be allocated in the major heap on big inferences, which shows
    as about 1 MB more peak RSS on the corpus. *)
module Store = struct
  type store = {
    mutable chunks : t option array array;
    sparse : (int, t) Hashtbl.t;
  }

  let dense_limit = 1 lsl 16

  let create () : store = { chunks = [||]; sparse = Hashtbl.create 1 }

  let find st i =
    if i >= 0 && i < dense_limit then
      let c = i lsr 7 in
      if c < Array.length st.chunks then st.chunks.(c).(i land 127) else None
    else Hashtbl.find_opt st.sparse i

  let set st i t =
    if i >= 0 && i < dense_limit then begin
      let c = i lsr 7 in
      let n = Array.length st.chunks in
      if c >= n then begin
        let old = st.chunks in
        st.chunks <-
          Array.init (max (c + 1) (2 * n)) (fun k ->
              if k < n then old.(k) else Array.make 128 None)
      end;
      st.chunks.(c).(i land 127) <- Some t
    end
    else Hashtbl.replace st.sparse i t

  (** [t] with its outermost bound variables followed: an unbound
      variable or a type whose head is a constructor. *)
  let rec repr st t =
    match t with
    | Tvar i -> (
      match find st i with
      | None -> t
      | Some u ->
        let r = repr st u in
        if r != u then set st i r;
        r)
    | Bool | Int | Obj | Set _ | Arrow _ | Tuple _ -> t

  (** [t] with every bound variable replaced by its binding, deeply. *)
  let rec resolve st t =
    match repr st t with
    | (Bool | Int | Obj | Tvar _) as t -> t
    | Set e -> Set (resolve st e)
    | Arrow (a, r) -> Arrow (resolve st a, resolve st r)
    | Tuple ts -> Tuple (List.map (resolve st) ts)

  (* occurs check through the bindings *)
  let rec occurs st i t =
    match repr st t with
    | Bool | Int | Obj -> false
    | Set e -> occurs st i e
    | Arrow (a, r) -> occurs st i a || occurs st i r
    | Tuple ts -> List.exists (occurs st i) ts
    | Tvar j -> i = j

  (** [unify st a b] binds variables of [st] so that [a] and [b] become
      equal, or raises {!Unify_failure} with the two subterms, resolved,
      where they clash.  A variable meeting a type is bound to it, the
      left operand's variable when both sides are variables. *)
  let rec unify st a b =
    let a = repr st a and b = repr st b in
    if a != b then
      match a, b with
      | Tvar i, Tvar j when i = j -> ()
      | Tvar i, t | t, Tvar i ->
        if occurs st i t then raise (Unify_failure (resolve st a, resolve st b))
        else set st i t
      | Bool, Bool | Int, Int | Obj, Obj -> ()
      | Set x, Set y -> unify st x y
      | Arrow (a1, r1), Arrow (a2, r2) ->
        unify st a1 a2;
        unify st r1 r2
      | Tuple xs, Tuple ys when List.length xs = List.length ys ->
        List.iter2 (unify st) xs ys
      | (Bool | Int | Obj | Set _ | Arrow _ | Tuple _), _ ->
        raise (Unify_failure (resolve st a, resolve st b))
end
