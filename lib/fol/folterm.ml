(** First-order terms, substitutions and unification for the resolution
    prover.

    Variables are integers.  Clauses in the search are kept in normal form
    (variables [0..k-1], {!Folclause.normalize_clause}), so renaming a
    clause apart from another adds a fixed offset to its variables: no string
    is built and no two clauses in one inference share a variable.  The
    kernel functions return constants and unchanged subterms as they are,
    so ground parts of a clause are shared, never copied. *)

type term =
  | V of int (* universally quantified variable *)
  | Fn of string * term list (* function application; constants are 0-ary *)

(* bindings of a triangular substitution, newest first *)
type subst = (int * term) list

(* the offset that renames a normalized clause apart from any other
   normalized clause: their variables stay far below it *)
let apart = 1 lsl 30

(* the binding of [x] in [s], or (the very term) [unbound]: no option is
   allocated on the unifier's hot paths *)
let unbound = V (-1)

let rec binding (x : int) (s : subst) : term =
  match s with
  | [] -> unbound
  | (y, t) :: rest -> if x = y then t else binding x rest

(* [List.map] that returns [xs] itself when [f] changes no element *)
let rec map_shared (f : 'a -> 'a) (xs : 'a list) : 'a list =
  match xs with
  | [] -> xs
  | x :: rest ->
    let x' = f x and rest' = map_shared f rest in
    if x' == x && rest' == rest then xs else x' :: rest'

let rec apply (s : subst) (t : term) : term =
  match t with
  | V x ->
    let u = binding x s in
    (* s may be a triangular substitution *)
    if u != unbound then apply s u else t
  | Fn (_, []) -> t
  | Fn (f, args) ->
    let args' = map_shared (apply s) args in
    if args' == args then t else Fn (f, args')

let rec occurs (s : subst) x (t : term) : bool =
  match t with
  | V y -> (
    if x = y then true
    else
      let u = binding y s in
      u != unbound && occurs s x u)
  | Fn (_, args) -> List.exists (occurs s x) args

exception No_unifier

(* a variable's binding, followed until an unbound variable or an
   application *)
let rec chase (s : subst) (t : term) : term =
  match t with
  | V x ->
    let u = binding x s in
    if u != unbound then chase s u else t
  | Fn _ -> t

(* triangular unification *)
let rec unify (s : subst) (a : term) (b : term) : subst =
  let a = chase s a and b = chase s b in
  match a, b with
  | V x, V y when x = y -> s
  | V x, t | t, V x -> if occurs s x t then raise No_unifier else (x, t) :: s
  | Fn (f, xs), Fn (g, ys) ->
    if not (String.equal f g) || List.compare_lengths xs ys <> 0 then
      raise No_unifier
    else List.fold_left2 unify s xs ys

let rec ground (t : term) : bool =
  match t with V _ -> false | Fn (_, args) -> List.for_all ground args

let rec mem_var (x : int) = function
  | [] -> false
  | y :: rest -> x = y || mem_var x rest

(* variables occurring in a term *)
let rec term_vars acc = function
  | V x -> if mem_var x acc then acc else x :: acc
  | Fn (_, args) -> List.fold_left term_vars acc args

(* a normalized term renamed apart *)
let rec rename_term (t : term) : term =
  match t with
  | V x -> V (x + apart)
  | Fn (_, []) -> t
  | Fn (f, args) ->
    let args' = map_shared rename_term args in
    if args' == args then t else Fn (f, args')

(** [unify s a (rename_term b)], without building the renamed copy of
    [b]: a variable of [b] is renamed where unification meets it, and a
    subterm of [b] only when a variable of [a] is bound to it.  The
    substitution is the same, binding for binding. *)
let rec unify_apart (s : subst) (a : term) (b : term) : subst =
  match b with
  | V y -> unify s a (V (y + apart))
  | Fn (g, ys) -> (
    match chase s a with
    | V x ->
      let b = rename_term b in
      if occurs s x b then raise No_unifier else (x, b) :: s
    | Fn (f, xs) ->
      if not (String.equal f g) || List.compare_lengths xs ys <> 0 then
        raise No_unifier
      else List.fold_left2 unify_apart s xs ys)

let rec equal_term (a : term) (b : term) : bool =
  a == b
  ||
  match a, b with
  | V x, V y -> x = y
  | Fn (f, xs), Fn (g, ys) -> String.equal f g && List.equal equal_term xs ys
  | _ -> false

(* the order of the decimal numerals of two non-negative integers, as
   [String.compare] ranks [string_of_int a] and [string_of_int b]: 10
   before 2 *)
let compare_decimal (a : int) (b : int) : int =
  if a = b then 0
  else
    let rec digits n = if n < 10 then 1 else 1 + digits (n / 10) in
    let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1) in
    let da = digits a and db = digits b in
    let c =
      Int.compare
        (a * pow10 (max 0 (db - da)))
        (b * pow10 (max 0 (da - db)))
    in
    if c <> 0 then c else Int.compare da db

(** The order that polymorphic [compare] gives terms whose variable [i]
    is named ["_v" ^ string_of_int i]: variables before applications,
    variables by decimal numeral, applications by symbol then arguments. *)
let rec compare_term (a : term) (b : term) : int =
  if a == b then 0
  else
    match a, b with
    | V x, V y -> compare_decimal x y
    | V _, Fn _ -> -1
    | Fn _, V _ -> 1
    | Fn (f, xs), Fn (g, ys) ->
      let c = String.compare f g in
      if c <> 0 then c else List.compare compare_term xs ys

let rec term_size = function
  | V _ -> 1
  | Fn (_, args) -> 1 + List.fold_left (fun n t -> n + term_size t) 0 args

let rec pp_term ppf = function
  | V x -> Format.fprintf ppf "?%d" x
  | Fn (f, []) -> Format.pp_print_string ppf f
  | Fn (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_term)
      args
