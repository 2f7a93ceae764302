(** Literals, clauses and the clause-level inference rules shared by the
    resolution engines (naive and indexed) and the term index. *)

open Folterm

type lit = { sign : bool; pred : string; args : term list }

type clause = lit list (* implicit disjunction; [] is the empty clause *)

let lit_negate l = { l with sign = not l.sign }

let pp_lit ppf l =
  Format.fprintf ppf "%s%s(%a)"
    (if l.sign then "" else "~")
    l.pred
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_term)
    l.args

let pp_clause ppf (c : clause) =
  if c = [] then Format.pp_print_string ppf "[]"
  else
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
      pp_lit ppf c

(* a literal with [f] mapped over its arguments: [l] itself when no
   argument changes *)
let map_args (f : term -> term) (l : lit) : lit =
  let args = map_shared f l.args in
  if args == l.args then l else { l with args }

let apply_lit s l = map_args (apply s) l
let apply_clause s c = List.map (apply_lit s) c

let clause_vars (c : clause) : int list =
  List.fold_left (fun acc l -> List.fold_left term_vars acc l.args) [] c

let rename_lit (l : lit) : lit = map_args rename_term l
let rename_clause (c : clause) : clause = List.map rename_lit c

let equal_lit (a : lit) (b : lit) : bool =
  a == b
  || Bool.equal a.sign b.sign
     && String.equal a.pred b.pred
     && List.equal equal_term a.args b.args

(** Polymorphic [compare]'s order on literals whose variables carry the
    names ["_v" ^ string_of_int i]: sign, predicate, then arguments by
    {!Folterm.compare_term}. *)
let compare_lit (a : lit) (b : lit) : int =
  if a == b then 0
  else
    let c = Bool.compare a.sign b.sign in
    if c <> 0 then c
    else
      let c = String.compare a.pred b.pred in
      if c <> 0 then c else List.compare compare_term a.args b.args

(* [obj] sort guards are bookkeeping, not search progress: they are
   excluded from the size/length budgets so that guarded clauses keep the
   same priority as their unguarded ancestors did *)
let clause_size (c : clause) =
  List.fold_left
    (fun n l ->
      if l.pred = "obj" then n
      else n + 1 + List.fold_left (fun m t -> m + term_size t) 0 l.args)
    0 c

let clause_lits (c : clause) =
  List.fold_left (fun n l -> if l.pred = "obj" then n else n + 1) 0 c

(* direct variable renaming (simultaneous, unlike the triangular [apply]) *)
let rec map_vars (f : int -> int) (t : term) : term =
  match t with
  | V x ->
    let y = f x in
    if y = x then t else V y
  | Fn (_, []) -> t
  | Fn (g, args) ->
    let args' = map_shared (map_vars f) args in
    if args' == args then t else Fn (g, args')

(* [compare] on the literals' variable-blind skeletons, without building
   them: every variable equals every other and sorts below any
   application, exactly as the polymorphic order ranks [V "?"] *)
let rec compare_blind (a : term) (b : term) : int =
  match a, b with
  | V _, V _ -> 0
  | V _, Fn _ -> -1
  | Fn _, V _ -> 1
  | Fn (f, xs), Fn (g, ys) ->
    let c = String.compare f g in
    if c <> 0 then c else List.compare compare_blind xs ys

let compare_skeletons (l1 : lit) (l2 : lit) : int =
  let c = Bool.compare l1.sign l2.sign in
  if c <> 0 then c
  else
    let c = String.compare l1.pred l2.pred in
    if c <> 0 then c else List.compare compare_blind l1.args l2.args

(* Canonical form up to variable renaming: literals are first ordered by a
   variable-blind skeleton, variables are then renumbered 0, 1, ... in
   order of first occurrence in that sequence, and the renamed literals
   are sorted by {!compare_lit} (variable [i] ranking as the numeral of
   [i] does: 10 before 2).  Two clauses differing only in variable names
   (whatever order their literals arrived in) map to the same normal
   form, so a dedup table keyed on it catches renamed variants; the
   renaming is injective, so equal normal forms are always genuine
   variants. *)
let normalize_clause (c : clause) : clause =
  let ordered = List.stable_sort compare_skeletons c in
  let vars = List.rev (clause_vars ordered) in
  let rec index i x = function
    | [] -> x
    | y :: rest -> if x = y then i else index (i + 1) x rest
  in
  let f x = index 0 x vars in
  List.sort_uniq compare_lit (List.map (map_args (map_vars f)) ordered)

(* a hash over every symbol of the clause, for tables keyed on normal
   forms: the polymorphic [Hashtbl.hash] stops after ten meaningful
   words, which covers little more than the first literal's sign and
   predicate, and sends every clause sharing a first literal to one
   bucket *)
let hash_clause (c : clause) : int =
  let mix h x = (h * 65599) + x in
  let rec term h = function
    | V x -> mix (mix h 1) x
    | Fn (f, args) ->
      List.fold_left term (mix (mix h (List.length args + 2)) (Hashtbl.hash f)) args
  in
  List.fold_left
    (fun h l ->
      List.fold_left term
        (mix (mix h (Bool.to_int l.sign)) (Hashtbl.hash l.pred))
        l.args)
    0 c
  land max_int

(** Hash tables keyed on clauses, structurally compared and hashed by
    {!hash_clause}. *)
module Tbl = Hashtbl.Make (struct
  type t = clause

  let equal = List.equal equal_lit
  let hash = hash_clause
end)

let is_tautology (c : clause) : bool =
  List.exists
    (fun l ->
      List.exists
        (fun l' ->
          l.sign <> l'.sign
          && String.equal l.pred l'.pred
          && List.equal equal_term l.args l'.args)
        c)
    c

(* one-way matching: only the pattern's variables may bind *)
let rec match_term (s : subst) (pat : term) (t : term) : subst =
  match pat, t with
  | V x, _ -> (
    match lookup x s with
    | Some u -> if equal_term u t then s else raise No_unifier
    | None -> (x, t) :: s)
  | Fn (f, xs), Fn (g, ys) ->
    if not (String.equal f g) || List.compare_lengths xs ys <> 0 then
      raise No_unifier
    else List.fold_left2 match_term s xs ys
  | Fn _, V _ -> raise No_unifier

(* subsumption: c1 subsumes c2 if some instance of c1 (variables of c2
   fixed) is a subset of c2.  [subsumes_prepared] expects [c1] already
   renamed apart from [c2] — callers that test one subsumer against many
   clauses rename once instead of per test. *)
let subsumes_prepared (c1 : clause) (c2 : clause) : bool =
  let rec go s = function
    | [] -> true
    | l1 :: rest ->
      List.exists
        (fun l2 ->
          l1.sign = l2.sign && l1.pred = l2.pred
          &&
          match
            (try Some (List.fold_left2 match_term s l1.args l2.args)
             with No_unifier | Invalid_argument _ -> None)
          with
          | Some s' -> go s' rest
          | None -> false)
        c2
  in
  List.length c1 <= List.length c2 && go [] c1

let subsumes (c1 : clause) (c2 : clause) : bool =
  subsumes_prepared (rename_clause c1) c2

(* one binary resolvent on a chosen literal pair: [l1] is an occurrence in
   [c1], [l2] one in [c2] with the opposite sign and the same predicate;
   [c2] is freshly renamed here.  Physical identity selects the occurrence
   to cut, exactly as in {!resolvents}. *)
let resolve_on (c1 : clause) (l1 : lit) (c2 : clause) (l2 : lit) :
    clause option =
  (* most retrieved partners fail to unify: rename the rest of [c2] only
     once a resolvent exists *)
  match
    (try Some (List.fold_left2 unify [] l1.args (rename_lit l2).args)
     with No_unifier | Invalid_argument _ -> None)
  with
  | None -> None
  | Some s ->
    let rest1 = List.filter (fun l -> l != l1) c1 in
    let rest2 = rename_clause (List.filter (fun l -> l != l2) c2) in
    Some (normalize_clause (apply_clause s (rest1 @ rest2)))

(* all binary resolvents of c1 and c2 (c2 freshly renamed) *)
let resolvents (c1 : clause) (c2 : clause) : clause list =
  let c2 = rename_clause c2 in
  List.concat_map
    (fun l1 ->
      List.filter_map
        (fun l2 ->
          if l1.sign = l2.sign || l1.pred <> l2.pred then None
          else
            match
              (try Some (List.fold_left2 unify [] l1.args l2.args)
               with No_unifier | Invalid_argument _ -> None)
            with
            | None -> None
            | Some s ->
              let rest1 = List.filter (fun l -> l != l1) c1 in
              let rest2 = List.filter (fun l -> l != l2) c2 in
              Some (normalize_clause (apply_clause s (rest1 @ rest2))))
        c2)
    c1

(* factoring: unify two literals of the same clause *)
let factors (c : clause) : clause list =
  let rec pairs = function
    | [] -> []
    | l :: rest -> List.map (fun l' -> (l, l')) rest @ pairs rest
  in
  List.filter_map
    (fun (l1, l2) ->
      if l1.sign <> l2.sign || l1.pred <> l2.pred then None
      else
        match
          (try Some (List.fold_left2 unify [] l1.args l2.args)
           with No_unifier | Invalid_argument _ -> None)
        with
        | None -> None
        | Some s ->
          Some
            (normalize_clause
               (apply_clause s (List.filter (fun l -> l != l2) c))))
    (pairs c)
