(** Literals, clauses and the clause-level inference rules shared by the
    resolution engine, the term index and the fuzzer's naive reference
    engine. *)

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

let ground_lit (l : lit) : bool = List.for_all ground l.args
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

(* The normal form of a resolvent is read off its parents' literals
   without building the resolvent first: a literal of the partner clause
   has its variables shifted by {!Folterm.apart} (renaming it apart), and
   the unifier [s] is applied on the fly, a bound variable reading as its
   binding.  [off] is that shift: 0 or [apart]. *)

(* [compare] on the skeletons of two such terms, without building them:
   every unbound variable equals every other and sorts below any
   application, exactly as the polymorphic order ranks [V "?"] *)
let rec compare_blind (s : subst) (a : term) oa (b : term) ob : int =
  match a, b with
  | V x, _ ->
    let u = binding (x + oa) s in
    if u != unbound then compare_blind s u 0 b ob
    else begin
      match b with
      | V y ->
        let u = binding (y + ob) s in
        if u != unbound then compare_blind s a oa u 0 else 0
      | Fn _ -> -1
    end
  | Fn _, V y ->
    let u = binding (y + ob) s in
    if u != unbound then compare_blind s a oa u 0 else 1
  | Fn (f, xs), Fn (g, ys) ->
    let c = String.compare f g in
    if c <> 0 then c else compare_blind_list s xs oa ys ob

and compare_blind_list s xs oa ys ob =
  match xs, ys with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys ->
    let c = compare_blind s x oa y ob in
    if c <> 0 then c else compare_blind_list s xs oa ys ob

let compare_skeletons_in (s : subst) (l1 : lit) o1 (l2 : lit) o2 : int =
  let c = Bool.compare l1.sign l2.sign in
  if c <> 0 then c
  else
    let c = String.compare l1.pred l2.pred in
    if c <> 0 then c else compare_blind_list s l1.args o1 l2.args o2

(* one parent's literals in skeleton order (a stable sort) *)
let skeleton_sorted (s : subst) (off : int) (ls : clause) : clause =
  List.stable_sort (fun l1 l2 -> compare_skeletons_in s l1 off l2 off) ls

(* the variables numbered so far, newest first, and the next number *)
type numbering = { mutable seen : (int * int) list; mutable next : int }

let rec number (nb : numbering) (x : int) = function
  | [] ->
    let y = nb.next in
    nb.seen <- (x, y) :: nb.seen;
    nb.next <- y + 1;
    y
  | (x', y) :: rest -> if x = x' then y else number nb x rest

(* a term with [s] applied and its variables numbered: the unchanged
   parts are shared *)
let rec number_term s nb off (t : term) : term =
  match t with
  | V x ->
    let u = binding (x + off) s in
    if u != unbound then number_term s nb 0 u
    else
      let y = number nb (x + off) nb.seen in
      if y = x then t else V y
  | Fn (_, []) -> t
  | Fn (f, args) ->
    let args' = number_terms s nb off args in
    if args' == args then t else Fn (f, args')

and number_terms s nb off (ts : term list) : term list =
  match ts with
  | [] -> ts
  | t :: rest ->
    let t' = number_term s nb off t in
    let rest' = number_terms s nb off rest in
    if t' == t && rest' == rest then ts else t' :: rest'

let number_lit s nb off (l : lit) : lit =
  let args = number_terms s nb off l.args in
  if args == l.args then l else { l with args }

(* the stable merge of the two parents' sorted literals, numbered in
   that order: on a tie the first parent's literal goes first *)
let rec number_merged s nb (r1 : clause) (r2 : clause) : clause =
  match r1, r2 with
  | [], [] -> []
  | l1 :: r1', l2 :: r2' ->
    if compare_skeletons_in s l1 0 l2 apart <= 0 then
      let l = number_lit s nb 0 l1 in
      l :: number_merged s nb r1' r2
    else
      let l = number_lit s nb apart l2 in
      l :: number_merged s nb r1 r2'
  | l1 :: r1', [] ->
    let l = number_lit s nb 0 l1 in
    l :: number_merged s nb r1' r2
  | [], l2 :: r2' ->
    let l = number_lit s nb apart l2 in
    l :: number_merged s nb r1 r2'

(* Canonical form up to variable renaming: literals are first ordered by a
   variable-blind skeleton, variables are then renumbered 0, 1, ... in
   order of first occurrence in that sequence, and the renamed literals
   are sorted by {!compare_lit} (variable [i] ranking as the numeral of
   [i] does: 10 before 2).  Two clauses differing only in variable names
   (whatever order their literals arrived in) map to the same normal
   form, so a dedup table keyed on it catches renamed variants; the
   renaming is injective, so equal normal forms are always genuine
   variants.

   [normal_form s r1 r2] is the normal form of [r1 @ r2'] under [s],
   where [r2'] is [r2] renamed apart.  The skeleton order of [r1 @ r2']
   is the stable merge of the two parts' own orders; one pass then
   applies [s] and numbers each variable at its first occurrence. *)
let normal_form (s : subst) (r1 : clause) (r2 : clause) : clause =
  let c =
    number_merged s
      { seen = []; next = 0 }
      (skeleton_sorted s 0 r1) (skeleton_sorted s apart r2)
  in
  List.sort_uniq compare_lit c

let normalize_clause (c : clause) : clause = normal_form [] c []

(* Hashes over every symbol, for tables keyed on literals and normal
   forms: the polymorphic [Hashtbl.hash] stops after ten meaningful
   words, which covers little more than the first literal's sign and
   predicate, and sends every clause sharing a first literal to one
   bucket. *)
let mix h x = (h * 65599) + x

(* One walk over a literal's arguments hashes them, counts their symbols
   and notes whether a variable occurs; a clause's walk also sums its
   size, its non-[obj] literals and its hash. *)
type walk = {
  mutable syms : int;
  mutable ground : bool;
  mutable size : int;
  mutable lits : int;
  mutable hash : int;
}

let new_walk () = { syms = 0; ground = true; size = 0; lits = 0; hash = 0 }

let rec walk_term (w : walk) h = function
  | V x ->
    w.syms <- w.syms + 1;
    w.ground <- false;
    mix (mix h 1) x
  | Fn (f, args) ->
    w.syms <- w.syms + 1;
    walk_terms w (mix (mix h 2) (Hashtbl.hash f)) args

(* the arguments close with a mark, so that [f(g(a), b)] and
   [f(g(a, b))] differ *)
and walk_terms w h = function
  | [] -> mix h 3
  | t :: rest -> walk_terms w (walk_term w h t) rest

let walk_lit (w : walk) (l : lit) : int =
  w.syms <- 0;
  w.ground <- true;
  walk_terms w (mix (mix 0 (Bool.to_int l.sign)) (Hashtbl.hash l.pred)) l.args
  land max_int

let hash_lit (l : lit) : int = walk_lit (new_walk ()) l

(** What the engine reads off a generated clause, in one walk: its
    {!clause_size} and {!clause_lits}, a hash over every symbol (the
    dedup table's), and for each literal its {!hash_lit} if it is
    ground, else [-1]. *)
type profile = { size : int; lits : int; hash : int; ground : int list }

let rec walk_lits (w : walk) : clause -> int list = function
  | [] -> []
  | l :: rest ->
    let h = walk_lit w l in
    let g = if w.ground then h else -1 in
    if not (String.equal l.pred "obj") then begin
      w.size <- w.size + 1 + w.syms;
      w.lits <- w.lits + 1
    end;
    w.hash <- mix w.hash h;
    g :: walk_lits w rest

let profile (c : clause) : profile =
  let w = new_walk () in
  let ground = walk_lits w c in
  { size = w.size; lits = w.lits; hash = w.hash land max_int; ground }

(** Hash tables keyed on clauses paired with their {!profile} hash, so
    that a lookup followed by an insertion hashes the clause once. *)
module Tbl = Hashtbl.Make (struct
  type t = int * clause

  let equal (h1, c1) (h2, c2) = h1 = h2 && List.equal equal_lit c1 c2
  let hash (h, _) = h
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
    let u = binding x s in
    if u == unbound then (x, t) :: s
    else if equal_term u t then s
    else raise No_unifier)
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
          l1.sign = l2.sign
          && String.equal l1.pred l2.pred
          &&
          match List.fold_left2 match_term s l1.args l2.args with
          | s' -> go s' rest
          | exception (No_unifier | Invalid_argument _) -> false)
        c2
  in
  List.compare_lengths c1 c2 <= 0 && go [] c1

(* one binary resolvent on a chosen literal pair: [l1] is an occurrence in
   [c1], [l2] one in [c2] with the opposite sign and the same predicate;
   [c2] is renamed apart here.  Physical identity selects the occurrence
   to cut. *)
let resolve_on (c1 : clause) (l1 : lit) (c2 : clause) (l2 : lit) :
    clause option =
  (* neither [c2] renamed apart nor the unifier applied is built: the
     normal form reads both through the unifier *)
  match
    (try Some (List.fold_left2 unify_apart [] l1.args l2.args)
     with No_unifier | Invalid_argument _ -> None)
  with
  | None -> None
  | Some s ->
    Some
      (normal_form s
         (List.filter (fun l -> l != l1) c1)
         (List.filter (fun l -> l != l2) c2))

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
