(** Nelson-Oppen style SMT solver for quantifier-free formulas over
    uninterpreted functions and linear integer arithmetic (QF_UFLIA).

    This plays the role of the external provers Jahob reaches through its
    SMT-LIB interface.  Architecture: lazy DPLL(T) —

    + the input is checked for *validity* by refuting
      [hyps /\ ~goal];
    + atoms are purified: arithmetic atoms become {!Presburger.Linterm}
      constraints, non-arithmetic terms become ids in the call's one
      {!Euf.table}, and foreign subterms are replaced by shared
      purification variables;
    + a Tseitin encoding hands the boolean skeleton to the CDCL core
      ([lib/sat]); every boolean model is checked by congruence closure
      (one {!Euf.closure} per call, set up once the table is complete) +
      the Omega test, with Nelson-Oppen equality exchange between them;
    + theory conflicts come back as blocking clauses.

    Atoms outside the fragment (set operations, reachability, quantifiers)
    are treated as opaque propositional atoms.  That abstraction is sound
    for the [Valid] verdict; when a boolean model survives every theory
    check but the formula contains opaque atoms, the answer is [Unknown]
    rather than [Invalid]. *)

open Logic

module Linterm = Presburger.Linterm
module Omega = Presburger.Omega

(* ------------------------------------------------------------------ *)
(* Theory atoms                                                        *)
(* ------------------------------------------------------------------ *)

(* EUF terms are ids in the call's {!Euf.table} *)
type atom =
  | Arith of Linterm.t * [ `Le | `Eq ] (* t <= 0 or t = 0 *)
  | Equal of int * int (* equality of uninterpreted terms *)
  | Both of Linterm.t * int * int
      (* variable-variable equality, visible to both theories *)
  | Opaque of Form.t (* out-of-fragment atom *)

type context = {
  terms : Euf.table; (* every EUF term of this call *)
  mutable atoms : (atom * int) list; (* atom, SAT var; newest first *)
  atom_vars : int Form.Tbl.t; (* atom formula -> SAT var *)
  pair_vars : (int * int, int) Hashtbl.t;
      (* smaller id, larger id -> SAT var of the newest atom equating them *)
  mutable next_var : int;
  mutable bridges : (string * int) list;
      (* purification variable = foreign term *)
  purified : string Form.Tbl.t; (* term -> its purification variable *)
  mutable int_consts : (int * string) list; (* integer constants seen by EUF *)
  mutable arith_defs : (string * Linterm.t) list;
      (* purification variable = arithmetic term, always asserted *)
}

let fresh_ctx () =
  {
    terms = Euf.create ();
    atoms = [];
    atom_vars = Form.Tbl.create 64;
    pair_vars = Hashtbl.create 64;
    next_var = 0;
    bridges = [];
    purified = Form.Tbl.create 16;
    int_consts = [];
    arith_defs = [];
  }

let new_var ctx =
  ctx.next_var <- ctx.next_var + 1;
  ctx.next_var

(* ------------------------------------------------------------------ *)
(* Term translation                                                    *)
(* ------------------------------------------------------------------ *)

exception Out_of_fragment

(* Translate a formula term into an EUF term id; arithmetic subterms
   become purification variables constrained on the arithmetic side. *)
let rec euf_term ctx (f : Form.t) : int =
  let app = Euf.app ctx.terms in
  match Form.strip_types f with
  | Form.Var x -> Euf.const ctx.terms x
  | Form.Const Form.Null -> Euf.const ctx.terms "$null"
  | Form.Const (Form.IntLit n) ->
    let name = Printf.sprintf "$int_%d" n in
    if not (List.mem_assoc n ctx.int_consts) then
      ctx.int_consts <- (n, name) :: ctx.int_consts;
    Euf.const ctx.terms name
  | Form.Const (Form.BoolLit b) ->
    Euf.const ctx.terms (if b then "$true" else "$false")
  | Form.App (Form.Const Form.FieldRead, [ fld; obj ]) ->
    app "$read" [ euf_term ctx fld; euf_term ctx obj ]
  | Form.App (Form.Const Form.FieldWrite, [ fld; obj; v ]) ->
    app "$write" [ euf_term ctx fld; euf_term ctx obj; euf_term ctx v ]
  | Form.App (Form.Const Form.ArrayRead, [ a; o; i ]) ->
    app "$aread" [ euf_term ctx a; euf_term ctx o; euf_term ctx i ]
  | Form.App (Form.Const Form.ArrayWrite, [ a; o; i; v ]) ->
    app "$awrite"
      [ euf_term ctx a; euf_term ctx o; euf_term ctx i; euf_term ctx v ]
  | Form.App (Form.Var fn, args) -> app fn (List.map (euf_term ctx) args)
  | Form.App (Form.Const (Form.Plus | Form.Minus | Form.Mult | Form.Uminus), _)
    ->
    (* arithmetic inside an uninterpreted context: purify *)
    Euf.const ctx.terms (purify_arith ctx f)
  | Form.App (Form.Const Form.Ite, _)
  | Form.Const _ | Form.App _ | Form.Binder _ | Form.TypedForm _ ->
    raise Out_of_fragment

(* Name an arithmetic term with a shared variable (memoized). *)
and purify_arith ctx (f : Form.t) : string =
  match Form.Tbl.find_opt ctx.purified f with
  | Some v -> v
  | None ->
    let v = Form.fresh_name "$p" in
    Form.Tbl.add ctx.purified f v;
    (* keep v shared: it occurs as a constant on the EUF side and is
       defined by an always-asserted equation on the arithmetic side *)
    ctx.bridges <- (v, Euf.const ctx.terms "$arith") :: ctx.bridges;
    ctx.arith_defs <- (v, lin_of ctx f) :: ctx.arith_defs;
    v

(* Translate an integer-sorted term into a linear term; uninterpreted
   subterms become purification variables shared with EUF. *)
and lin_of ctx (f : Form.t) : Linterm.t =
  match Form.strip_types f with
  | Form.Var x -> Linterm.var x
  | Form.Const (Form.IntLit n) -> Linterm.const n
  | Form.App (Form.Const Form.Plus, [ a; b ]) ->
    Linterm.add (lin_of ctx a) (lin_of ctx b)
  | Form.App (Form.Const Form.Minus, [ a; b ]) ->
    Linterm.sub (lin_of ctx a) (lin_of ctx b)
  | Form.App (Form.Const Form.Uminus, [ a ]) -> Linterm.neg (lin_of ctx a)
  | Form.App (Form.Const Form.Mult, [ a; b ]) -> (
    (* only linear multiplication is in the fragment *)
    match Form.strip_types a, Form.strip_types b with
    | Form.Const (Form.IntLit n), _ -> Linterm.scale n (lin_of ctx b)
    | _, Form.Const (Form.IntLit n) -> Linterm.scale n (lin_of ctx a)
    | _, _ -> raise Out_of_fragment)
  | Form.App (Form.Const Form.Card, _) ->
    (* cardinalities belong to BAPA; out of this fragment *)
    raise Out_of_fragment
  | Form.App ((Form.Const (Form.FieldRead | Form.ArrayRead) | Form.Var _), _)
    ->
    (* uninterpreted integer-valued term: purify into a shared variable *)
    Linterm.var (purify_foreign ctx f)
  | Form.Const _ | Form.App _ | Form.Binder _ | Form.TypedForm _ ->
    raise Out_of_fragment

(* Replace a non-arithmetic term appearing in arithmetic position by a
   shared variable v, remembering the EUF bridge v = term. *)
and purify_foreign ctx (f : Form.t) : string =
  match Form.Tbl.find_opt ctx.purified f with
  | Some v -> v
  | None ->
    let v = Form.fresh_name "$p" in
    Form.Tbl.add ctx.purified f v;
    let t = euf_term ctx f in
    ctx.bridges <- (v, t) :: ctx.bridges;
    v

(* ------------------------------------------------------------------ *)
(* Atom translation                                                    *)
(* ------------------------------------------------------------------ *)

(* Is this term integer-sorted for our purposes? *)
let rec looks_arith (f : Form.t) : bool =
  match Form.strip_types f with
  | Form.Const (Form.IntLit _) -> true
  | Form.App
      (Form.Const (Form.Plus | Form.Minus | Form.Mult | Form.Uminus | Form.Card), _)
    ->
    true
  | Form.App (Form.Const Form.Ite, [ _; a; b ]) -> looks_arith a || looks_arith b
  | _ -> false

let translate_atom ctx (f : Form.t) : atom =
  match Form.strip_types f with
  | Form.App (Form.Const Form.Elem, [ x; st ]) ->
    (* memberships become EUF boolean terms so that equality congruence
       connects them: x = y entails (x in S) = (y in S) *)
    Equal
      ( Euf.app ctx.terms "$elem" [ euf_term ctx x; euf_term ctx st ],
        Euf.const ctx.terms "$true" )
  | Form.App (Form.Const Form.Le, [ a; b ]) ->
    Arith (Linterm.sub (lin_of ctx a) (lin_of ctx b), `Le)
  | Form.App (Form.Const Form.Lt, [ a; b ]) ->
    Arith
      ( Linterm.add (Linterm.sub (lin_of ctx a) (lin_of ctx b)) (Linterm.const 1),
        `Le )
  | Form.App (Form.Const Form.Ge, [ a; b ]) ->
    Arith (Linterm.sub (lin_of ctx b) (lin_of ctx a), `Le)
  | Form.App (Form.Const Form.Gt, [ a; b ]) ->
    Arith
      ( Linterm.add (Linterm.sub (lin_of ctx b) (lin_of ctx a)) (Linterm.const 1),
        `Le )
  | Form.App (Form.Const Form.Eq, [ a; b ]) -> (
    if looks_arith a || looks_arith b then
      Arith (Linterm.sub (lin_of ctx a) (lin_of ctx b), `Eq)
    else
      match Form.strip_types a, Form.strip_types b with
      | Form.Var x, Form.Var y ->
        (* sort unknown: expose the equality to both theories *)
        Both
          ( Linterm.sub (Linterm.var x) (Linterm.var y),
            Euf.const ctx.terms x,
            Euf.const ctx.terms y )
      | _ -> Equal (euf_term ctx a, euf_term ctx b))
  | _ -> raise Out_of_fragment

let pair x y = if x <= y then (x, y) else (y, x)

(* Record a new atom; an EUF equality also answers for its id pair, so
   that {!euf_atom_var} finds the newest atom equating the two terms *)
let add_atom ctx a =
  let v = new_var ctx in
  ctx.atoms <- (a, v) :: ctx.atoms;
  (match a with
  | Equal (x, y) | Both (_, x, y) -> Hashtbl.replace ctx.pair_vars (pair x y) v
  | Arith _ | Opaque _ -> ());
  v

(* Find or create the SAT variable for an atom formula. *)
let atom_var ctx (f : Form.t) : int =
  match Form.Tbl.find_opt ctx.atom_vars f with
  | Some v -> v
  | None ->
    let a = try translate_atom ctx f with Out_of_fragment -> Opaque f in
    let v = add_atom ctx a in
    Form.Tbl.add ctx.atom_vars f v;
    v

(* ------------------------------------------------------------------ *)
(* Tseitin CNF                                                         *)
(* ------------------------------------------------------------------ *)

(* Returns the literal representing f; clauses are accumulated. *)
let rec tseitin ctx clauses (f : Form.t) : int =
  match Form.strip_types f with
  | Form.Const (Form.BoolLit true) ->
    let v = new_var ctx in
    clauses := [ v ] :: !clauses;
    v
  | Form.Const (Form.BoolLit false) ->
    let v = new_var ctx in
    clauses := [ -v ] :: !clauses;
    v
  | Form.App (Form.Const Form.Not, [ g ]) -> -tseitin ctx clauses g
  | Form.App (Form.Const Form.And, gs) ->
    let lits = List.map (tseitin ctx clauses) gs in
    let v = new_var ctx in
    List.iter (fun l -> clauses := [ -v; l ] :: !clauses) lits;
    clauses := (v :: List.map (fun l -> -l) lits) :: !clauses;
    v
  | Form.App (Form.Const Form.Or, gs) ->
    let lits = List.map (tseitin ctx clauses) gs in
    let v = new_var ctx in
    List.iter (fun l -> clauses := [ v; -l ] :: !clauses) lits;
    clauses := (-v :: lits) :: !clauses;
    v
  | Form.App (Form.Const Form.Impl, [ a; b ]) ->
    tseitin ctx clauses (Form.mk_or [ Form.mk_not a; b ])
  | Form.App (Form.Const Form.Iff, [ a; b ]) ->
    let la = tseitin ctx clauses a and lb = tseitin ctx clauses b in
    let v = new_var ctx in
    clauses :=
      [ -v; -la; lb ] :: [ -v; la; -lb ] :: [ v; la; lb ]
      :: [ v; -la; -lb ] :: !clauses;
    v
  | Form.App (Form.Const Form.Ite, [ c; a; b ])
    when not (looks_arith a || looks_arith b) ->
    (* boolean if-then-else *)
    tseitin ctx clauses
      (Form.mk_and [ Form.mk_impl c a; Form.mk_impl (Form.mk_not c) b ])
  | _ -> atom_var ctx f

(* ------------------------------------------------------------------ *)
(* Read-over-write axiom instantiation                                  *)
(* ------------------------------------------------------------------ *)

(* Congruence closure treats $read/$write as uninterpreted, so the array
   axioms are instantiated eagerly as boolean clauses:

     G = write(F,Y,V) & X = Y  -->  read(G,X) = V
     G = write(F,Y,V) & X <> Y -->  read(G,X) = read(F,X)

   for every read/write pair in the formula, iterated to a shallow
   fixpoint (new reads appear on the right-hand side of the second
   axiom). *)

(* SAT variable for an EUF equality atom, deduplicated symmetrically. *)
let euf_atom_var ctx x y : int =
  match Hashtbl.find_opt ctx.pair_vars (pair x y) with
  | Some v -> v
  | None -> add_atom ctx (Equal (x, y))

(* The lemma walk's table of terms seen so far, keyed by id and hashed
   like the term the id names: the walk iterates this table, so keying it
   this way keeps the iteration order, and with it atom order and SAT
   variable numbers, that of a table keyed by the terms themselves. *)
module Seen = Hashtbl.Make (struct
  type t = int * int (* hash of the term, its id *)

  let equal (_, i) (_, j) = Int.equal i j
  let hash (h, _) = h
end)

let instantiate_array_lemmas ctx (clauses : int list list ref) : unit =
  let terms = ctx.terms in
  let seen_terms = Seen.create 64 in
  let frontier = ref [] in
  let rec note t =
    let key = (Hashtbl.hash (Euf.term terms t), t) in
    if not (Seen.mem seen_terms key) then begin
      Seen.add seen_terms key ();
      frontier := t :: !frontier;
      List.iter note (Euf.args terms t)
    end
  in
  List.iter
    (fun (a, _) ->
      match a with
      | Equal (x, y) | Both (_, x, y) ->
        note x;
        note y
      | Arith _ | Opaque _ -> ())
    ctx.atoms;
  List.iter (fun (_, t) -> note t) ctx.bridges;
  let has sym arity t =
    String.equal (Euf.symbol terms t) sym
    && List.compare_length_with (Euf.args terms t) arity = 0
  in
  let all sym arity =
    Seen.fold
      (fun (_, t) () acc -> if has sym arity t then t :: acc else acc)
      seen_terms []
  in
  let instantiated = Hashtbl.create 16 in
  let rounds = ref 0 in
  while !frontier <> [] && !rounds < 4 do
    incr rounds;
    let batch = Hashtbl.create 16 in
    List.iter (fun t -> Hashtbl.replace batch t ()) !frontier;
    frontier := [];
    (* only pairs where at least one side is new this round *)
    let fresh t = Hashtbl.mem batch t in
    let pairs reads writes lemma =
      List.iter
        (fun r ->
          List.iter
            (fun w ->
              if (fresh r || fresh w) && not (Hashtbl.mem instantiated (r, w))
              then begin
                Hashtbl.add instantiated (r, w) ();
                lemma r w
              end)
            writes)
        reads
    in
    pairs (all "$read" 2) (all "$write" 3) (fun r w ->
        match Euf.args terms r, Euf.args terms w with
        | [ g; x ], [ f; y; v ] ->
          let eq_gw = euf_atom_var ctx g w in
          let eq_xy = euf_atom_var ctx x y in
          let eq_rv = euf_atom_var ctx r v in
          let r' = Euf.app terms "$read" [ f; x ] in
          note r';
          let eq_rr' = euf_atom_var ctx r r' in
          clauses := [ -eq_gw; -eq_xy; eq_rv ] :: !clauses;
          clauses := [ -eq_gw; eq_xy; eq_rr' ] :: !clauses
        | _ -> ());
    (* two-dimensional array variant: aread/awrite over (object, index) *)
    pairs (all "$aread" 3) (all "$awrite" 4) (fun r w ->
        match Euf.args terms r, Euf.args terms w with
        | [ g; o; i ], [ f; o'; i'; v ] ->
          let eq_gw = euf_atom_var ctx g w in
          let eq_oo = euf_atom_var ctx o o' in
          let eq_ii = euf_atom_var ctx i i' in
          let eq_rv = euf_atom_var ctx r v in
          let r' = Euf.app terms "$aread" [ f; o; i ] in
          note r';
          let eq_rr' = euf_atom_var ctx r r' in
          (* same cell: value read back *)
          clauses := [ -eq_gw; -eq_oo; -eq_ii; eq_rv ] :: !clauses;
          (* different object or different index: old value *)
          clauses := [ -eq_gw; eq_oo; eq_rr' ] :: !clauses;
          clauses := [ -eq_gw; eq_ii; eq_rr' ] :: !clauses
        | _ -> ())
  done;
  (* The heap convention [null..f = null]: every read of a program field
     variable at an object equal to null yields null.  The FOL prover
     asserts the same axiom for 0-ary field constants and the MONA route
     builds it into the word model; without it the SMT side claims
     countermodels that are not models of the intended heap semantics.
     Write-terms are exempt — [fieldWrite] is interpreted literally by
     every party (reads through a write chain still reduce to a base-field
     read by the lemmas above and are then covered). *)
  let null_t = Euf.const terms "$null" in
  Seen.iter
    (fun (_, t) () ->
      match Euf.args terms t with
      | [ fld; x ]
        when has "$read" 2 t && Euf.args terms fld = []
             &&
             let fname = Euf.symbol terms fld in
             String.length fname > 0 && fname.[0] <> '$' ->
        let eq_x_null = euf_atom_var ctx x null_t in
        let eq_r_null = euf_atom_var ctx t null_t in
        clauses := [ -eq_x_null; eq_r_null ] :: !clauses
      | _ -> ())
    seen_terms

(* ------------------------------------------------------------------ *)
(* Theory checking                                                     *)
(* ------------------------------------------------------------------ *)

type theory_result =
  | Consistent of bool (* true when only interpreted atoms were involved *)
  | Conflict

(* What every theory check of one [check_sat] shares, computed once the
   term table is complete *)
type theory = {
  ctx : context;
  cc : Euf.closure; (* over every term of [ctx.terms] *)
  bridge_eqs : (int * int) list;
      (* v = t links the arith variable v with EUF term t *)
  int_diseqs : (int * int) list; (* distinct integer constants *)
}

let theory ctx =
  let terms = ctx.terms in
  let bridge_eqs =
    List.filter_map
      (fun (v, t) ->
        if String.equal (Euf.symbol terms t) "$arith" then None
        else Some (Euf.const terms v, t))
      ctx.bridges
  in
  let rec int_diseqs = function
    | [] -> []
    | (n1, v1) :: rest ->
      List.filter_map
        (fun (n2, v2) ->
          if n1 <> n2 then Some (Euf.const terms v1, Euf.const terms v2)
          else None)
        rest
      @ int_diseqs rest
  in
  let int_diseqs = int_diseqs ctx.int_consts in
  (* the closure last: the table is complete only now *)
  { ctx; cc = Euf.closure terms; bridge_eqs; int_diseqs }

(* The arithmetic side of an assignment: its linear atoms, with the
   definitions and the integer constants, and the variables (with their
   term ids) they share with the EUF literals [euf_lits] *)
let arith_side ctx (assigned : (atom * bool) list)
    (euf_lits : (int * int) list) =
  (* variables genuinely involved in arithmetic; a var-var equality over
     objects has no business on the arithmetic side (it would only blow up
     the disequality case splits) *)
  let arith_vars =
    let from_atoms =
      List.concat_map
        (fun (a, _) ->
          match a with Arith (t, _) -> Linterm.variables t | _ -> [])
        assigned
    in
    let from_defs =
      List.concat_map
        (fun (v, t) -> v :: Linterm.variables t)
        ctx.arith_defs
    in
    List.sort_uniq String.compare (from_atoms @ from_defs)
  in
  let arith_atoms =
    List.concat_map
      (fun (a, sign) ->
        match a with
        | Arith (t, op) -> [ (t, op, sign) ]
        | Both (t, _, _)
          when List.exists (fun v -> List.mem v arith_vars) (Linterm.variables t)
          ->
          [ (t, `Eq, sign) ]
        | Both _ | Equal _ | Opaque _ -> [])
      assigned
  in
  let arith_atoms =
    arith_atoms
    @ List.map
        (fun (v, t) -> (Linterm.sub (Linterm.var v) t, `Eq, true))
        ctx.arith_defs
  in
  let int_eq_constraints =
    (* tie $int_n names to their arithmetic values *)
    List.map
      (fun (n, v) -> (Linterm.sub (Linterm.var v) (Linterm.const n), `Eq, true))
      ctx.int_consts
  in
  let arith_atoms = arith_atoms @ int_eq_constraints in
  (* shared variables: appear on the arithmetic side and as EUF constants *)
  let shared_vars =
    let arith_vars =
      List.sort_uniq String.compare
        (List.concat_map (fun (t, _, _) -> Linterm.variables t) arith_atoms)
    in
    let euf_side = Hashtbl.create 16 in
    let rec euf_consts t =
      match Euf.args ctx.terms t with
      | [] -> Hashtbl.replace euf_side (Euf.symbol ctx.terms t) t
      | args -> List.iter euf_consts args
    in
    List.iter
      (fun (x, y) ->
        euf_consts x;
        euf_consts y)
      euf_lits;
    List.filter_map
      (fun v -> Option.map (fun t -> (v, t)) (Hashtbl.find_opt euf_side v))
      arith_vars
  in
  (arith_atoms, shared_vars)

(* Check the conjunction of assigned theory literals, with Nelson-Oppen
   equality exchange between EUF and LIA.  Most assignments fail EUF's
   first check, so the arithmetic side is built only once EUF accepts
   the assignment. *)
let theory_check th (assigned : (atom * bool) list) : theory_result =
  let euf_eqs =
    List.filter_map
      (fun (a, sign) ->
        match a, sign with
        | Equal (x, y), true | Both (_, x, y), true -> Some (x, y)
        | _ -> None)
      assigned
  in
  let euf_diseqs =
    List.filter_map
      (fun (a, sign) ->
        match a, sign with
        | Equal (x, y), false | Both (_, x, y), false -> Some (x, y)
        | _ -> None)
      assigned
  in
  let has_opaque =
    List.exists (fun (a, _) -> match a with Opaque _ -> true | _ -> false)
      assigned
  in
  let ctx = th.ctx in
  let diseqs = euf_diseqs @ th.int_diseqs in
  let arith =
    lazy (arith_side ctx assigned (euf_eqs @ euf_diseqs @ th.bridge_eqs))
  in
  (* iterate equality exchange to a fixpoint *)
  let rec loop known_eqs iterations =
    if iterations > 8 then Consistent has_opaque
    else
      let all_eqs = euf_eqs @ th.bridge_eqs @ known_eqs in
      match Euf.close th.cc ~eqs:all_eqs ~diseqs with
      | None -> Conflict
      | Some rep ->
        let arith_atoms, shared_vars = Lazy.force arith in
        (* equalities implied by EUF between shared variables *)
        let arith_eqs_from_euf =
          List.map
            (fun (x, y) ->
              let var t = Linterm.var (Euf.symbol ctx.terms t) in
              (Linterm.sub (var x) (var y), `Eq, true))
            (Euf.implied_equalities rep (List.map snd shared_vars))
        in
        let constraints = arith_atoms @ arith_eqs_from_euf in
        let eqs, ineqs, neg_eqs =
          List.fold_left
            (fun (eqs, ineqs, negs) (t, op, sign) ->
              match op, sign with
              | `Le, true -> (eqs, t :: ineqs, negs)
              | `Le, false ->
                (* ~(t <= 0) <=> -t + 1 <= 0 *)
                (eqs, Linterm.add (Linterm.neg t) (Linterm.const 1) :: ineqs, negs)
              | `Eq, true -> (t :: eqs, ineqs, negs)
              | `Eq, false -> (eqs, ineqs, t :: negs))
            ([], [], []) constraints
        in
        (* disequalities need case splits (LIA is non-convex); cap the split
           width to keep this predictable *)
        let rec split_negs negs eqs ineqs =
          match negs with
          | [] -> (
            match Omega.check_terms ~eqs ~ineqs () with
            | Omega.Unsat -> None
            | Omega.Sat -> Some (eqs, ineqs)
            | exception Presburger.Omega.Fuel_exhausted ->
              (* inconclusive: treat as consistent, never as a proof *)
              Some (eqs, ineqs))
          | t :: rest -> (
            (* t < 0 or t > 0 *)
            match
              split_negs rest eqs (Linterm.add t (Linterm.const 1) :: ineqs)
            with
            | Some r -> Some r
            | None ->
              split_negs rest eqs
                (Linterm.add (Linterm.neg t) (Linterm.const 1) :: ineqs))
        in
        if List.length neg_eqs > 6 then Consistent has_opaque (* give up *)
        else
          match split_negs neg_eqs eqs ineqs with
          | None -> Conflict
          | Some _ ->
            (* equalities implied by arithmetic between shared vars (a pair
               is forced equal when both strict orders are infeasible);
               feed them back to EUF.  Note: sound but incomplete for
               non-convex combinations needing disjunctive splits. *)
            let forced =
              let pairs =
                let rec all = function
                  | [] -> []
                  | x :: rest -> List.map (fun y -> (x, y)) rest @ all rest
                in
                all shared_vars
              in
              List.filter
                (fun ((a, _), (b, _)) ->
                  let d = Linterm.sub (Linterm.var a) (Linterm.var b) in
                  let lt = Linterm.add d (Linterm.const 1) in
                  let gt = Linterm.add (Linterm.neg d) (Linterm.const 1) in
                  try
                    Omega.check_terms ~eqs ~ineqs:(lt :: ineqs) ()
                    = Omega.Unsat
                    && Omega.check_terms ~eqs ~ineqs:(gt :: ineqs) ()
                       = Omega.Unsat
                  with Presburger.Omega.Fuel_exhausted -> false)
                pairs
            in
            let new_eqs =
              List.filter_map
                (fun ((_, ta), (_, tb)) ->
                  let already =
                    List.exists
                      (fun (x, y) ->
                        (x = ta && y = tb) || (x = tb && y = ta))
                      known_eqs
                  in
                  if already then None else Some (ta, tb))
                forced
            in
            if new_eqs = [] then Consistent has_opaque
            else loop (new_eqs @ known_eqs) (iterations + 1)
  in
  loop [] 0

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let max_theory_rounds = 2000

(** Decide satisfiability of a quantifier-free formula (with opaque
    abstraction of out-of-fragment atoms).  The formula is taken as
    simplified: {!prove} passes {!Sequent.refutand}, which is. *)
let check_sat (f : Form.t) : [ `Sat of bool | `Unsat ] =
  (* `Sat b: b = true means the model involved no opaque atoms *)
  let ctx = fresh_ctx () in
  let clauses = ref [] in
  let root = tseitin ctx clauses f in
  instantiate_array_lemmas ctx clauses;
  let solver = Sat.create () in
  let ok = List.for_all (fun c -> Sat.add_clause solver c) !clauses in
  let ok = ok && Sat.add_clause solver [ root ] in
  if not ok then `Unsat
  else begin
    let th = theory ctx in
    let last_round = ref 0 in
    (* search counters, published once per call as [smt.theory_checks]
       (every theory check, minimization included) and [smt.conflicts]
       (boolean models the theory refuted, one blocking clause each) *)
    let checks = ref 0 and conflicts = ref 0 in
    let theory_check assigned =
      incr checks;
      theory_check th assigned
    in
    let rec loop rounds precise_so_far =
      Deadline.check ();
      last_round := rounds;
      if rounds > max_theory_rounds then `Sat false
      else
        match Sat.solve solver with
        | Sat.Unsat -> `Unsat
        | Sat.Sat m ->
          let assigned_full =
            List.map (fun (a, v) -> (a, v, Sat.lit_true m v)) ctx.atoms
          in
          let assigned = List.map (fun (a, _, b) -> (a, b)) assigned_full in
          (match theory_check assigned with
          | Consistent has_opaque ->
            `Sat (not has_opaque && precise_so_far)
          | Conflict ->
            incr conflicts;
            (* greedily minimize the conflicting literal set so the
               blocking clause prunes a whole family of boolean models,
               not just this one (poor man's unsat core) *)
            let theory_lits =
              List.filter
                (fun (a, _, _) -> match a with Opaque _ -> false | _ -> true)
                assigned_full
            in
            let core = ref theory_lits in
            List.iter
              (fun lit ->
                let without = List.filter (fun l -> not (l == lit)) !core in
                let still_conflicts =
                  theory_check (List.map (fun (a, _, b) -> (a, b)) without)
                  = Conflict
                in
                if still_conflicts then core := without)
              theory_lits;
            let blocking =
              List.map (fun (_, v, b) -> if b then -v else v) !core
            in
            if blocking = [] then `Sat precise_so_far
            else if Sat.add_clause solver blocking then
              loop (rounds + 1) precise_so_far
            else `Unsat)
    in
    let r = loop 0 true in
    Trace.instant ~cat:"smt"
      ~args:(fun () ->
        [ ("rounds", Trace.I !last_round);
          ("atoms", Trace.I (List.length ctx.atoms)) ])
      "theory-rounds";
    Trace.add "smt.theory_checks" !checks;
    Trace.add "smt.conflicts" !conflicts;
    r
  end

(** Does the sequent lie entirely within the QF_UFLIA (plus
    memberships-as-EUF) fragment?  True exactly when Tseitin translation
    of the refutand produces no opaque atoms — the condition under which
    [prove] would trust a countermodel enough to answer [Invalid]. *)
let in_fragment (s : Sequent.t) : bool =
  let f = Sequent.refutand s in
  let ctx = fresh_ctx () in
  let clauses = ref [] in
  match tseitin ctx clauses f with
  | _ ->
    List.for_all
      (fun (a, _) -> match a with Opaque _ -> false | _ -> true)
      ctx.atoms
  | exception Out_of_fragment -> false

(** Prove a sequent by refuting hypotheses + negated goal. *)
let prove (s : Sequent.t) : Sequent.verdict =
  match check_sat (Sequent.refutand s) with
  | `Unsat -> Sequent.Valid
  | `Sat true -> Sequent.Invalid "SMT found a theory-consistent countermodel"
  | `Sat false ->
    Sequent.Unknown "boolean model involves atoms outside QF_UFLIA"
  | exception Out_of_fragment ->
    Sequent.Unknown "formula outside the SMT fragment"

(* the portfolio entry: [prove] on the sequent saturated with ground
   instances of its quantified and set-valued hypotheses.  Its fresh
   names (saturation mints a witness per call) are renumbered first: the
   array lemmas walk a hash table keyed by terms, so atom order, and with
   it the search, would otherwise follow the process-wide fresh counter *)
let prover : Sequent.prover =
  Sequent.traced_prover
    { prover_name = "smt";
      prove =
        (fun s -> prove (Sequent.renumber_fresh (Instantiate.saturate s))) }
