(** Nelson-Oppen style SMT solver for quantifier-free formulas over
    uninterpreted functions and linear integer arithmetic (QF_UFLIA).

    This plays the role of the external provers Jahob reaches through its
    SMT-LIB interface.  Architecture: lazy DPLL(T) —

    + the input is checked for *validity* by refuting
      [hyps /\ ~goal];
    + atoms are purified: arithmetic atoms become {!Presburger.Linterm}
      constraints, non-arithmetic terms become EUF terms, and foreign
      subterms are replaced by shared purification variables;
    + a Tseitin encoding hands the boolean skeleton to the CDCL core
      ([lib/sat]); every boolean model is checked by congruence closure +
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

type atom =
  | Arith of Linterm.t * [ `Le | `Eq ] (* t <= 0 or t = 0 *)
  | Equal of Euf.term * Euf.term (* equality of uninterpreted terms *)
  | Both of Linterm.t * Euf.term * Euf.term
      (* variable-variable equality, visible to both theories *)
  | Opaque of Form.t (* out-of-fragment atom *)

type context = {
  mutable atoms : (Form.t * atom * int) list; (* formula, atom, SAT var *)
  mutable next_var : int;
  mutable bridges : (string * Euf.term) list;
      (* purification variable = foreign term *)
  mutable purify_memo : (Form.t * string) list;
  mutable int_consts : (int * string) list; (* integer constants seen by EUF *)
  mutable arith_defs : (string * Linterm.t) list;
      (* purification variable = arithmetic term, always asserted *)
}

let fresh_ctx () =
  {
    atoms = [];
    next_var = 0;
    bridges = [];
    purify_memo = [];
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

(* Translate a formula term into an EUF term; arithmetic subterms become
   purification variables constrained on the arithmetic side. *)
let rec euf_term ctx (f : Form.t) : Euf.term =
  match Form.strip_types f with
  | Form.Var x -> Euf.Sym (x, [])
  | Form.Const Form.Null -> Euf.Sym ("$null", [])
  | Form.Const (Form.IntLit n) ->
    let name = Printf.sprintf "$int_%d" n in
    if not (List.mem_assoc n ctx.int_consts) then
      ctx.int_consts <- (n, name) :: ctx.int_consts;
    Euf.Sym (name, [])
  | Form.Const (Form.BoolLit b) ->
    Euf.Sym ((if b then "$true" else "$false"), [])
  | Form.App (Form.Const Form.FieldRead, [ fld; obj ]) ->
    Euf.Sym ("$read", [ euf_term ctx fld; euf_term ctx obj ])
  | Form.App (Form.Const Form.FieldWrite, [ fld; obj; v ]) ->
    Euf.Sym ("$write", [ euf_term ctx fld; euf_term ctx obj; euf_term ctx v ])
  | Form.App (Form.Const Form.ArrayRead, [ a; o; i ]) ->
    Euf.Sym ("$aread", [ euf_term ctx a; euf_term ctx o; euf_term ctx i ])
  | Form.App (Form.Const Form.ArrayWrite, [ a; o; i; v ]) ->
    Euf.Sym
      ( "$awrite",
        [ euf_term ctx a; euf_term ctx o; euf_term ctx i; euf_term ctx v ] )
  | Form.App (Form.Var fn, args) ->
    Euf.Sym (fn, List.map (euf_term ctx) args)
  | Form.App (Form.Const (Form.Plus | Form.Minus | Form.Mult | Form.Uminus), _)
    ->
    (* arithmetic inside an uninterpreted context: purify *)
    Euf.Sym (purify_arith ctx f, [])
  | Form.App (Form.Const Form.Ite, _)
  | Form.Const _ | Form.App _ | Form.Binder _ | Form.TypedForm _ ->
    raise Out_of_fragment

(* Name an arithmetic term with a shared variable (memoized). *)
and purify_arith ctx (f : Form.t) : string =
  match
    List.find_opt (fun (g, _) -> Form.equal f g) ctx.purify_memo
  with
  | Some (_, v) -> v
  | None ->
    let v = Form.fresh_name "$p" in
    ctx.purify_memo <- (f, v) :: ctx.purify_memo;
    (* keep v shared: it occurs as a constant on the EUF side and is
       defined by an always-asserted equation on the arithmetic side *)
    ctx.bridges <- (v, Euf.Sym ("$arith", [])) :: ctx.bridges;
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
  match List.find_opt (fun (g, _) -> Form.equal f g) ctx.purify_memo with
  | Some (_, v) -> v
  | None ->
    let v = Form.fresh_name "$p" in
    ctx.purify_memo <- (f, v) :: ctx.purify_memo;
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
      (Euf.Sym ("$elem", [ euf_term ctx x; euf_term ctx st ]),
       Euf.Sym ("$true", []))
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
            Euf.Sym (x, []),
            Euf.Sym (y, []) )
      | _ -> Equal (euf_term ctx a, euf_term ctx b))
  | _ -> raise Out_of_fragment

(* Find or create the SAT variable for an atom formula. *)
let atom_var ctx (f : Form.t) : int =
  match List.find_opt (fun (g, _, _) -> Form.equal f g) ctx.atoms with
  | Some (_, _, v) -> v
  | None ->
    let a = try translate_atom ctx f with Out_of_fragment -> Opaque f in
    let v = new_var ctx in
    ctx.atoms <- (f, a, v) :: ctx.atoms;
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
let euf_atom_var ctx (x : Euf.term) (y : Euf.term) : int =
  let x, y = if Euf.term_to_string x <= Euf.term_to_string y then (x, y) else (y, x) in
  let existing =
    List.find_opt
      (fun (_, a, _) ->
        match a with
        | Equal (u, v) | Both (_, u, v) -> (u = x && v = y) || (u = y && v = x)
        | Arith _ | Opaque _ -> false)
      ctx.atoms
  in
  match existing with
  | Some (_, _, v) -> v
  | None ->
    let key =
      Form.mk_eq
        (Form.Var ("$t:" ^ Euf.term_to_string x))
        (Form.Var ("$t:" ^ Euf.term_to_string y))
    in
    let v = new_var ctx in
    ctx.atoms <- (key, Equal (x, y), v) :: ctx.atoms;
    v

let instantiate_array_lemmas ctx (clauses : int list list ref) : unit =
  let seen_terms : (Euf.term, unit) Hashtbl.t = Hashtbl.create 64 in
  let frontier = ref [] in
  let rec note (Euf.Sym (_, args) as t) =
    if not (Hashtbl.mem seen_terms t) then begin
      Hashtbl.add seen_terms t ();
      frontier := t :: !frontier;
      List.iter note args
    end
  in
  List.iter
    (fun (_, a, _) ->
      match a with
      | Equal (x, y) | Both (_, x, y) ->
        note x;
        note y
      | Arith _ | Opaque _ -> ())
    ctx.atoms;
  List.iter (fun (_, t) -> note t) ctx.bridges;
  let instantiated = Hashtbl.create 16 in
  let rounds = ref 0 in
  while !frontier <> [] && !rounds < 4 do
    incr rounds;
    let batch = !frontier in
    frontier := [];
    let all () = Hashtbl.fold (fun t () acc -> t :: acc) seen_terms [] in
    let reads =
      List.filter
        (fun t -> match t with Euf.Sym ("$read", [ _; _ ]) -> true | _ -> false)
        (all ())
    in
    let writes =
      List.filter
        (fun t ->
          match t with Euf.Sym ("$write", [ _; _; _ ]) -> true | _ -> false)
        (all ())
    in
    (* only pairs where at least one side is new this round *)
    let fresh t = List.mem t batch in
    List.iter
      (fun r ->
        List.iter
          (fun w ->
            if (fresh r || fresh w) && not (Hashtbl.mem instantiated (r, w))
            then begin
              Hashtbl.add instantiated (r, w) ();
              match r, w with
              | ( Euf.Sym ("$read", [ g; x ]),
                  Euf.Sym ("$write", [ f; y; v ]) ) ->
                let eq_gw = euf_atom_var ctx g w in
                let eq_xy = euf_atom_var ctx x y in
                let eq_rv = euf_atom_var ctx r v in
                let r' = Euf.Sym ("$read", [ f; x ]) in
                note r';
                let eq_rr' = euf_atom_var ctx r r' in
                clauses := [ -eq_gw; -eq_xy; eq_rv ] :: !clauses;
                clauses := [ -eq_gw; eq_xy; eq_rr' ] :: !clauses
              | _ -> ()
            end)
          writes)
      reads;
    (* two-dimensional array variant: aread/awrite over (object, index) *)
    let areads =
      List.filter
        (fun t ->
          match t with Euf.Sym ("$aread", [ _; _; _ ]) -> true | _ -> false)
        (all ())
    in
    let awrites =
      List.filter
        (fun t ->
          match t with
          | Euf.Sym ("$awrite", [ _; _; _; _ ]) -> true
          | _ -> false)
        (all ())
    in
    List.iter
      (fun r ->
        List.iter
          (fun w ->
            if (fresh r || fresh w) && not (Hashtbl.mem instantiated (r, w))
            then begin
              Hashtbl.add instantiated (r, w) ();
              match r, w with
              | ( Euf.Sym ("$aread", [ g; o; i ]),
                  Euf.Sym ("$awrite", [ f; o'; i'; v ]) ) ->
                let eq_gw = euf_atom_var ctx g w in
                let eq_oo = euf_atom_var ctx o o' in
                let eq_ii = euf_atom_var ctx i i' in
                let eq_rv = euf_atom_var ctx r v in
                let r' = Euf.Sym ("$aread", [ f; o; i ]) in
                note r';
                let eq_rr' = euf_atom_var ctx r r' in
                (* same cell: value read back *)
                clauses := [ -eq_gw; -eq_oo; -eq_ii; eq_rv ] :: !clauses;
                (* different object or different index: old value *)
                clauses := [ -eq_gw; eq_oo; eq_rr' ] :: !clauses;
                clauses := [ -eq_gw; eq_ii; eq_rr' ] :: !clauses
              | _ -> ()
            end)
          awrites)
      areads
  done;
  (* The heap convention [null..f = null]: every read of a program field
     variable at an object equal to null yields null.  The FOL prover
     asserts the same axiom for 0-ary field constants and the MONA route
     builds it into the word model; without it the SMT side claims
     countermodels that are not models of the intended heap semantics.
     Write-terms are exempt — [fieldWrite] is interpreted literally by
     every party (reads through a write chain still reduce to a base-field
     read by the lemmas above and are then covered). *)
  let null_t = Euf.Sym ("$null", []) in
  Hashtbl.iter
    (fun t () ->
      match t with
      | Euf.Sym ("$read", [ Euf.Sym (fname, []); x ])
        when String.length fname > 0 && fname.[0] <> '$' ->
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

(* Check the conjunction of assigned theory literals, with Nelson-Oppen
   equality exchange between EUF and LIA. *)
let theory_check ctx (assigned : (atom * bool) list) : theory_result =
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
    List.sort_uniq compare (from_atoms @ from_defs)
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
  (* bridge equalities: v = t links the arith variable v with EUF term t *)
  let bridge_eqs =
    List.filter_map
      (fun (v, t) ->
        match t with
        | Euf.Sym ("$arith", []) -> None
        | _ -> Some (Euf.Sym (v, []), t))
      ctx.bridges
  in
  (* distinct integer constants are distinct in EUF *)
  let rec int_diseqs = function
    | [] -> []
    | (n1, v1) :: rest ->
      List.filter_map
        (fun (n2, v2) ->
          if n1 <> n2 then Some (Euf.Sym (v1, []), Euf.Sym (v2, [])) else None)
        rest
      @ int_diseqs rest
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
      List.sort_uniq compare
        (List.concat_map (fun (t, _, _) -> Linterm.variables t) arith_atoms)
    in
    let rec euf_consts acc (Euf.Sym (f, args)) =
      let acc = if args = [] then f :: acc else acc in
      List.fold_left euf_consts acc args
    in
    let euf_side =
      List.fold_left
        (fun acc (x, y) -> euf_consts (euf_consts acc x) y)
        []
        (euf_eqs @ euf_diseqs @ bridge_eqs)
    in
    let euf_side = List.sort_uniq compare euf_side in
    List.filter (fun v -> List.mem v euf_side) arith_vars
  in
  let shared_terms = List.map (fun v -> Euf.Sym (v, [])) shared_vars in
  (* iterate equality exchange to a fixpoint *)
  let rec loop known_eqs iterations =
    if iterations > 8 then Consistent has_opaque
    else begin
      let all_eqs = euf_eqs @ bridge_eqs @ known_eqs in
      if
        Euf.check ~eqs:all_eqs ~diseqs:(euf_diseqs @ int_diseqs ctx.int_consts)
        = Euf.Unsat
      then Conflict
      else begin
        (* equalities implied by EUF between shared variables *)
        let implied = Euf.implied_equalities ~eqs:all_eqs shared_terms in
        let var_of = function Euf.Sym (v, []) -> Some v | _ -> None in
        let arith_eqs_from_euf =
          List.filter_map
            (fun (x, y) ->
              match var_of x, var_of y with
              | Some a, Some b when a <> b ->
                Some (Linterm.sub (Linterm.var a) (Linterm.var b), `Eq, true)
              | _ -> None)
            implied
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
                (fun (a, b) ->
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
                (fun (a, b) ->
                  let ta = Euf.Sym (a, []) and tb = Euf.Sym (b, []) in
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
      end
    end
  in
  loop [] 0

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let max_theory_rounds = 2000

(** Decide satisfiability of a quantifier-free formula (with opaque
    abstraction of out-of-fragment atoms). *)
let check_sat (f : Form.t) : [ `Sat of bool | `Unsat ] =
  (* `Sat b: b = true means the model involved no opaque atoms *)
  let f = Simplify.simplify f in
  let ctx = fresh_ctx () in
  let clauses = ref [] in
  let root = tseitin ctx clauses f in
  instantiate_array_lemmas ctx clauses;
  let solver = Sat.create () in
  let ok = List.for_all (fun c -> Sat.add_clause solver c) !clauses in
  let ok = ok && Sat.add_clause solver [ root ] in
  if not ok then `Unsat
  else begin
    let last_round = ref 0 in
    let rec loop rounds precise_so_far =
      Deadline.check ();
      last_round := rounds;
      if rounds > max_theory_rounds then `Sat false
      else
        match Sat.solve solver with
        | Sat.Unsat -> `Unsat
        | Sat.Sat m ->
          let assigned_full =
            List.map (fun (f, a, v) -> (f, a, v, Sat.lit_true m v)) ctx.atoms
          in
          let assigned =
            List.map (fun (_, a, _, b) -> (a, b)) assigned_full
          in
          (match theory_check ctx assigned with
          | Consistent has_opaque ->
            `Sat (not has_opaque && precise_so_far)
          | Conflict ->
            (* greedily minimize the conflicting literal set so the
               blocking clause prunes a whole family of boolean models,
               not just this one (poor man's unsat core) *)
            let theory_lits =
              List.filter
                (fun (_, a, _, _) ->
                  match a with Opaque _ -> false | _ -> true)
                assigned_full
            in
            let core = ref theory_lits in
            List.iter
              (fun lit ->
                let without = List.filter (fun l -> not (l == lit)) !core in
                let still_conflicts =
                  theory_check ctx
                    (List.map (fun (_, a, _, b) -> (a, b)) without)
                  = Conflict
                in
                if still_conflicts then core := without)
              theory_lits;
            let blocking =
              List.map (fun (_, _, v, b) -> if b then -v else v) !core
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
      (fun (_, a, _) -> match a with Opaque _ -> false | _ -> true)
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

let prover : Sequent.prover =
  Sequent.traced_prover { prover_name = "smt"; prove }
