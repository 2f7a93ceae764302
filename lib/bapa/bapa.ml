(** BAPA: Boolean Algebra with Presburger Arithmetic.

    The decision procedure of Kuncak-Nguyen-Rinard (CADE-20, [43]) that
    the paper integrates "based on reduction to the Omega decision
    procedure": quantifier-free formulas combining set algebra, set
    cardinalities and linear integer arithmetic reduce to pure Presburger
    arithmetic by introducing one nonnegative integer unknown per Venn
    region of the free set variables.  The resulting PA formula goes to
    {!Presburger.Cooper} (or the Omega test for conjunctions).

    Element variables (objects) are encoded as singleton sets; [null] is
    one more such element. *)

open Logic
module Linterm = Presburger.Linterm
module Pform = Presburger.Pform

exception Out_of_fragment of string

let reject fmt = Format.kasprintf (fun s -> raise (Out_of_fragment s)) fmt

(* ------------------------------------------------------------------ *)
(* Set expressions                                                     *)
(* ------------------------------------------------------------------ *)

(* a set expression over indexed set variables *)
type sexp =
  | Svar of int
  | Sempty
  | Suniv
  | Sunion of sexp * sexp
  | Sinter of sexp * sexp
  | Sdiff of sexp * sexp

(* context: set variables (including singleton encodings of elements) *)
type ctx = {
  mutable sets : string list; (* index = position in list *)
  mutable singletons : int list; (* indices that must have cardinality 1 *)
  mutable ints : string list; (* variables with integer evidence *)
}

let set_index (ctx : ctx) (name : string) : int =
  let rec find i = function
    | [] ->
      ctx.sets <- ctx.sets @ [ name ];
      i
    | n :: rest -> if n = name then i else find (i + 1) rest
  in
  find 0 ctx.sets

let element_index (ctx : ctx) (name : string) : int =
  let i = set_index ctx ("$elem$" ^ name) in
  if not (List.mem i ctx.singletons) then
    ctx.singletons <- i :: ctx.singletons;
  i

(* does this term look like a set or an element? *)
let rec trans_set (ctx : ctx) (f : Form.t) : sexp =
  match Form.strip_types f with
  | Form.Var x -> Svar (set_index ctx x)
  | Form.Const Form.EmptySet -> Sempty
  | Form.Const Form.UnivSet -> Suniv
  | Form.App (Form.Const Form.Union, [ a; b ]) ->
    Sunion (trans_set ctx a, trans_set ctx b)
  | Form.App (Form.Const Form.Inter, [ a; b ]) ->
    Sinter (trans_set ctx a, trans_set ctx b)
  | Form.App (Form.Const (Form.Diff | Form.Minus), [ a; b ]) ->
    Sdiff (trans_set ctx a, trans_set ctx b)
  | Form.App (Form.Const Form.FiniteSet, elems) ->
    (* {e1, ..., en} = union of singleton element sets *)
    List.fold_left
      (fun acc e -> Sunion (acc, trans_element ctx e))
      Sempty elems
  | g -> reject "not a set expression: %s" (Pprint.to_string g)

and trans_element (ctx : ctx) (f : Form.t) : sexp =
  match Form.strip_types f with
  | Form.Var x -> Svar (element_index ctx x)
  | Form.Const Form.Null -> Svar (element_index ctx "null")
  | g -> reject "not an element: %s" (Pprint.to_string g)

(* ------------------------------------------------------------------ *)
(* Venn regions                                                        *)
(* ------------------------------------------------------------------ *)

(* region id r in [0, 2^n): bit i set iff the region lies inside set i *)
let region_var r = Printf.sprintf "$venn%d" r

(* which regions are inside a set expression *)
let rec regions_of (n : int) (s : sexp) : int list =
  let all = List.init (1 lsl n) (fun r -> r) in
  match s with
  | Svar i -> List.filter (fun r -> (r lsr i) land 1 = 1) all
  | Sempty -> []
  | Suniv -> all
  | Sunion (a, b) ->
    List.sort_uniq compare (regions_of n a @ regions_of n b)
  | Sinter (a, b) ->
    let rb = regions_of n b in
    List.filter (fun r -> List.mem r rb) (regions_of n a)
  | Sdiff (a, b) ->
    let rb = regions_of n b in
    List.filter (fun r -> not (List.mem r rb)) (regions_of n a)

let card_term (n : int) (s : sexp) : Linterm.t =
  Linterm.of_list (List.map (fun r -> (region_var r, 1)) (regions_of n s)) 0

(* ------------------------------------------------------------------ *)
(* Formula translation                                                 *)
(* ------------------------------------------------------------------ *)

(* two-pass translation: first pass collects set/element variables so the
   region count is known; second pass emits the PA formula *)
let rec collect_vars ?(bare = false) (ctx : ctx) (f : Form.t) : unit =
  let rec atom_sets g =
    match Form.strip_types g with
    | Form.App (Form.Const (Form.Subseteq | Form.Subset), [ a; b ]) ->
      ignore (trans_set ctx a);
      ignore (trans_set ctx b)
    | Form.App (Form.Const Form.Eq, [ a; b ])
      when is_setlike a || is_setlike b ->
      ignore (trans_set ctx a);
      ignore (trans_set ctx b)
    | Form.App (Form.Const (Form.Le | Form.Lt | Form.Ge | Form.Gt), [ a; b ])
      ->
      note_int_vars ctx a;
      note_int_vars ctx b;
      atom_sets a;
      atom_sets b
    | Form.App (Form.Const Form.Eq, [ a; b ])
      when is_intlike a || is_intlike b ->
      note_int_vars ctx a;
      note_int_vars ctx b;
      atom_sets a;
      atom_sets b
    | Form.App (Form.Const Form.Eq, [ a; b ])
      when bare && is_atomic a && is_atomic b
           && (not (List.mem (var_name a) ctx.ints))
           && not (List.mem (var_name b) ctx.ints) ->
      (* bare equality: the second pass will use the element encoding, so
         the element sets must exist before the region count is fixed.
         If either side was registered as a set, register both as sets. *)
      let registered_set g =
        match Form.strip_types g with
        | Form.Var x -> List.mem x ctx.sets
        | _ -> false
      in
      if registered_set a || registered_set b then begin
        ignore (trans_set ctx a);
        ignore (trans_set ctx b)
      end
      else begin
        ignore (trans_element ctx a);
        ignore (trans_element ctx b)
      end
    | Form.App (Form.Const Form.Elem, [ x; s ]) ->
      ignore (trans_element ctx x);
      ignore (trans_set ctx s)
    | Form.App (Form.Const Form.Card, [ s ]) -> ignore (trans_set ctx s)
    | Form.App (_, args) -> List.iter atom_sets args
    | Form.Binder (_, _, body) -> atom_sets body
    | Form.Var _ | Form.Const _ | Form.TypedForm _ -> ()
  in
  atom_sets f

and var_name (f : Form.t) : string =
  match Form.strip_types f with Form.Var x -> x | _ -> ""

and is_intlike (f : Form.t) : bool =
  match Form.strip_types f with
  | Form.Const (Form.IntLit _) -> true
  | Form.App
      (Form.Const (Form.Plus | Form.Minus | Form.Mult | Form.Uminus | Form.Card), _)
    ->
    true
  | _ -> false

(* note the integer variables of an arithmetic term (not inside card) *)
and note_int_vars (ctx : ctx) (f : Form.t) : unit =
  match Form.strip_types f with
  | Form.Var x -> if not (List.mem x ctx.ints) then ctx.ints <- x :: ctx.ints
  | Form.Const _ -> ()
  | Form.App (Form.Const Form.Card, _) -> () (* set inside *)
  | Form.App (_, args) -> List.iter (note_int_vars ctx) args
  | Form.Binder _ | Form.TypedForm _ -> ()

and is_atomic (f : Form.t) : bool =
  match Form.strip_types f with
  | Form.Var _ | Form.Const Form.Null -> true
  | _ -> false

and is_setlike (f : Form.t) : bool =
  match Form.strip_types f with
  | Form.Const (Form.EmptySet | Form.UnivSet) -> true
  | Form.App
      (Form.Const (Form.Union | Form.Inter | Form.Diff | Form.FiniteSet), _) ->
    true
  | _ -> false

(* second pass: translate to Presburger once n is fixed *)
let rec trans_form (ctx : ctx) (n : int) (f : Form.t) : Pform.t =
  match Form.strip_types f with
  | Form.Const (Form.BoolLit true) -> Pform.Tru
  | Form.Const (Form.BoolLit false) -> Pform.Fls
  | Form.App (Form.Const Form.Not, [ g ]) -> Pform.mk_not (trans_form ctx n g)
  | Form.App (Form.Const Form.And, gs) ->
    Pform.mk_and (List.map (trans_form ctx n) gs)
  | Form.App (Form.Const Form.Or, gs) ->
    Pform.mk_or (List.map (trans_form ctx n) gs)
  | Form.App (Form.Const Form.Impl, [ a; b ]) ->
    Pform.mk_impl (trans_form ctx n a) (trans_form ctx n b)
  | Form.App (Form.Const Form.Iff, [ a; b ]) ->
    let ta = trans_form ctx n a and tb = trans_form ctx n b in
    Pform.mk_and [ Pform.mk_impl ta tb; Pform.mk_impl tb ta ]
  | Form.App (Form.Const Form.Elem, [ x; s ]) ->
    (* singleton(x) inside s: all regions of x outside s are empty *)
    let sx = trans_element ctx x in
    let ss = trans_set ctx s in
    subset_zero n (Sdiff (sx, ss))
  | Form.App (Form.Const Form.Subseteq, [ a; b ]) ->
    subset_zero n (Sdiff (trans_set ctx a, trans_set ctx b))
  | Form.App (Form.Const Form.Subset, [ a; b ]) ->
    let sa = trans_set ctx a and sb = trans_set ctx b in
    Pform.mk_and
      [ subset_zero n (Sdiff (sa, sb));
        Pform.t_ge (card_term n (Sdiff (sb, sa))) (Linterm.const 1) ]
  | Form.App (Form.Const Form.Eq, [ a; b ]) -> trans_eq ctx n a b
  | Form.App (Form.Const (Form.Le | Form.Lt | Form.Ge | Form.Gt), [ _; _ ]) ->
    trans_int_atom ctx n f
  | g -> reject "atom outside BAPA: %s" (Pprint.to_string g)

and trans_eq (ctx : ctx) (n : int) (a : Form.t) (b : Form.t) : Pform.t =
  let setlike g =
    is_setlike g
    ||
    match Form.strip_types g with
    | Form.Var x -> List.mem x ctx.sets
    | _ -> false
  in
  let elemlike g =
    match Form.strip_types g with
    | Form.Var x -> List.mem ("$elem$" ^ x) ctx.sets
    | Form.Const Form.Null -> true
    | _ -> false
  in
  let intlike g =
    match Form.strip_types g with
    | Form.Const (Form.IntLit _) -> true
    | Form.App (Form.Const (Form.Plus | Form.Minus | Form.Mult | Form.Card), _)
      ->
      true
    | Form.Var x -> List.mem x ctx.ints
    | _ -> false
  in
  if intlike a || intlike b then trans_int_atom ctx n (Form.mk_eq a b)
  else if setlike a || setlike b then begin
    let sa = trans_set ctx a and sb = trans_set ctx b in
    Pform.mk_and
      [ subset_zero n (Sdiff (sa, sb)); subset_zero n (Sdiff (sb, sa)) ]
  end
  else if elemlike a || elemlike b then begin
    let sa = trans_element ctx a and sb = trans_element ctx b in
    Pform.mk_and
      [ subset_zero n (Sdiff (sa, sb)); subset_zero n (Sdiff (sb, sa)) ]
  end
  else
    (* unknown sort: try element encoding (objects are the common case) *)
    let sa = trans_element ctx a and sb = trans_element ctx b in
    Pform.mk_and
      [ subset_zero n (Sdiff (sa, sb)); subset_zero n (Sdiff (sb, sa)) ]

(* all regions of s have cardinality 0 *)
and subset_zero (n : int) (s : sexp) : Pform.t =
  Pform.mk_and
    (List.map
       (fun r -> Pform.t_eq (Linterm.var (region_var r)) (Linterm.const 0))
       (regions_of n s))

(* integer atoms: cardinalities become region sums *)
and trans_int_atom (ctx : ctx) (n : int) (f : Form.t) : Pform.t =
  let rec term (g : Form.t) : Linterm.t =
    match Form.strip_types g with
    | Form.Var x ->
      if List.mem x ctx.sets || List.mem ("$elem$" ^ x) ctx.sets then
        reject "set/element variable %s in integer position" x
      else Linterm.var x
    | Form.Const (Form.IntLit k) -> Linterm.const k
    | Form.App (Form.Const Form.Card, [ s ]) -> card_term n (trans_set ctx s)
    | Form.App (Form.Const Form.Plus, [ a; b ]) ->
      Linterm.add (term a) (term b)
    | Form.App (Form.Const Form.Minus, [ a; b ]) ->
      Linterm.sub (term a) (term b)
    | Form.App (Form.Const Form.Uminus, [ a ]) -> Linterm.neg (term a)
    | Form.App (Form.Const Form.Mult, [ a; b ]) -> (
      match Form.strip_types a, Form.strip_types b with
      | Form.Const (Form.IntLit k), _ -> Linterm.scale k (term b)
      | _, Form.Const (Form.IntLit k) -> Linterm.scale k (term a)
      | _ -> reject "nonlinear multiplication")
    | g -> reject "integer term outside BAPA: %s" (Pprint.to_string g)
  in
  match Form.strip_types f with
  | Form.App (Form.Const Form.Eq, [ a; b ]) -> Pform.t_eq (term a) (term b)
  | Form.App (Form.Const Form.Le, [ a; b ]) -> Pform.t_le (term a) (term b)
  | Form.App (Form.Const Form.Lt, [ a; b ]) -> Pform.t_lt (term a) (term b)
  | Form.App (Form.Const Form.Ge, [ a; b ]) -> Pform.t_ge (term a) (term b)
  | Form.App (Form.Const Form.Gt, [ a; b ]) -> Pform.t_gt (term a) (term b)
  | g -> reject "integer atom outside BAPA: %s" (Pprint.to_string g)

(* ------------------------------------------------------------------ *)
(* Decision interface                                                  *)
(* ------------------------------------------------------------------ *)

let max_set_vars = 9 (* 2^9 = 512 Venn regions *)

(** Translate a quantifier-free formula to Presburger arithmetic;
    satisfiability-preserving. *)
let translate (f : Form.t) : Pform.t =
  (* resolve <= / < / - between sets before reading the fragment *)
  let f = Typecheck.disambiguate f in
  let f = Simplify.simplify f in
  let ctx = { sets = []; singletons = []; ints = [] } in
  (* pass 1 registers set evidence; pass 2 the bare equalities, so an
     equality never forces the element encoding on a known set *)
  collect_vars ~bare:false ctx f;
  collect_vars ~bare:true ctx f;
  let n = List.length ctx.sets in
  if n > max_set_vars then reject "too many set variables (%d)" n;
  let core = trans_form ctx n f in
  let nonneg =
    List.init (1 lsl n) (fun r ->
        Pform.t_ge (Linterm.var (region_var r)) (Linterm.const 0))
  in
  let singleton_constraints =
    List.map
      (fun i ->
        Pform.t_eq (card_term n (Svar i)) (Linterm.const 1))
      ctx.singletons
  in
  Pform.mk_and ((core :: nonneg) @ singleton_constraints)

(* the work cap of the Cooper fallback: the nodes of the copies any one
   elimination builds and the size of any intermediate formula
   ({!Presburger.Cooper.qelim}) *)
let cooper_cap = 200_000

(* Cooper's full quantifier elimination on a small system, within
   {!cooper_cap}; it polls the deadline as it expands *)
let cooper_satisfiable (pa : Pform.t) : bool =
  match Presburger.Cooper.satisfiable ~cap:cooper_cap pa with
  | sat -> sat
  | exception Presburger.Cooper.Fuel_exhausted ->
    reject "Cooper fallback past its work cap"

(** Satisfiability of a translated BAPA formula.  It is put in bounded
    DNF; each disjunct goes to the Omega test (the paper's own PA back
    end); Cooper's full quantifier elimination is the fallback for small
    systems only, under a work cap.  Too large a system, or a fallback
    past its cap, raises {!Out_of_fragment}. *)
let decide (pa : Pform.t) : bool =
  let pa = Presburger.Cooper.nnf pa in
  let max_branches = 64 in
  let rec dnf (g : Pform.t) : Pform.t list list option =
    match g with
    | Pform.Tru -> Some [ [] ]
    | Pform.Fls -> Some []
    | Pform.Le _ | Pform.Eq _ -> Some [ [ g ] ]
    | Pform.And gs ->
      List.fold_left
        (fun acc g ->
          match acc, dnf g with
          | Some bs, Some cs ->
            let prod =
              List.concat_map (fun b -> List.map (fun c -> b @ c) cs) bs
            in
            if List.length prod > max_branches then None else Some prod
          | _, _ -> None)
        (Some [ [] ])
        gs
    | Pform.Or gs ->
      List.fold_left
        (fun acc g ->
          match acc, dnf g with
          | Some bs, Some cs ->
            if List.length bs + List.length cs > max_branches then None
            else Some (bs @ cs)
          | _, _ -> None)
        (Some []) gs
    | Pform.Dvd _ | Pform.Not _ | Pform.Ex _ | Pform.All _ -> None
  in
  match dnf pa with
  | Some branches ->
    List.exists
      (fun atoms ->
        match Presburger.Omega.check atoms with
        | Some Presburger.Omega.Sat -> true
        | Some Presburger.Omega.Unsat -> false
        | None ->
          let nvars =
            List.length
              (List.sort_uniq compare
                 (List.concat_map Pform.free_vars atoms))
          in
          if nvars <= 6 then cooper_satisfiable (Pform.mk_and atoms)
          else reject "Omega inconclusive on a large Venn system")
      branches
  | None ->
    let nvars = List.length (Pform.free_vars pa) in
    if nvars <= 6 then cooper_satisfiable pa
    else reject "translation outside the Omega-conjunctive fragment"

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

(** The admission scan: one pass over the sequent as the dispatcher hands
    it over, before type inference and normalization.  In formula position
    it takes only the connectives and the atoms {!trans_form} translates;
    in term position only what {!trans_set}, {!trans_element} and
    [trans_int_atom] translate.  Anything else (a field read or write, a
    binder, a function application, [if], [tree], a boolean variable)
    refuses the sequent, named in the reason — but only when every node of
    the sequent is {!Simplify.inert}, so that the translation meets the
    same node unchanged and fails on it: the scan refuses nothing the
    translation would take.  Nor does it refuse a sequent that a [False]
    hypothesis or a [True] goal makes trivial.  [Ok ()] admits the
    sequent to the translation, which may still refuse it. *)
let admit (s : Sequent.t) : (unit, string) result =
  let exception Unsettled in
  let first = ref None in
  let inert g = if not (Simplify.inert g) then raise Unsettled in
  let offend g =
    Form.fold (fun () h -> inert h) () g;
    if Option.is_none !first then first := Some g
  in
  let rec form f =
    inert f;
    match Form.strip_types f with
    | Form.App
        (Form.Const (Form.Not | Form.And | Form.Or | Form.Impl | Form.Iff), gs)
      ->
      List.iter form gs
    | Form.App
        ( Form.Const
            ( Form.Eq | Form.Elem | Form.Subseteq | Form.Subset | Form.Le
            | Form.Lt | Form.Ge | Form.Gt ),
          ts ) ->
      List.iter term ts
    | g -> offend g
  and term t =
    inert t;
    match Form.strip_types t with
    | Form.Var _
    | Form.Const (Form.IntLit _ | Form.Null | Form.EmptySet | Form.UnivSet) ->
      ()
    | Form.App
        ( Form.Const
            ( Form.Union | Form.Inter | Form.Diff | Form.Minus | Form.FiniteSet
            | Form.Card | Form.Plus | Form.Uminus | Form.Mult ),
          ts ) ->
      List.iter term ts
    | g -> offend g
  in
  (* a [False] hypothesis or a [True] goal makes the refutand [False];
     a [True] hypothesis or a [False] goal drops out of it *)
  match
    if List.exists Form.is_false s.Sequent.hyps || Form.is_true s.Sequent.goal
    then raise Unsettled;
    List.iter
      (fun h -> if not (Form.is_true h) then form h)
      s.Sequent.hyps;
    if not (Form.is_false s.Sequent.goal) then form s.Sequent.goal
  with
  | () -> (
    match !first with
    | None -> Ok ()
    | Some g -> Error ("outside BAPA: " ^ Pprint.to_string g))
  | exception Unsettled -> Ok ()

(** Does the sequent pass {!admit}?  (The decision procedure may still
    give up later — the translation refuses an atom the scan let through,
    or Omega is inconclusive on a large Venn system — but such rejections
    surface as [Unknown].) *)
let in_fragment (s : Sequent.t) : bool = Result.is_ok (admit s)

(* a front-end rejection, by the scan or by the translation *)
let rejected (what : string) : Sequent.verdict =
  Trace.incr "prover.bapa.rejected";
  Sequent.Unknown ("BAPA: " ^ what)

(** Prove a sequent in the BAPA fragment. *)
let prove (s : Sequent.t) : Sequent.verdict =
  match admit s with
  | Error what -> rejected what
  | Ok () -> (
    match translate (Sequent.refutand s) with
    | exception Out_of_fragment what -> rejected what
    | pa -> (
      match decide pa with
      | true ->
        (* the translation is complete on its fragment: a PA model yields
           a BAPA countermodel *)
        Sequent.Invalid "BAPA countermodel (Venn-region witness)"
      | false -> Sequent.Valid
      | exception Out_of_fragment what -> Sequent.Unknown ("BAPA: " ^ what)))

let prover : Sequent.prover =
  Sequent.traced_prover { prover_name = "bapa"; prove }
