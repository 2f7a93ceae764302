(** A standalone Presburger prover over the specification logic.

    Translates pure linear-integer-arithmetic sequents into {!Pform} and
    decides them with {!Cooper}'s quantifier elimination.  Unlike the SMT
    prover's Omega-based theory solver this path handles quantifiers, and
    because Cooper's procedure is a genuine decision procedure for the
    fragment, a failed validity check is a real countermodel — the prover
    may answer [Invalid].

    Used by the differential fuzzer as an independent party cross-checking
    the SMT prover's arithmetic core. *)

open Logic

exception Out_of_fragment of string

let out fmt = Format.kasprintf (fun s -> raise (Out_of_fragment s)) fmt

(* translation of integer terms into linear terms *)
let rec term (f : Form.t) : Linterm.t =
  match Form.strip_types f with
  | Form.Var x -> Linterm.var x
  | Form.Const (Form.IntLit n) -> Linterm.const n
  | Form.App (Form.Const Form.Plus, [ a; b ]) -> Linterm.add (term a) (term b)
  | Form.App (Form.Const Form.Minus, [ a; b ]) -> Linterm.sub (term a) (term b)
  | Form.App (Form.Const Form.Uminus, [ a ]) -> Linterm.neg (term a)
  | Form.App (Form.Const Form.Mult, [ a; b ]) -> (
    (* linear multiplication only: one factor must be a literal *)
    match Form.strip_types a, Form.strip_types b with
    | Form.Const (Form.IntLit k), _ -> Linterm.scale k (term b)
    | _, Form.Const (Form.IntLit k) -> Linterm.scale k (term a)
    | _ -> out "nonlinear product %s" (Pprint.to_string f))
  | g -> out "non-arithmetic term %s" (Pprint.to_string g)

let rec translate (f : Form.t) : Pform.t =
  match Form.strip_types f with
  | Form.Const (Form.BoolLit true) -> Pform.Tru
  | Form.Const (Form.BoolLit false) -> Pform.Fls
  | Form.App (Form.Const Form.Not, [ g ]) -> Pform.mk_not (translate g)
  | Form.App (Form.Const Form.And, gs) -> Pform.mk_and (List.map translate gs)
  | Form.App (Form.Const Form.Or, gs) -> Pform.mk_or (List.map translate gs)
  | Form.App (Form.Const Form.Impl, [ a; b ]) ->
    Pform.mk_impl (translate a) (translate b)
  | Form.App (Form.Const Form.Iff, [ a; b ]) ->
    let pa = translate a and pb = translate b in
    Pform.mk_and [ Pform.mk_impl pa pb; Pform.mk_impl pb pa ]
  | Form.App (Form.Const Form.Ite, [ c; a; b ]) ->
    let pc = translate c in
    Pform.mk_or
      [ Pform.mk_and [ pc; translate a ];
        Pform.mk_and [ Pform.mk_not pc; translate b ];
      ]
  | Form.App (Form.Const Form.Eq, [ a; b ]) -> Pform.t_eq (term a) (term b)
  | Form.App (Form.Const Form.Lt, [ a; b ]) -> Pform.t_lt (term a) (term b)
  | Form.App (Form.Const Form.Le, [ a; b ]) -> Pform.t_le (term a) (term b)
  | Form.App (Form.Const Form.Gt, [ a; b ]) -> Pform.t_gt (term a) (term b)
  | Form.App (Form.Const Form.Ge, [ a; b ]) -> Pform.t_ge (term a) (term b)
  | Form.Binder (Form.Forall, vars, body) -> quantify Pform.mk_all vars body
  | Form.Binder (Form.Exists, vars, body) -> quantify Pform.mk_ex vars body
  | g -> out "non-Presburger formula %s" (Pprint.to_string g)

and quantify mk vars body =
  List.iter
    (fun (x, ty) ->
      match ty with
      | Ftype.Int | Ftype.Tvar _ -> ()
      | _ -> out "non-integer binder %s : %s" x (Ftype.to_string ty))
    vars;
  List.fold_right (fun (x, _) acc -> mk x acc) vars (translate body)

(* qelim is worst-case super-exponential; keep inputs small enough that it
   always terminates promptly *)
let max_size = 120
let max_free_vars = 5

(* Typecheck the sequent, insist every free variable is integer-sorted, and
   return the disambiguated implication.  Sorts left unconstrained (Tvar)
   are rejected: interpreting them as integers could disagree with the
   oracle's object-sorted reading.  [env] can pre-sort the vocabulary (the
   fuzzer passes its fragment environment) to resolve otherwise-ambiguous
   comparisons like [k < j]. *)
let prepare ?(env = Typecheck.Smap.empty) (s : Sequent.t) : Pform.t =
  let f = Sequent.to_form s in
  if Form.size f > max_size then out "sequent too large";
  match Typecheck.infer ~env f with
  | exception Typecheck.Type_error msg -> out "ill-typed: %s" msg
  | f, (Ftype.Bool | Ftype.Tvar _), free ->
    Typecheck.Smap.iter
      (fun x ty ->
        match ty with
        | Ftype.Int -> ()
        | ty -> out "free variable %s : %s" x (Ftype.to_string ty))
      free;
    if Typecheck.Smap.cardinal free > max_free_vars then
      out "too many free variables";
    translate f
  | _, ty, _ -> out "not a formula: %s" (Ftype.to_string ty)

let in_fragment ?env (s : Sequent.t) : bool =
  match prepare ?env s with _ -> true | exception Out_of_fragment _ -> false

let prove (s : Sequent.t) : Sequent.verdict =
  match prepare s with
  | exception Out_of_fragment msg -> Sequent.Unknown msg
  | p -> (
    (* Cooper decides the fragment: non-validity is a genuine countermodel
       (free variables are universally quantified in the validity reading,
       so the witness falsifies the sequent).  The work cap turns the rare
       super-exponential B-set expansion into an honest [Unknown] instead
       of a runaway computation no wall-clock budget can interrupt. *)
    match Cooper.valid ~cap:200_000 p with
    | true -> Sequent.Valid
    | false -> Sequent.Invalid "Presburger countermodel (Cooper)"
    | exception Stack_overflow ->
      (* the stack depends on the thread this runs on: a resource limit *)
      raise (Sequent.Resource_limited "cooper: stack overflow")
    | exception Cooper.Fuel_exhausted -> Sequent.Unknown "cooper: fuel exhausted"
    | exception Omega.Fuel_exhausted -> Sequent.Unknown "cooper: fuel exhausted")

let prover : Sequent.prover = { prover_name = "cooper"; prove }
