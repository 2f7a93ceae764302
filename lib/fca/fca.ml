(** Field constraint analysis and the MONA route.

    Two pieces, matching the paper's Section 3:

    1. {b Field constraint analysis} (Wies-Kuncak-Lam-Podelski-Rinard,
       VMCAI'06 [80]): derived fields — fields constrained by an invariant
       of the form [ALL x y. x..d = y --> phi(x, y)] rather than part of
       the tree backbone — cannot go to MONA directly.  {!eliminate_derived}
       replaces every read of such a field with a fresh variable plus an
       instantiated occurrence of its constraint, after which only backbone
       fields remain.

    2. {b The MONA route}: sequents in the list fragment — equalities,
       single-backbone field reads, [rtrancl_pt] reachability, and set
       operations — translate to WS1S over the backbone word: an object
       variable becomes a first-order position, [null] a distinguished end
       position, [x..next = y] the successor relation, reachability the
       order, and object sets second-order variables.  This is the
       PALE-style word model of a singly linked list; the route applies
       only when every heap atom speaks about the one backbone field. *)

open Logic

exception Not_applicable of string

let reject fmt = Format.kasprintf (fun s -> raise (Not_applicable s)) fmt

(* ------------------------------------------------------------------ *)
(* Field constraint analysis                                           *)
(* ------------------------------------------------------------------ *)

(** Does this hypothesis define a field constraint on [d]?  Shape:
    [ALL x y. x..d = y --> phi]  (or with the equality reversed). *)
let field_constraint_of (h : Form.t) : (string * (string * string * Form.t)) option =
  match Form.strip_types h with
  | Form.Binder (Form.Forall, [ (x, _); (y, _) ], body) -> (
    match Form.strip_types body with
    | Form.App (Form.Const Form.Impl, [ lhs; phi ]) -> (
      match Form.strip_types lhs with
      | Form.App (Form.Const Form.Eq, [ read; Form.Var y' ])
        when y' = y -> (
        match Form.strip_types read with
        | Form.App (Form.Const Form.FieldRead, [ Form.Var d; Form.Var x' ])
          when x' = x ->
          Some (d, (x, y, phi))
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

(** Eliminate reads of the derived field [d] from [f]: every subterm
    [fieldRead d t] becomes a fresh variable [v], and [phi[x:=t, y:=v]] is
    added as a hypothesis.  Returns the rewritten formula and the new
    hypotheses. *)
let eliminate_derived ~(field : string) ~(constraint_ : string * string * Form.t)
    (f : Form.t) : Form.t * Form.t list =
  let x, y, phi = constraint_ in
  let extra = ref [] in
  let memo = ref [] in
  let rec rewrite (g : Form.t) : Form.t =
    match g with
    | Form.App (Form.Const Form.FieldRead, [ Form.Var d; t ]) when d = field ->
      let t = rewrite t in
      (* memoize so the same read gets the same name *)
      let v =
        match List.find_opt (fun (t', _) -> Form.equal t t') !memo with
        | Some (_, v) -> v
        | None ->
          let v = Form.fresh_name ("d_" ^ String.map (fun c -> if c = '.' then '_' else c) field) in
          memo := (t, v) :: !memo;
          extra :=
            Form.subst_list [ (x, t); (y, Form.Var v) ] phi :: !extra;
          v
      in
      Form.Var v
    | Form.App (h, args) -> Form.App (rewrite h, List.map rewrite args)
    | Form.Binder (b, vars, body) -> Form.Binder (b, vars, rewrite body)
    | Form.TypedForm (g, ty) -> Form.TypedForm (rewrite g, ty)
    | Form.Var _ | Form.Const _ -> g
  in
  let f' = rewrite f in
  (f', !extra)

(** Apply field constraint analysis to a sequent: find field-constraint
    hypotheses and eliminate the corresponding derived-field reads from
    the goal and the remaining hypotheses. *)
let analyze_sequent (s : Sequent.t) : Sequent.t =
  let constraints = List.filter_map field_constraint_of s.Sequent.hyps in
  match constraints with
  | [] -> s
  | _ ->
    let eliminate_all (f : Form.t) : Form.t * Form.t list =
      List.fold_left
        (fun (g, extras) (d, c) ->
          let g', more = eliminate_derived ~field:d ~constraint_:c g in
          (g', extras @ more))
        (f, []) constraints
    in
    let goal', goal_extras = eliminate_all s.Sequent.goal in
    let hyps', hyp_extras =
      List.fold_left
        (fun (hs, extras) h ->
          if field_constraint_of h <> None then (hs, extras)
          else
            let h', more = eliminate_all h in
            (hs @ [ h' ], extras @ more))
        ([], []) s.Sequent.hyps
    in
    { s with
      Sequent.hyps = hyps' @ goal_extras @ hyp_extras;
      goal = goal' }

(* ------------------------------------------------------------------ *)
(* The list-backbone WS1S translation                                  *)
(* ------------------------------------------------------------------ *)

module W = Mona.Ws1s

type wctx = {
  mutable backbone : string option; (* the single next-like field *)
  mutable obj_vars : string list; (* translated to FO positions *)
  mutable set_vars : string list; (* translated to SO variables *)
}

let null_pos = "$null"

let pos_of x = "p_" ^ x

let note_obj ctx x =
  if not (List.mem x ctx.obj_vars) then ctx.obj_vars <- x :: ctx.obj_vars

let note_set ctx x =
  if not (List.mem x ctx.set_vars) then ctx.set_vars <- x :: ctx.set_vars

let note_backbone ctx f =
  match ctx.backbone with
  | None -> ctx.backbone <- Some f
  | Some g -> if f <> g then reject "two backbone fields: %s and %s" g f

(* Positions beyond null are not objects: every set variable must live
   inside [{0..null}], and every free object variable at a position
   [<= null].  Without the set restriction MONA could satisfy [x : u]
   under a hypothesis forcing [u] empty-as-an-object-set by placing the
   witness past null (fuzzer finding conflict:fol>mona on
   [t = u |- EX q. t <= s | q : u]). *)
let range_hyps ctx : W.t list =
  List.map (fun x -> W.Pred (W.LeqF (pos_of x, null_pos))) ctx.obj_vars
  @ List.map
      (fun x ->
        W.All1
          ( "$range",
            W.Impl
              ( W.Pred (W.In ("$range", "S_" ^ x)),
                W.Pred (W.LeqF ("$range", null_pos)) ) ))
      ctx.set_vars

(* an object term must be a variable or null after simplification *)
let obj_pos ctx (f : Form.t) : string =
  match Form.strip_types f with
  | Form.Var x ->
    note_obj ctx x;
    pos_of x
  | Form.Const Form.Null -> null_pos
  | g -> reject "object term too complex for the MONA route: %s" (Pprint.to_string g)

(* is this lambda the step relation of the backbone field?
   (% u v. u..f = v)  *)
let backbone_of_lambda (p : Form.t) : string option =
  match Form.strip_types p with
  | Form.Binder (Form.Lambda, [ (u, _); (v, _) ], body) -> (
    match Form.strip_types body with
    | Form.App (Form.Const Form.Eq, [ lhs; Form.Var v' ]) when v' = v -> (
      match Form.strip_types lhs with
      | Form.App (Form.Const Form.FieldRead, [ Form.Var f; Form.Var u' ])
        when u' = u ->
        Some f
      | _ -> None)
    | _ -> None)
  | _ -> None

let rec trans (ctx : wctx) (bound : (string * [ `Obj | `Set ]) list)
    (f : Form.t) : W.t =
  let t = trans ctx in
  match Form.strip_types f with
  | Form.Const (Form.BoolLit true) -> W.True
  | Form.Const (Form.BoolLit false) -> W.False
  | Form.App (Form.Const Form.Not, [ g ]) -> W.Not (t bound g)
  | Form.App (Form.Const Form.And, gs) -> W.And (List.map (t bound) gs)
  | Form.App (Form.Const Form.Or, gs) -> W.Or (List.map (t bound) gs)
  | Form.App (Form.Const Form.Impl, [ a; b ]) -> W.Impl (t bound a, t bound b)
  | Form.App (Form.Const Form.Iff, [ a; b ]) -> W.Iff (t bound a, t bound b)
  | Form.Binder (Form.Forall, vars, body) ->
    (* object quantifiers range over positions up to null *)
    List.fold_right
      (fun (x, _) acc ->
        W.All1
          ( pos_of x,
            W.Impl (W.Pred (W.LeqF (pos_of x, null_pos)), acc) ))
      vars
      (t (List.map (fun (x, _) -> (x, `Obj)) vars @ bound) body)
  | Form.Binder (Form.Exists, vars, body) ->
    List.fold_right
      (fun (x, _) acc ->
        W.Ex1
          ( pos_of x,
            W.And [ W.Pred (W.LeqF (pos_of x, null_pos)); acc ] ))
      vars
      (t (List.map (fun (x, _) -> (x, `Obj)) vars @ bound) body)
  | Form.App (Form.Const Form.Eq, [ a; b ]) -> trans_eq ctx bound a b
  | Form.App (Form.Const Form.Elem, [ x; s ]) ->
    let px = obj_pos_b ctx bound x in
    let sv = set_var ctx bound s in
    W.Pred (W.In (px, sv))
  | Form.App (Form.Const Form.Subseteq, [ a; b ]) ->
    W.Pred (W.Sub (set_var ctx bound a, set_var ctx bound b))
  | Form.App (Form.Const Form.Rtrancl, [ p; a; b ]) -> (
    match backbone_of_lambda p with
    | Some f ->
      note_backbone ctx f;
      (* reachability along the chain is the position order *)
      W.Pred (W.LeqF (obj_pos_b ctx bound a, obj_pos_b ctx bound b))
    | None -> reject "rtrancl over a non-backbone relation")
  | Form.App (Form.Const Form.Tree, _) ->
    (* the backbone of a word model is an acyclic unshared chain *)
    W.True
  | g -> reject "atom outside the MONA fragment: %s" (Pprint.to_string g)

and obj_pos_b ctx bound (f : Form.t) : string =
  match Form.strip_types f with
  | Form.Var x when List.mem_assoc x bound -> pos_of x
  | _ -> obj_pos ctx f

and set_var ctx bound (f : Form.t) : string =
  match Form.strip_types f with
  | Form.Var x ->
    if List.mem_assoc x bound then "S_" ^ x
    else begin
      note_set ctx x;
      "S_" ^ x
    end
  | g -> reject "set term too complex for the MONA route: %s" (Pprint.to_string g)

and trans_eq ctx bound (a : Form.t) (b : Form.t) : W.t =
  (* x..f = y / y = x..f: successor along the backbone, with null as the
     chain end; x = y / x = null: position equality *)
  let as_read (g : Form.t) =
    match Form.strip_types g with
    | Form.App (Form.Const Form.FieldRead, [ Form.Var f; obj ]) -> Some (f, obj)
    | _ -> None
  in
  match as_read a, as_read b with
  | Some (f, obj), None | None, Some (f, obj) ->
    note_backbone ctx f;
    let other = match as_read a with Some _ -> b | None -> a in
    let po = obj_pos_b ctx bound obj in
    let pv = obj_pos_b ctx bound other in
    (* obj..f = v: either obj is a live node and v its successor, or obj
       is null and (by the null..f = null convention) so is v *)
    W.Or
      [ W.And [ W.Pred (W.LessF (po, null_pos)); W.Pred (W.SuccF (pv, po)) ];
        W.And
          [ W.Pred (W.EqF (po, null_pos)); W.Pred (W.EqF (pv, null_pos)) ];
      ]
  | Some _, Some _ -> reject "read = read equality needs flattening"
  | None, None -> (
    (* object or set equality *)
    match Form.strip_types a, Form.strip_types b with
    | sa, _ when is_set_side ctx bound sa ->
      W.Pred (W.EqS (set_var ctx bound a, set_var ctx bound b))
    | _, sb when is_set_side ctx bound sb ->
      W.Pred (W.EqS (set_var ctx bound a, set_var ctx bound b))
    | _ ->
      W.Pred (W.EqF (obj_pos_b ctx bound a, obj_pos_b ctx bound b)))

and is_set_side ctx bound (g : Form.t) : bool =
  match g with
  | Form.Var x -> (
    List.mem x ctx.set_vars
    || match List.assoc_opt x bound with Some `Set -> true | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The prover                                                          *)
(* ------------------------------------------------------------------ *)

(* When backbone atoms occur, the word model is sound only if every free
   object variable provably lies on the one chain: each must appear in a
   hypothesis [rtrancl f h x] from a common head, be the head itself, or
   be equated with null.  Pure monadic (set) sequents need no check. *)
let chain_rooted (s : Sequent.t) (obj_vars : string list) : bool =
  let reach_pairs =
    List.filter_map
      (fun h ->
        match Form.strip_types h with
        | Form.App (Form.Const Form.Rtrancl, [ _; a; b ]) -> (
          match Form.strip_types a, Form.strip_types b with
          | Form.Var x, Form.Var y -> Some (x, y)
          | _ -> None)
        | _ -> None)
      s.Sequent.hyps
  in
  let null_like x =
    List.exists
      (fun h ->
        match Form.strip_types h with
        | Form.App (Form.Const Form.Eq, [ Form.Var v; Form.Const Form.Null ])
        | Form.App (Form.Const Form.Eq, [ Form.Const Form.Null; Form.Var v ])
          ->
          v = x
        | _ -> false)
      s.Sequent.hyps
  in
  (* successor facts x..f = y root y when x is rooted *)
  let succ_pairs =
    List.filter_map
      (fun h ->
        match Form.strip_types h with
        | Form.App (Form.Const Form.Eq, [ a; b ]) -> (
          let read g =
            match Form.strip_types g with
            | Form.App (Form.Const Form.FieldRead, [ _; Form.Var x ]) -> Some x
            | _ -> None
          in
          match read a, Form.strip_types b, read b, Form.strip_types a with
          | Some x, Form.Var y, _, _ | _, _, Some x, Form.Var y -> Some (x, y)
          | _ -> None)
        | _ -> None)
      s.Sequent.hyps
  in
  match reach_pairs with
  | [] -> obj_vars = [] (* no chain facts: only allowed without obj vars *)
  | (h0, _) :: _ ->
    let rooted = ref [ h0 ] in
    let grow () =
      let changed = ref false in
      let add x =
        if not (List.mem x !rooted) then begin
          rooted := x :: !rooted;
          changed := true
        end
      in
      List.iter
        (fun (a, b) -> if List.mem a !rooted then add b)
        (reach_pairs @ succ_pairs);
      !changed
    in
    while grow () do () done;
    List.for_all
      (fun x -> List.mem x !rooted || null_like x)
      obj_vars

let max_sequent_size = 400 (* automata products blow up beyond this *)

(** The full admission pipeline shared by {!prove} and {!in_fragment}:
    simplification, size limit, field constraint analysis, translation to
    the word model, and the chain-rootedness side condition.  Returns the
    WS1S validity question with its first-order variables, or the reason
    the sequent falls outside the route. *)
let route_sequent (s : Sequent.t) : (W.t * string list, string) result =
  match
    let s =
      { s with
        Sequent.hyps = List.map Simplify.simplify s.Sequent.hyps;
        goal = Simplify.simplify s.Sequent.goal }
    in
    let size =
      List.fold_left
        (fun n h -> n + Form.size h)
        (Form.size s.Sequent.goal)
        s.Sequent.hyps
    in
    if size > max_sequent_size then reject "sequent too large (%d nodes)" size;
    let s = analyze_sequent s in
    let ctx = { backbone = None; obj_vars = []; set_vars = [] } in
    (* Sort-driven pre-pass: register every set-typed free variable before
       any atom translates.  Without it the reading of an equality [s = t]
       depended on whether a membership atom had already mentioned [s] or
       [t] — a set equality appearing first was translated as *position*
       equality, disconnected from the second-order variables, and MONA
       reported spurious word-model countermodels (fuzzer finding
       conflict:fol>mona on [t = s |- t <= s]). *)
    (match Typecheck.infer (Sequent.to_form s) with
    | _, _, free ->
      Typecheck.Smap.iter
        (fun x ty -> match ty with Ftype.Set _ -> note_set ctx x | _ -> ())
        free
    | exception Typecheck.Type_error _ -> ());
    let hyps = List.map (trans ctx []) s.Sequent.hyps in
    let goal = trans ctx [] s.Sequent.goal in
    let formula = W.Impl (W.And (range_hyps ctx @ hyps), goal) in
    let fo = null_pos :: List.map pos_of ctx.obj_vars in
    if ctx.backbone <> None && not (chain_rooted s ctx.obj_vars) then
      reject "object variables not rooted in one chain";
    (formula, fo)
  with
  | r -> Ok r
  | exception Not_applicable what -> Error what

(** Does the sequent lie in the MONA route's fragment (and satisfy its
    soundness side conditions)? *)
let in_fragment (s : Sequent.t) : bool =
  match route_sequent s with Ok _ -> true | Error _ -> false

let prove (s : Sequent.t) : Sequent.verdict =
  match route_sequent s with
  | Error what ->
    Trace.incr "prover.mona.rejected";
    Sequent.Unknown ("MONA route: " ^ what)
  | Ok (formula, fo) ->
    if W.valid ~fo formula then Sequent.Valid
    else
      (* a word countermodel is a genuine singly-linked-list countermodel *)
      Sequent.Invalid "MONA route: word-model countermodel"

let prover : Sequent.prover =
  Sequent.traced_prover { prover_name = "mona"; prove }
