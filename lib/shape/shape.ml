(** Symbolic shape analysis: loop invariant inference by predicate
    abstraction.

    The paper (Sections 2.4 and 3) lets the verification-condition
    generator "leverage loop invariant inference engines, including
    speculative engines that may generate incorrect loop invariants",
    citing symbolic shape analysis [80, 65, 79].  We implement the
    conjunctive (cartesian) instance of that family, in the style of
    Houdini [21]:

    - a candidate vocabulary is mined from the method's contract, the
      enclosing class invariants and the loop condition;
    - the largest inductive conjunction of candidates is computed by the
      classic drop-until-stable loop, using the decision-procedure
      portfolio as the abstract-post oracle (the "symbolic" part: no
      precomputed transfer functions);
    - the result is speculative: the VC generator re-verifies both
      initiation and consecution, so a wrong invariant can only lead to
      an unproved obligation, never to unsoundness.

    The Boolean-heap style disjunctive completion is approximated by
    optionally adding implications between candidate pairs. *)

open Logic

(* ------------------------------------------------------------------ *)
(* Candidate mining                                                    *)
(* ------------------------------------------------------------------ *)

(* atoms of a formula, as candidate predicates *)
let rec atoms_of (f : Form.t) : Form.t list =
  match Form.strip_types f with
  | Form.App (Form.Const (Form.And | Form.Or), gs) -> List.concat_map atoms_of gs
  | Form.App (Form.Const (Form.Impl | Form.Iff), [ a; b ]) ->
    atoms_of a @ atoms_of b
  | Form.App (Form.Const Form.Not, [ g ]) -> atoms_of g
  | g when Form.is_true g || Form.is_false g -> []
  | g -> [ g ]

let dedup (fs : Form.t list) : Form.t list =
  List.fold_left
    (fun acc f -> if List.exists (Form.equal f) acc then acc else acc @ [ f ])
    [] fs

(** Candidate predicates for a loop, given contract/invariant seeds. *)
let candidates ~(seeds : Form.t list) (l : Gcl.Cmd.loop) : Form.t list =
  let seed_atoms = List.concat_map atoms_of seeds in
  let seed_whole = seeds in
  let cond_atoms = atoms_of l.Gcl.Cmd.loop_cond in
  (* negations too: predicate abstraction tracks both polarities *)
  let base = dedup (seed_whole @ seed_atoms @ cond_atoms) in
  let negs = List.map Form.mk_not base in
  dedup (base @ negs)

(* ------------------------------------------------------------------ *)
(* Houdini loop                                                        *)
(* ------------------------------------------------------------------ *)

(* Consecution treats embedded assertions as assumptions: they are
   checked by the main VC pass, and demanding them here would make every
   candidate non-inductive whenever the body contains a single hard
   assert. *)
let rec assume_asserts (c : Gcl.Cmd.command) : Gcl.Cmd.command =
  match c with
  | Gcl.Cmd.Assert (f, _) -> Gcl.Cmd.Assume f
  | Gcl.Cmd.Seq cs -> Gcl.Cmd.Seq (List.map assume_asserts cs)
  | Gcl.Cmd.Choice (a, b) -> Gcl.Cmd.Choice (assume_asserts a, assume_asserts b)
  | Gcl.Cmd.Loop l ->
    Gcl.Cmd.Loop
      { l with
        Gcl.Cmd.loop_prelude = assume_asserts l.Gcl.Cmd.loop_prelude;
        loop_body = assume_asserts l.Gcl.Cmd.loop_body }
  | Gcl.Cmd.Skip | Gcl.Cmd.Assume _ | Gcl.Cmd.Assign _ | Gcl.Cmd.Havoc _ -> c

(* one consecution check: I /\ cond ==> wp(prelude; body, p) *)
let inductive (dispatcher : Dispatch.t) (l : Gcl.Cmd.loop)
    (invariant_parts : Form.t list) (p : Form.t) : bool =
  let wp_opts = { Vcgen.infer_invariant = (fun _ -> None) } in
  let iteration =
    Gcl.Cmd.seq
      [ assume_asserts l.Gcl.Cmd.loop_prelude;
        Gcl.Cmd.Assume l.Gcl.Cmd.loop_cond;
        assume_asserts l.Gcl.Cmd.loop_body ]
  in
  let target = Vcgen.strip_labels (Vcgen.wp wp_opts iteration p) in
  let splits = Vcgen.split_vc ~name:"houdini" target in
  let check (sequent : Sequent.t) : bool =
    match (Dispatch.prove_sequent dispatcher sequent).Dispatch.verdict with
    | Sequent.Valid -> true
    | Sequent.Invalid _ | Sequent.Unknown _ -> false
    | exception _ -> false
  in
  List.for_all
    (fun (sq : Sequent.t) ->
      check { sq with Sequent.hyps = invariant_parts @ sq.Sequent.hyps })
    splits

(** The largest inductive conjunction of candidates (Houdini).  [seeds]
    provide the vocabulary; the result is speculative and must be
    re-verified by the caller. *)
let infer ?(drop = []) ?cache ~(provers : Sequent.prover list)
    ~(seeds : Form.t list) (l : Gcl.Cmd.loop) : Form.t option =
  let cands =
    List.filter
      (fun c -> not (List.exists (Form.equal c) drop))
      (candidates ~seeds l)
  in
  if cands = [] then None
  else begin
    (* share the caller's verdict cache when given: initiation and
       preservation checks repeat across weakening rounds and across
       daemon requests.  Their Valid/Invalid verdicts are semantic facts
       independent of which dispatcher settled them; their deterministic
       Unknowns are kept under this smt+fol portfolio and replayed only
       to dispatchers with the same one *)
    let dispatcher = Dispatch.create ?cache provers in
    let max_rounds = 5 in
    let rec stabilize round (current : Form.t list) =
      if round >= max_rounds then current
      else begin
        let survivors =
          List.filter (fun p -> inductive dispatcher l current p) current
        in
        if List.length survivors = List.length current then current
        else stabilize (round + 1) survivors
      end
    in
    let result = stabilize 0 cands in
    Trace.instant ~cat:"shape"
      ~args:(fun () ->
        [ ("kept", Trace.I (List.length result));
          ("dropped", Trace.I (List.length cands - List.length result)) ])
      "houdini";
    if result = [] then None else Some (Form.mk_and result)
  end

(** Hook for {!Jahob}: infer invariants for un-annotated loops using the
    method's contract and class invariants as the vocabulary. *)
let infer_loop_invariant (_prog : Javaparser.Ast.program)
    (provers : Sequent.prover list) : Gcl.Cmd.loop -> Form.t option =
  (* seeds are attached per-task by the driver through this mutable cell *)
  fun loop -> infer ~provers ~seeds:[] loop

(** As {!infer_loop_invariant} but with explicit per-method seeds and a
    blacklist of candidates that failed initiation in an earlier round
    (counterexample-driven weakening). *)
let infer_with_seeds ?(drop = []) ?cache (provers : Sequent.prover list)
    (seeds : Form.t list) : Gcl.Cmd.loop -> Form.t option =
  fun loop -> infer ~drop ?cache ~provers ~seeds loop
