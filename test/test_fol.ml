(** Tests for the first-order resolution prover. *)

open Logic

let parse = Parser.parse

let prove ?set_vars hyps goal =
  let s = Sequent.make (List.map parse hyps) (parse goal) in
  match set_vars with
  | Some sv -> Fol.prove_with ~set_vars:sv s
  | None -> Fol.prove s

let check_valid msg ?set_vars hyps goal =
  match prove ?set_vars hyps goal with
  | Sequent.Valid -> ()
  | v ->
    Alcotest.failf "%s: expected valid, got %s" msg
      (Sequent.verdict_to_string v)

let check_not_valid msg ?set_vars hyps goal =
  match prove ?set_vars hyps goal with
  | Sequent.Valid -> Alcotest.failf "%s: expected not provable" msg
  | Sequent.Invalid _ | Sequent.Unknown _ -> ()

(* ------------------------------------------------------------------ *)
(* Core resolution                                                      *)
(* ------------------------------------------------------------------ *)

let test_propositional () =
  check_valid "modus ponens" [ "p = q"; "p = q --> r = t" ] "r = t";
  check_valid "contraposition" [ "a = b --> c = d" ] "c ~= d --> a ~= b";
  check_not_valid "invalid" [ "a = b | c = d" ] "a = b"

let test_equality_reasoning () =
  check_valid "transitivity" [ "a = b"; "b = c" ] "a = c";
  check_valid "congruence" [ "a = b" ] "a..f = b..f";
  check_valid "symmetry" [ "a = b" ] "b = a";
  check_not_valid "not forced" [ "a = b" ] "a = c"

let test_quantifiers () =
  check_valid "instantiation" [ "ALL x. x..f = x" ] "a..f = a";
  check_valid "witness" [ "a..f = b" ] "EX x. x..f = b";
  check_valid "swap exists forall" [ "EX y. ALL x. x..r = y" ]
    "ALL x. EX y. x..r = y";
  check_not_valid "no invalid swap" [ "ALL x. EX y. x..r = y" ]
    "EX y. ALL x. x..r = y";
  check_valid "drinker-style" [] "EX x. (EX y. y..d = null) --> x..d = null"

let test_set_reasoning () =
  (* pointwise translation of client-level set obligations *)
  check_valid "union membership" ~set_vars:[ "s"; "t" ]
    [ "x : s" ] "x : s Un t";
  check_valid "subset transitivity" ~set_vars:[ "s"; "t"; "u" ]
    [ "ALL e. e : s --> e : t"; "ALL e. e : t --> e : u" ]
    "ALL e. e : s --> e : u";
  check_valid "disjointness from empty inter" ~set_vars:[ "s"; "t" ]
    [ "s Int t = {}"; "x : s" ] "x ~: t";
  check_valid "add preserves disjointness" ~set_vars:[ "s"; "t"; "s2" ]
    [ "s Int t = {}"; "o ~: t"; "s2 = s Un {o}" ] "s2 Int t = {}";
  check_not_valid "union not inter" ~set_vars:[ "s"; "t" ]
    [ "x : s Un t" ] "x : s Int t"

let test_paper_client_obligations () =
  (* Figure 2's move method: the disjointness invariant is maintained when
     an element moves from a to b *)
  check_valid "move preserves disjointness"
    ~set_vars:[ "A"; "B"; "A2"; "B2" ]
    [ "A Int B = {}";
      "o : A";
      "A2 = A - {o}";
      "B2 = B Un {o}" ]
    "A2 Int B2 = {}";
  (* constructor: both lists empty are disjoint *)
  check_valid "empty lists disjoint" ~set_vars:[ "A"; "B" ]
    [ "A = {}"; "B = {}" ] "A Int B = {}";
  (* add to one list keeps disjointness if the element is fresh *)
  check_valid "fresh add" ~set_vars:[ "A"; "B"; "A2" ]
    [ "A Int B = {}"; "x ~: B"; "A2 = A Un {x}" ] "A2 Int B = {}"

(* ------------------------------------------------------------------ *)
(* Index properties: the discrimination tree and the subsumption        *)
(* buckets against their naive reference predicates                     *)
(* ------------------------------------------------------------------ *)

module Props = struct
  open Fol
  module G = QCheck.Gen

  (* fixed arities so every same-predicate literal pair is unifiable
     argument-by-argument: p/1, q/2, r/1 over f/1, g/2, constants a,b,c *)
  let gen_tm : Term.term G.t =
    let open G in
    let leaf =
      oneofl
        [ Term.V "X"; Term.V "Y"; Term.V "Z";
          Term.Fn ("a", []); Term.Fn ("b", []); Term.Fn ("c", []) ]
    in
    sized_size (int_bound 2) @@ fix (fun self n ->
        if n <= 0 then leaf
        else
          frequency
            [ (2, leaf);
              (2, map (fun t -> Term.Fn ("f", [ t ])) (self (n - 1)));
              ( 1,
                map2
                  (fun t u -> Term.Fn ("g", [ t; u ]))
                  (self (n - 1)) (self (n - 1)) );
            ])

  let gen_lit : lit G.t =
    let open G in
    let* sign = bool in
    let* pred, arity = oneofl [ ("p", 1); ("q", 2); ("r", 1) ] in
    let* args = list_repeat arity gen_tm in
    return { sign; pred; args }

  let gen_cl : clause G.t = G.list_size (G.int_range 1 3) gen_lit

  let print_cl c = Format.asprintf "%a" pp_clause c

  let arb_clauses_and_lit =
    QCheck.make
      ~print:(fun (cs, l) ->
        Format.asprintf "active: %s | query: %a"
          (String.concat " ; " (List.map print_cl cs))
          pp_lit l)
      G.(pair (list_size (int_range 1 6) gen_cl) gen_lit)

  let arb_clauses_and_cl =
    QCheck.make
      ~print:(fun (cs, c) ->
        Format.asprintf "active: %s | clause: %s"
          (String.concat " ; " (List.map print_cl cs))
          (print_cl c))
      G.(pair (list_size (int_range 1 6) gen_cl) gen_cl)

  let activate_all cs =
    let idx = Index.create () in
    let entries =
      List.map
        (fun c ->
          let e = Index.register idx c in
          Index.activate idx e;
          e)
        cs
    in
    (idx, entries)

  (* the engine unifies the query literal against a renamed copy of the
     stored one, so the reference predicate must rename too *)
  let unifiable (l1 : lit) (l2 : lit) : bool =
    let l2 = rename_lit "'" l2 in
    match List.fold_left2 Term.unify [] l1.args l2.args with
    | _ -> true
    | exception (Term.No_unifier | Invalid_argument _) -> false

  let prop_retrieval_superset =
    QCheck.Test.make ~name:"index retrieval covers all unifiable partners"
      ~count:500 arb_clauses_and_lit (fun (cs, query) ->
        let idx, entries = activate_all cs in
        let retrieved = Index.retrieve_partners idx query in
        List.for_all
          (fun e ->
            List.for_all
              (fun l2 ->
                (not
                   (l2.sign = not query.sign
                   && l2.pred = query.pred
                   && unifiable query l2))
                || List.exists
                     (fun (e', l2') -> e'.Index.id = e.Index.id && l2' == l2)
                     retrieved)
              e.Index.cl)
          entries)

  let prop_forward_subsumption_agrees =
    QCheck.Test.make
      ~name:"indexed forward subsumption agrees with the naive predicate"
      ~count:500 arb_clauses_and_cl (fun (cs, c) ->
        let idx, _ = activate_all cs in
        let indexed = Index.forward_subsumed idx c <> None in
        let naive = List.exists (fun a -> subsumes a c) cs in
        indexed = naive)

  let prop_backward_subsumption_agrees =
    QCheck.Test.make
      ~name:"indexed backward subsumption agrees with the naive filter"
      ~count:500 arb_clauses_and_cl (fun (cs, c) ->
        let idx, entries = activate_all cs in
        let e = Index.register idx c in
        let indexed =
          List.sort_uniq compare
            (List.map (fun x -> x.Index.id) (Index.backward_subsumed idx e))
        in
        let naive =
          List.sort_uniq compare
            (List.filter_map
               (fun x ->
                 if subsumes c x.Index.cl then Some x.Index.id else None)
               entries)
        in
        indexed = naive)
end

(* ------------------------------------------------------------------ *)
(* Engine parity on the regression corpus                               *)
(* ------------------------------------------------------------------ *)

let outcome_name = function
  | Ok Fol.Proof -> "proof"
  | Ok Fol.Saturated -> "saturated"
  | Ok Fol.GaveUp -> "gave-up"
  | Ok Fol.TimedOut -> "timed-out"
  | Error m -> "untranslatable: " ^ m

let test_cutoff_outcomes () =
  (* the clause cap and the wall-clock cut-off are distinct outcomes, on
     both engines; only the cut-off is a resource limit *)
  let s = Sequent.make [ parse "a = b" ] (parse "a = c") in
  List.iter
    (fun engine ->
      Alcotest.(check string) "clause cap" "gave-up"
        (outcome_name (Fol.outcome_with ~engine ~max_clauses:0 s));
      Alcotest.(check string) "wall-clock cut-off" "timed-out"
        (outcome_name (Fol.outcome_with ~engine ~timeout_s:(-1.) s)))
    [ Fol.Indexed; Fol.Naive ]

let test_corpus_parity () =
  (* every historical counterexample, both engines, generous caps: the
     indexed engine must reach the same Proof/Saturated verdict as the
     naive one, sequent for sequent *)
  let files = Fuzz.Differ.corpus_files "corpus" in
  Alcotest.(check bool) "corpus present" true (files <> []);
  List.iter
    (fun path ->
      match Fuzz.Differ.load_file path with
      | Error msg -> Alcotest.failf "%s: %s" path msg
      | Ok entry ->
        let s = entry.Fuzz.Differ.entry_sequent in
        if Fol.in_fragment s then begin
          let run engine =
            Fol.outcome_with ~engine ~max_clauses:2000 ~max_weight:10_000
              ~max_lits:1_000 ~timeout_s:10.0
              ~set_vars:(Fol.infer_set_vars s) s
          in
          let i = run Fol.Indexed and n = run Fol.Naive in
          if outcome_name i <> outcome_name n then
            Alcotest.failf "%s: indexed=%s naive=%s" (Filename.basename path)
              (outcome_name i) (outcome_name n)
        end)
    files

let suite =
  [ ( "fol",
      [ Alcotest.test_case "propositional" `Quick test_propositional;
        Alcotest.test_case "clause cap vs wall-clock cut-off" `Quick
          test_cutoff_outcomes;
        Alcotest.test_case "equality" `Quick test_equality_reasoning;
        Alcotest.test_case "quantifiers" `Quick test_quantifiers;
        Alcotest.test_case "set reasoning" `Quick test_set_reasoning;
        Alcotest.test_case "paper client obligations" `Quick
          test_paper_client_obligations;
        QCheck_alcotest.to_alcotest Props.prop_retrieval_superset;
        QCheck_alcotest.to_alcotest Props.prop_forward_subsumption_agrees;
        QCheck_alcotest.to_alcotest Props.prop_backward_subsumption_agrees;
        Alcotest.test_case "corpus engine parity" `Quick test_corpus_parity;
      ] );
  ]
