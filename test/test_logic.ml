(** Tests for the specification-logic core: AST operations, parser,
    printer, type inference and simplifier. *)

open Logic

let form = Alcotest.testable Pprint.pp Form.equal

let parse = Parser.parse

let check_parse msg input expected =
  Alcotest.check form msg expected (parse input)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_atoms () =
  check_parse "true" "True" Form.mk_true;
  check_parse "false" "False" Form.mk_false;
  check_parse "null" "null" Form.mk_null;
  check_parse "int" "42" (Form.mk_int 42);
  check_parse "var" "content" (Form.mk_var "content");
  check_parse "qualified var" "List.content" (Form.mk_var "List.content");
  check_parse "empty set" "{}" Form.mk_emptyset

let test_parse_operators () =
  let x = Form.mk_var "x" and y = Form.mk_var "y" in
  check_parse "eq" "x = y" (Form.mk_eq x y);
  check_parse "neq" "x ~= y" (Form.mk_neq x y);
  check_parse "elem" "x : y" (Form.mk_elem x y);
  check_parse "notelem" "x ~: y" (Form.mk_notelem x y);
  check_parse "and" "x = y & y = x"
    (Form.mk_and [ Form.mk_eq x y; Form.mk_eq y x ]);
  check_parse "or lower than and" "x = y | y = x & x = x"
    (Form.mk_or
       [ Form.mk_eq x y; Form.mk_and [ Form.mk_eq y x; Form.mk_eq x x ] ]);
  check_parse "impl right assoc" "x = y --> y = x --> x = x"
    (Form.mk_impl (Form.mk_eq x y)
       (Form.mk_impl (Form.mk_eq y x) (Form.mk_eq x x)));
  check_parse "union" "x Un y" (Form.App (Const Union, [ x; y ]));
  check_parse "inter binds tighter than union" "x Un y Int x"
    (Form.App (Const Union, [ x; Form.mk_inter y x ]));
  check_parse "arith prec" "1 + 2 * 3"
    (Form.mk_plus (Form.mk_int 1) (Form.mk_mult (Form.mk_int 2) (Form.mk_int 3)))

let test_parse_field_access () =
  let x = Form.mk_var "x" in
  check_parse "field read" "x..Node.next"
    (Form.mk_field_read (Form.mk_var "Node.next") x);
  check_parse "chained field read" "x..Node.next..Node.data"
    (Form.mk_field_read (Form.mk_var "Node.data")
       (Form.mk_field_read (Form.mk_var "Node.next") x));
  check_parse "field read in eq" "x..Node.next ~= x"
    (Form.mk_neq (Form.mk_field_read (Form.mk_var "Node.next") x) x)

let test_parse_paper_formulas () =
  (* every specification formula appearing in the paper's figures *)
  let ok s =
    match Parser.parse_opt s with
    | Some _ -> ()
    | None -> Alcotest.failf "failed to parse %S" s
  in
  ok "content = {}";
  ok "o ~: content & o ~= null";
  ok "content = old content Un {o}";
  ok "result = (content = {})";
  ok "content ~= {}";
  ok "result : content";
  ok "o : content";
  ok "content = old content - {o}";
  ok "init --> a ~= null & b ~= null & a..List.content Int b..List.content = {}";
  ok "a..List.content = {}";
  ok "{ n. n ~= null & rtrancl_pt (% x y. x..Node.next = y) first n}";
  ok "{x. EX n. x = n..Node.data & n : nodes}";
  ok "tree [List.first, Node.next]";
  ok
    "first = null | (first : Object.alloc & (ALL n. n..Node.next ~= first & \
     (n ~= this --> n..List.first ~= first)))";
  ok
    "ALL n1 n2. n1 : nodes & n2 : nodes & n1..Node.data = n2..Node.data --> \
     n1 = n2"

let test_parse_binders () =
  match Form.strip_types (parse "ALL x y. x = y") with
  | Form.Binder (Forall, [ (x, _); (y, _) ], body) ->
    Alcotest.(check string) "var 1" "x" x;
    Alcotest.(check string) "var 2" "y" y;
    Alcotest.check form "body" (Form.mk_eq (Form.mk_var "x") (Form.mk_var "y"))
      body
  | _ -> Alcotest.fail "expected a forall"

let test_parse_comprehension () =
  match Form.strip_types (parse "{n. n ~= null}") with
  | Form.Binder (Comprehension, [ (n, _) ], body) ->
    Alcotest.(check string) "bound var" "n" n;
    Alcotest.check form "body"
      (Form.mk_neq (Form.mk_var "n") Form.mk_null)
      body
  | _ -> Alcotest.fail "expected a comprehension"

let test_parse_finite_set () =
  check_parse "singleton" "{x}" (Form.mk_singleton (Form.mk_var "x"));
  check_parse "pair set" "{x, y}"
    (Form.mk_finite_set [ Form.mk_var "x"; Form.mk_var "y" ])

let test_parse_errors () =
  let fails s =
    match Parser.parse_opt s with
    | None -> ()
    | Some f -> Alcotest.failf "expected %S to fail, got %s" s (Pprint.to_string f)
  in
  fails "";
  fails "x = ";
  fails "(x = y";
  fails "ALL . x";
  fails "x ..";
  fails "{x, }"

(* ------------------------------------------------------------------ *)
(* Printer round-trip                                                  *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let cases =
    [ "content = old content Un {o}";
      "o ~: content & o ~= null";
      "init --> a ~= null & b ~= null";
      "{n. n ~= null & rtrancl_pt (% x y. x..Node.next = y) first n}";
      "tree [List.first, Node.next]";
      "ALL n1 n2. n1 : nodes & n2 : nodes --> n1 = n2";
      "card s <= card t + 1";
      "x..Node.next..Node.data = null";
      "if x = y then 1 else 2";
    ]
  in
  List.iter
    (fun s ->
      let f = parse s in
      let printed = Pprint.to_string f in
      let f' =
        try parse printed
        with Parser.Error m ->
          Alcotest.failf "reparse of %S failed: %s" printed m
      in
      Alcotest.check form (Printf.sprintf "roundtrip %s" s) f f')
    cases

(* ------------------------------------------------------------------ *)
(* Free variables, substitution                                        *)
(* ------------------------------------------------------------------ *)

let test_fv () =
  let fv s = List.sort compare (Form.fv_list (parse s)) in
  Alcotest.(check (list string)) "simple" [ "x"; "y" ] (fv "x = y");
  Alcotest.(check (list string)) "binder hides" [ "y" ] (fv "ALL x. x = y");
  Alcotest.(check (list string))
    "comprehension hides" [ "first" ]
    (fv "{n. rtrancl_pt (% x y. x = y) first n}");
  Alcotest.(check (list string))
    "field var is free" [ "Node.next"; "x" ]
    (fv "x..Node.next = null")

let test_subst () =
  let s = Form.subst1 "x" (Form.mk_var "z") (parse "x = y & (ALL x. x = y)") in
  Alcotest.check form "only free occurrences"
    (parse "z = y & (ALL x. x = y)")
    s;
  (* capture avoidance: substituting y := x under a binder for x *)
  let f = parse "ALL x. x = y" in
  let g = Form.subst1 "y" (Form.mk_var "x") f in
  (match Form.strip_types g with
  | Form.Binder (Forall, [ (x', _) ], body) ->
    if x' = "x" then Alcotest.fail "bound variable captured the substituted x";
    Alcotest.check form "body renamed"
      (Form.mk_eq (Form.mk_var x') (Form.mk_var "x"))
      body
  | _ -> Alcotest.fail "expected forall");
  (* parallel substitution is simultaneous *)
  let h =
    Form.subst_list
      [ ("x", Form.mk_var "y"); ("y", Form.mk_var "x") ]
      (parse "x = y")
  in
  Alcotest.check form "swap" (parse "y = x") h

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let test_smart_constructors () =
  Alcotest.check form "and flattening"
    (parse "a = b & c = d & e = f")
    (Form.mk_and
       [ Form.mk_and [ parse "a = b"; parse "c = d" ]; parse "e = f" ]);
  Alcotest.check form "and true unit" (parse "a = b")
    (Form.mk_and [ Form.mk_true; parse "a = b" ]);
  Alcotest.check form "and false zero" Form.mk_false
    (Form.mk_and [ parse "a = b"; Form.mk_false ]);
  Alcotest.check form "or false unit" (parse "a = b")
    (Form.mk_or [ Form.mk_false; parse "a = b" ]);
  Alcotest.check form "double negation" (parse "a = b")
    (Form.mk_not (Form.mk_not (parse "a = b")));
  Alcotest.check form "impl true" (parse "a = b")
    (Form.mk_impl Form.mk_true (parse "a = b"));
  Alcotest.check form "union empty" (Form.mk_var "s")
    (Form.mk_union Form.mk_emptyset (Form.mk_var "s"))

(* [Form.hash] must agree with [Form.equal], and [equal] is
   alpha-equivalence even when the two sides shadow differently *)
let test_hash_equal_cases () =
  let same a b =
    let a = parse a and b = parse b in
    Alcotest.(check bool) "equal" true (Form.equal a b);
    Alcotest.(check int) "same hash" (Form.hash a) (Form.hash b)
  in
  same "ALL a. ALL b. b : S" "ALL c. ALL c. c : S";
  same "ALL a. (ALL a. a : S) & a : T" "ALL b. (ALL c. c : S) & b : T";
  Alcotest.(check bool) "inner binding is not the outer one" false
    (Form.equal (parse "ALL a. ALL b. a : S") (parse "ALL c. ALL c. c : S"));
  Alcotest.(check bool) "free names differ" false
    (Form.equal (parse "ALL v. v : A") (parse "ALL v. v : B"));
  Alcotest.(check bool) "free is not bound" false
    (Form.equal (parse "ALL v. x : A") (parse "ALL x. x : A"))

let test_views () =
  let f = parse "a = b & c = d & e = f" in
  Alcotest.(check int) "conjuncts" 3 (List.length (Form.conjuncts f));
  let hyps, goal = Form.hypotheses_and_goal (parse "a = b & c = d --> e = f") in
  Alcotest.(check int) "hyps" 2 (List.length hyps);
  Alcotest.check form "goal" (parse "e = f") goal

(* ------------------------------------------------------------------ *)
(* Type inference                                                      *)
(* ------------------------------------------------------------------ *)

let test_typecheck_basic () =
  let env =
    Typecheck.env_of_list
      [ ("content", Ftype.objset);
        ("o", Ftype.Obj);
        ("n", Ftype.Int);
        ("Node.next", Ftype.Arrow (Obj, Obj));
      ]
  in
  let wt s = Typecheck.well_typed ~env (parse s) in
  Alcotest.(check bool) "membership" true (wt "o : content");
  Alcotest.(check bool) "set eq" true (wt "content = {}");
  Alcotest.(check bool) "arith" true (wt "n + 1 < 3");
  Alcotest.(check bool) "field" true (wt "o..Node.next = null");
  Alcotest.(check bool) "card" true (wt "card content = n");
  Alcotest.(check bool) "ill-typed int as bool" false (wt "1 & n = 2");
  Alcotest.(check bool) "ill-typed set plus int" false (wt "content = n")

(* the message of a type error, subformula included, is what users see;
   the context is printed only on failure, and these texts pin that it is
   printed exactly as the checker always printed it *)
let test_typecheck_error_text () =
  let msg ?env s =
    match Typecheck.check_formula ?env (parse s) with
    | _ -> "well-typed"
    | exception Typecheck.Type_error m -> m
  in
  let check s expected = Alcotest.(check string) s expected (msg s) in
  check "x : 3" "cannot unify 't2 set with int in x : 3";
  check "x : A & A < 3" "cannot unify 't2 set with int in A < 3";
  check "(ALL v. v : A --> v : B) & A < 1"
    "cannot unify 't1 set with int in A < 1";
  check "ALL v. v + 1" "cannot unify int with bool in v + 1";
  check "{v. 3} = A" "cannot unify int with bool in 3";
  check "x..f = 1 & f = 2" "cannot unify 't5 => int with int in f = 2";
  check "1" "cannot unify int with bool in formula";
  Alcotest.(check string) "set < int under an environment"
    "cannot unify obj set with int in A < 3"
    (msg ~env:(Typecheck.env_of_list [ ("A", Ftype.objset) ]) "A < 3")

let test_typecheck_disambiguation () =
  let env =
    Typecheck.env_of_list
      [ ("s", Ftype.objset); ("t", Ftype.objset); ("i", Ftype.Int) ]
  in
  let d s = Typecheck.check_formula ~env (parse s) in
  (match Form.strip_types (d "s <= t") with
  | Form.App (Const Subseteq, _) -> ()
  | f -> Alcotest.failf "expected subseteq, got %s" (Pprint.to_string f));
  (match Form.strip_types (d "s - t = {}") with
  | Form.App (Const Eq, [ l; _ ]) -> (
    match Form.strip_types l with
    | Form.App (Const Diff, _) -> ()
    | f -> Alcotest.failf "expected set diff, got %s" (Pprint.to_string f))
  | f -> Alcotest.failf "expected eq, got %s" (Pprint.to_string f));
  (match Form.strip_types (d "i <= 3") with
  | Form.App (Const Le, _) -> ()
  | f -> Alcotest.failf "expected Le, got %s" (Pprint.to_string f))

let test_typecheck_paper () =
  (* Fig. 3's vardefs bodies typecheck in the right environment *)
  let env =
    Typecheck.env_of_list
      [ ("first", Ftype.Obj);
        ("this", Ftype.Obj);
        ("Node.next", Ftype.Arrow (Obj, Obj));
        ("Node.data", Ftype.Arrow (Obj, Obj));
        ("List.first", Ftype.Arrow (Obj, Obj));
        ("nodes", Ftype.objset);
        ("Object.alloc", Ftype.objset);
      ]
  in
  let ok s =
    if not (Typecheck.well_typed ~env (parse s)) then
      Alcotest.failf "ill-typed: %s" s
  in
  ok "{n. n ~= null & rtrancl_pt (% x y. x..Node.next = y) first n}";
  ok "{x. EX n. x = n..Node.data & n : nodes}";
  ok "tree [List.first, Node.next]";
  ok
    "first = null | (first : Object.alloc & (ALL n. n..Node.next ~= first & \
     (n ~= this --> n..List.first ~= first)))"

(* ------------------------------------------------------------------ *)
(* Simplifier                                                          *)
(* ------------------------------------------------------------------ *)

let test_simplify_sets () =
  let simp s = Simplify.simplify (parse s) in
  Alcotest.check form "elem union" (parse "x = a | x = b")
    (simp "x : {a} Un {b}");
  Alcotest.check form "elem empty" Form.mk_false (simp "x : {}");
  Alcotest.check form "elem comprehension" (parse "x ~= null")
    (simp "x : {n. n ~= null}");
  Alcotest.check form "elem inter" (parse "x : s & x : t")
    (simp "x : s Int t");
  Alcotest.check form "elem diff" (parse "x : s & x ~: t")
    (simp "x : s - {y. y : t}" |> fun f -> f)

let test_simplify_beta () =
  let simp s = Simplify.simplify (parse s) in
  Alcotest.check form "beta" (parse "a = b")
    (simp "(% x y. x = y) a b");
  Alcotest.check form "rtrancl lambda untouched"
    (parse "rtrancl_pt (% x y. x..f = y) a b")
    (simp "rtrancl_pt (% x y. x..f = y) a b")

let test_simplify_field () =
  let simp s = Simplify.simplify (parse s) in
  Alcotest.check form "read over write same"
    (parse "v = z")
    (simp "fieldRead (fieldWrite f x v) x = z");
  Alcotest.check form "read over write ite (lifted)"
    (parse "if y = x then v = z else y..f = z")
    (simp "fieldRead (fieldWrite f x v) y = z")

let test_mk_iff () =
  let a = parse "a = b" in
  Alcotest.check form "true <-> f" a (Form.mk_iff Form.mk_true a);
  Alcotest.check form "f <-> true" a (Form.mk_iff a Form.mk_true);
  Alcotest.check form "false <-> f" (Form.mk_not a)
    (Form.mk_iff Form.mk_false a);
  Alcotest.check form "f <-> false" (Form.mk_not a)
    (Form.mk_iff a Form.mk_false);
  Alcotest.check form "false <-> false" Form.mk_true
    (Form.mk_iff Form.mk_false Form.mk_false);
  (* the rewriter agrees with the smart constructor *)
  let simp s = Simplify.simplify (parse s) in
  Alcotest.check form "simplify False <-> f" (Form.mk_not a)
    (simp "False <-> a = b");
  Alcotest.check form "simplify f <-> False" (Form.mk_not a)
    (simp "a = b <-> False");
  Alcotest.check form "simplify True <-> f" a (simp "True <-> a = b");
  Alcotest.check form "simplify f <-> f" Form.mk_true (simp "a = b <-> a = b")

let test_nnf () =
  let n s = Simplify.nnf (parse s) in
  Alcotest.check form "de morgan and" (parse "a ~= b | c ~= d")
    (n "~(a = b & c = d)");
  Alcotest.check form "neg forall" (parse "EX x. x ~= y")
    (n "~(ALL x. x = y)");
  Alcotest.check form "impl" (parse "a ~= b | c = d") (n "a = b --> c = d")

let test_skolemize () =
  let f = Simplify.skolemize (parse "ALL x. EX y. x = y") in
  (* matrix should be x = sk(x) with no quantifier left *)
  let has_binder =
    Form.exists_sub (fun g -> match g with Form.Binder _ -> true | _ -> false) f
  in
  Alcotest.(check bool) "no binders" false has_binder;
  match Form.strip_types f with
  | Form.App (Const Eq, [ lhs; rhs ]) -> (
    match Form.strip_types lhs, Form.strip_types rhs with
    | Form.Var x, Form.App (Var _, [ Form.Var x' ]) when x = x' -> ()
    | _, g -> Alcotest.failf "expected skolem app, got %s" (Pprint.to_string g))
  | g -> Alcotest.failf "expected equality, got %s" (Pprint.to_string g)

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let gen_form : Form.t QCheck.Gen.t =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "z"; "s"; "t" ] >|= Form.mk_var in
  let atom =
    frequency
      [ (3, var);
        (1, map Form.mk_int (int_range (-5) 5));
        (1, return Form.mk_null);
        (1, return Form.mk_true);
        (1, return Form.mk_emptyset);
      ]
  in
  (* Gen.t is a function of the random state; eta-expansion keeps the
     recursive branches lazy (eager construction would be exponential). *)
  let rec go n st =
    if n = 0 then atom st
    else
      frequency
        [ (2, atom);
          (2, fun st -> Form.mk_eq (go (n / 2) st) (go (n / 2) st));
          (2, fun st -> Form.mk_and [ go (n / 2) st; go (n / 2) st ]);
          (2, fun st -> Form.mk_or [ go (n / 2) st; go (n / 2) st ]);
          (1, fun st -> Form.mk_not (go (n - 1) st));
          (1, fun st -> Form.mk_impl (go (n / 2) st) (go (n / 2) st));
          (1, fun st -> Form.mk_union (go (n / 2) st) (go (n / 2) st));
          ( 1,
            fun st ->
              let x = oneofl [ "x"; "y"; "q" ] st in
              Form.mk_forall [ (x, Ftype.Obj) ] (go (n - 1) st) );
          (1, fun st -> Form.mk_elem (go (n / 2) st) (go (n / 2) st));
        ]
        st
  in
  sized (fun n -> go (min n 20))

let arb_form = QCheck.make ~print:Pprint.to_string gen_form

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:500 arb_form (fun f ->
      let s = Pprint.to_string f in
      match Parser.parse_opt s with
      | Some f' -> Form.equal f f'
      | None -> false)

(* NNF normalizes the propositional skeleton only: connectives nested
   below an atom (e.g. inside an equality's operands) are out of scope. *)
let rec nnf_skeleton_ok f =
  match Form.strip_types f with
  | Form.App (Const Not, [ inner ]) -> (
    match Form.strip_types inner with
    | Form.App (Const (And | Or | Impl | Iff | Not), _)
    | Form.Binder ((Forall | Exists), _, _) ->
      false
    | _ -> true)
  | Form.App (Const (And | Or | Impl | Iff), args) ->
    List.for_all nnf_skeleton_ok args
  | Form.Binder ((Forall | Exists), _, body) -> nnf_skeleton_ok body
  | _ -> true

let prop_nnf_no_negated_compound =
  QCheck.Test.make ~name:"nnf pushes negations to atoms" ~count:300 arb_form
    (fun f -> nnf_skeleton_ok (Simplify.nnf f))

let prop_subst_fv =
  QCheck.Test.make ~name:"subst removes the substituted variable" ~count:300
    arb_form (fun f ->
      let g = Form.subst1 "x" (Form.mk_var "fresh_w") f in
      not (Form.Sset.mem "x" (Form.fv g)) || not (Form.Sset.mem "x" (Form.fv f)))

let prop_simplify_idempotent =
  QCheck.Test.make ~name:"simplify is idempotent" ~count:300 arb_form (fun f ->
      let g = Simplify.simplify f in
      Form.equal g (Simplify.simplify g))

let prop_size_positive =
  QCheck.Test.make ~name:"size positive and monotone under not" ~count:200
    arb_form (fun f ->
      Form.size f > 0 && Form.size (Form.App (Const Not, [ f ])) > Form.size f)

(* the surface printer renders Le/Subseteq, Lt/Subset and Minus/Diff with
   one token each — by design, since it prints parseable Isabelle-subset
   syntax.  The canonical printer must separate every such homograph pair,
   whatever the operands, or cache keys collide. *)
let prop_canonical_separates_homographs =
  QCheck.Test.make
    ~name:"canonical printing separates <=/</- homographs" ~count:200
    QCheck.(pair arb_form arb_form)
    (fun (a, b) ->
      List.for_all
        (fun (c1, c2) ->
          let f1 = Form.App (Form.Const c1, [ a; b ]) in
          let f2 = Form.App (Form.Const c2, [ a; b ]) in
          Pprint.to_string f1 = Pprint.to_string f2
          && Pprint.to_canonical_string f1 <> Pprint.to_canonical_string f2)
        [ (Form.Le, Form.Subseteq); (Form.Lt, Form.Subset);
          (Form.Minus, Form.Diff) ])

(* on sort-annotation-free formulas, equal canonical printings must mean
   exactly alpha-equivalence — no more collisions, no spurious splits *)
let prop_canonical_faithful =
  QCheck.Test.make ~name:"canonical printing = alpha-equivalence" ~count:300
    QCheck.(pair arb_form arb_form)
    (fun (f, g) ->
      let canon h =
        Pprint.to_canonical_string (Form.alpha_normalize ~keep_types:true h)
      in
      (canon f = canon g) = Form.equal f g && canon f = canon f)

(* obligations reach the digest as parser output, and re-generating an
   obligation re-parses the same source: canonical printing must be stable
   under print/parse for parser-produced formulas.  (The surface syntax
   drops binder sorts, so each parse mints fresh unification variables —
   the canonical printer renders them uniformly as [_].) *)
let prop_canonical_roundtrip_stable =
  QCheck.Test.make ~name:"canonical printing stable under print/parse"
    ~count:300 arb_form (fun f ->
      match Parser.parse_opt (Pprint.to_string f) with
      | None -> false
      | Some f1 -> (
        match Parser.parse_opt (Pprint.to_string f1) with
        | None -> false
        | Some f2 ->
          Pprint.to_canonical_string
            (Form.alpha_normalize ~keep_types:true f1)
          = Pprint.to_canonical_string
              (Form.alpha_normalize ~keep_types:true f2)))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_print_parse_roundtrip;
      prop_nnf_no_negated_compound;
      prop_subst_fv;
      prop_simplify_idempotent;
      prop_size_positive;
      prop_canonical_separates_homographs;
      prop_canonical_faithful;
      prop_canonical_roundtrip_stable;
    ]

let suite =
  [ ( "logic.parser",
      [ Alcotest.test_case "atoms" `Quick test_parse_atoms;
        Alcotest.test_case "operators" `Quick test_parse_operators;
        Alcotest.test_case "field access" `Quick test_parse_field_access;
        Alcotest.test_case "paper formulas" `Quick test_parse_paper_formulas;
        Alcotest.test_case "binders" `Quick test_parse_binders;
        Alcotest.test_case "comprehension" `Quick test_parse_comprehension;
        Alcotest.test_case "finite set" `Quick test_parse_finite_set;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "roundtrip" `Quick test_roundtrip;
      ] );
    ( "logic.form",
      [ Alcotest.test_case "free variables" `Quick test_fv;
        Alcotest.test_case "substitution" `Quick test_subst;
        Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
        Alcotest.test_case "views" `Quick test_views;
        Alcotest.test_case "hash and alpha-equivalence" `Quick
          test_hash_equal_cases;
      ] );
    ( "logic.typecheck",
      [ Alcotest.test_case "basic" `Quick test_typecheck_basic;
        Alcotest.test_case "disambiguation" `Quick test_typecheck_disambiguation;
        Alcotest.test_case "paper formulas" `Quick test_typecheck_paper;
        Alcotest.test_case "error text" `Quick test_typecheck_error_text;
      ] );
    ( "logic.simplify",
      [ Alcotest.test_case "set rewriting" `Quick test_simplify_sets;
        Alcotest.test_case "beta reduction" `Quick test_simplify_beta;
        Alcotest.test_case "field read/write" `Quick test_simplify_field;
        Alcotest.test_case "iff constant folding" `Quick test_mk_iff;
        Alcotest.test_case "nnf" `Quick test_nnf;
        Alcotest.test_case "skolemize" `Quick test_skolemize;
      ] );
    ("logic.properties", qcheck_tests);
  ]
