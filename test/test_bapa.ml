(** Tests for the BAPA decision procedure. *)

open Logic

let prove hyps goal =
  Bapa.prove (Sequent.make (List.map Parser.parse hyps) (Parser.parse goal))

let check expected msg hyps goal =
  match prove hyps goal, expected with
  | Sequent.Valid, `Valid -> ()
  | Sequent.Invalid _, `Invalid -> ()
  | Sequent.Unknown _, `Unknown -> ()
  | v, _ ->
    Alcotest.failf "%s: got %s" msg (Sequent.verdict_to_string v)

let test_set_algebra () =
  check `Valid "union commutes" [] "A Un B = B Un A";
  check `Valid "inter assoc" [] "(A Int B) Int C = A Int (B Int C)";
  check `Valid "de morgan-ish" [ "A Int B = {}"; "x : A" ] "x ~: B";
  check `Invalid "not equal" [] "A = B";
  check `Valid "diff disjoint" [] "(A - B) Int B = {}"

let test_cardinalities () =
  check `Valid "disjoint sum"
    [ "A Int B = {}"; "card A = 3"; "card B = 4" ]
    "card (A Un B) = 7";
  check `Valid "monotone" [ "A <= B" ] "card A <= card B";
  check `Invalid "overlap breaks sum"
    [ "card A = 3"; "card B = 4" ]
    "card (A Un B) = 7";
  check `Valid "inclusion-exclusion"
    [ "card A = 5"; "card B = 5"; "card (A Int B) = 2" ]
    "card (A Un B) = 8";
  check `Valid "empty has card 0" [ "A = {}" ] "card A = 0";
  check `Valid "singleton card" [] "card {x} = 1"

let test_elements () =
  check `Valid "element in union" [ "x : A" ] "x : A Un B";
  check `Valid "distinct elements"
    [ "x : A"; "y ~: A" ] "x ~= y";
  check `Valid "card lower bound from members"
    [ "x : A"; "y : A"; "x ~= y" ]
    "card A >= 2";
  check `Invalid "members may coincide"
    [ "x : A"; "y : A" ]
    "card A >= 2"

let test_fragment_rejection () =
  check `Unknown "field reads are out of fragment" [ "x..f = y" ] "y = x..f";
  check `Unknown "quantifiers are out of fragment"
    [ "ALL z. z : A" ] "x : A"

(* the admission scan refuses a field read before any normalization,
   names it, and is [in_fragment]; a plain BAPA sequent passes it *)
let test_scan_refuses_field_read () =
  let s =
    Sequent.make
      [ Parser.parse "this..List.first : S" ]
      (Parser.parse "card S >= 1")
  in
  (match Bapa.prove s with
  | Sequent.Unknown why ->
    Alcotest.(check string) "reason names the read"
      "BAPA: outside BAPA: this..List.first" why
  | v ->
    Alcotest.failf "expected unknown, got %s" (Sequent.verdict_to_string v));
  Alcotest.(check bool) "outside the fragment" false (Bapa.in_fragment s);
  Alcotest.(check bool) "the translation refuses it too" true
    (match Bapa.translate (Sequent.refutand s) with
    | _ -> false
    | exception Bapa.Out_of_fragment _ -> true);
  let plain =
    Sequent.make
      (List.map Parser.parse [ "x : S"; "S <= T"; "card T = 1" ])
      (Parser.parse "T = {x}")
  in
  Alcotest.(check bool) "plain sequent admitted" true (Bapa.in_fragment plain);
  Alcotest.(check string) "plain sequent proved" "valid"
    (Sequent.verdict_kind (Bapa.prove plain))

(* random cross-check against brute-force over subsets of a 4-element
   universe: validity of small set-algebra sequents *)
let prop_vs_bruteforce =
  let open QCheck.Gen in
  let svar = oneofl [ "A"; "B" ] in
  let rec sexp n st =
    if n = 0 then (Form.mk_var (svar st))
    else
      frequency
        [ (3, fun st -> Form.mk_var (svar st));
          (1, return Form.mk_emptyset);
          (2, fun st -> Form.mk_union (sexp (n / 2) st) (sexp (n / 2) st));
          (2, fun st -> Form.mk_inter (sexp (n / 2) st) (sexp (n / 2) st));
          (1, fun st -> Form.mk_diff (sexp (n / 2) st) (sexp (n / 2) st));
        ]
        st
  in
  let gen =
    let* a = sized (fun n -> sexp (min n 6)) in
    let* b = sized (fun n -> sexp (min n 6)) in
    return (Form.mk_eq a b)
  in
  QCheck.Test.make ~name:"bapa agrees with subset enumeration" ~count:200
    (QCheck.make ~print:Pprint.to_string gen) (fun goal ->
      let verdict = Bapa.prove (Sequent.make [] goal) in
      (* brute force: A, B over subsets of {0..3} *)
      let rec eval env (f : Form.t) : int =
        match Form.strip_types f with
        | Form.Var x -> List.assoc x env
        | Form.Const Form.EmptySet -> 0
        | Form.App (Form.Const Form.Union, [ a; b ]) ->
          eval env a lor eval env b
        | Form.App (Form.Const Form.Inter, [ a; b ]) ->
          eval env a land eval env b
        | Form.App (Form.Const (Form.Diff | Form.Minus), [ a; b ]) ->
          eval env a land lnot (eval env b) land 15
        | _ -> Alcotest.fail "unexpected set term"
      in
      let valid = ref true in
      for a = 0 to 15 do
        for b = 0 to 15 do
          let env = [ ("A", a); ("B", b) ] in
          (match Form.strip_types goal with
          | Form.App (Form.Const Form.Eq, [ l; r ]) ->
            if eval env l <> eval env r then valid := false
          | _ -> Alcotest.fail "unexpected goal")
        done
      done;
      (* 4 elements suffice for 2 set variables (4 Venn regions) *)
      match verdict with
      | Sequent.Valid -> !valid
      | Sequent.Invalid _ -> not !valid
      | Sequent.Unknown _ -> true)

(* the first sequent of [jahob fuzz --seed 7 --count 4 --size 4
   --fragment presburger --no-oracle]: its DNF passes 64 branches, so
   bapa falls back on Cooper's elimination of its three variables, whose
   expansion has no practical end *)
let cooper_fallback_sequent () =
  Sequent.make
    (List.map Parser.parse
       [ "j + -1 - (i + k) > -1 * (0 + j) <-> 2 * -(-1) = 0 - j - -2 * -3 \
          | 1 * k < 0 + -3 + (j - k)";
         "-1 < 0 - 1 - 2 * j <-> -3 + j <= -2 * i - -(-2) & -k > k + i + 3 * k"
       ])
    (Parser.parse
       "(-(3 * k) = 2 | (-(-2 + j) >= k --> -(-2) + i <= 0 * 0)) \
        & j > 0 * (j - i) --> 2 * k + (i - k) <= i - -2 + (k + k)")

let test_cooper_fallback_bounded () =
  let s = cooper_fallback_sequent () in
  let within_2s what f =
    let t0 = Clock.now () in
    let r = f () in
    let elapsed = Clock.now () -. t0 in
    Alcotest.(check bool)
      (Printf.sprintf "%s within 2s (took %.3fs)" what elapsed)
      true (elapsed < 2.0);
    r
  in
  let r =
    within_2s "budgeted dispatch" (fun () ->
        Dispatch.prove_sequent
          (Dispatch.create ~budget_s:0.5 [ Bapa.prover ])
          s)
  in
  Alcotest.(check string) "unknown" "unknown"
    (Sequent.verdict_kind r.Dispatch.verdict);
  (* the work cap ends the fallback, with a reason *)
  (match within_2s "unbudgeted prove" (fun () -> Bapa.prove s) with
  | Sequent.Unknown why ->
    Alcotest.(check string) "reason" "BAPA: Cooper fallback past its work cap"
      why
  | v ->
    Alcotest.failf "expected unknown, got %s" (Sequent.verdict_to_string v));
  (* without the cap, the elimination stops at the deadline it polls *)
  let pa = Presburger.Cooper.nnf (Bapa.translate (Sequent.refutand s)) in
  match
    within_2s "uncapped elimination" (fun () ->
        Deadline.with_token (Deadline.make ~deadline_in:0.5 ()) (fun () ->
            Presburger.Cooper.satisfiable pa))
  with
  | _ -> Alcotest.fail "the uncapped elimination finished in 0.5s"
  | exception Deadline.Expired -> ()

let suite =
  [ ( "bapa",
      [ Alcotest.test_case "set algebra" `Quick test_set_algebra;
        Alcotest.test_case "cardinalities" `Quick test_cardinalities;
        Alcotest.test_case "elements" `Quick test_elements;
        Alcotest.test_case "fragment rejection" `Quick test_fragment_rejection;
        Alcotest.test_case "admission scan refuses a field read" `Quick
          test_scan_refuses_field_read;
        Alcotest.test_case "cooper fallback answers within its budget" `Quick
          test_cooper_fallback_bounded;
        QCheck_alcotest.to_alcotest prop_vs_bruteforce;
      ] );
  ]
