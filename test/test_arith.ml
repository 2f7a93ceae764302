(** Tests for the arithmetic decision procedures: Cooper's algorithm and
    the Omega test — cross-validated against each other and against
    brute-force enumeration. *)

(* module aliases into the wrapped libraries *)
module Linterm = Presburger.Linterm
module Pform = Presburger.Pform
module Cooper = Presburger.Cooper
module Omega = Presburger.Omega

(* ------------------------------------------------------------------ *)
(* Cooper                                                              *)
(* ------------------------------------------------------------------ *)

let v = Linterm.var
let k = Linterm.const

let test_cooper_basic () =
  let open Pform in
  Alcotest.(check bool) "EX x. x = 5" true
    (Cooper.decide (mk_ex "x" (t_eq (v "x") (k 5))));
  Alcotest.(check bool) "EX x. x < x" false
    (Cooper.decide (mk_ex "x" (t_lt (v "x") (v "x"))));
  Alcotest.(check bool) "ALL x. x <= x" true
    (Cooper.decide (mk_all "x" (t_le (v "x") (v "x"))));
  Alcotest.(check bool) "ALL x. EX y. y > x" true
    (Cooper.decide (mk_all "x" (mk_ex "y" (t_gt (v "y") (v "x")))));
  Alcotest.(check bool) "EX x. ALL y. x <= y (no least integer)" false
    (Cooper.decide (mk_ex "x" (mk_all "y" (t_le (v "x") (v "y")))))

let test_cooper_divisibility () =
  let open Pform in
  (* every integer is even or odd *)
  Alcotest.(check bool) "even or odd" true
    (Cooper.decide
       (mk_all "x"
          (mk_or
             [ mk_dvd 2 (v "x"); mk_dvd 2 (Linterm.add (v "x") (k 1)) ])));
  (* EX x. 2|x & 3|x & 0 < x < 6 is false; < 7 gives x = 6 *)
  let both_div upper =
    mk_ex "x"
      (mk_and
         [ mk_dvd 2 (v "x");
           mk_dvd 3 (v "x");
           t_gt (v "x") (k 0);
           t_lt (v "x") (k upper);
         ])
  in
  Alcotest.(check bool) "lcm below 6" false (Cooper.decide (both_div 6));
  Alcotest.(check bool) "lcm at 6" true (Cooper.decide (both_div 7))

let test_cooper_classic () =
  let open Pform in
  (* Chicken McNugget: EX a b >= 0. 3a + 5b = n, for all n >= 8 *)
  let representable n =
    mk_ex "a"
      (mk_ex "b"
         (mk_and
            [ t_ge (v "a") (k 0);
              t_ge (v "b") (k 0);
              t_eq
                (Linterm.add (Linterm.scale 3 (v "a")) (Linterm.scale 5 (v "b")))
                (k n);
            ]))
  in
  Alcotest.(check bool) "7 not representable" false
    (Cooper.decide (representable 7));
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%d representable" n)
        true
        (Cooper.decide (representable n)))
    [ 8; 9; 10; 11; 12; 13 ];
  (* and the general statement with a bound *)
  Alcotest.(check bool) "all n>=8 representable" true
    (Cooper.decide
       (mk_all "n"
          (mk_impl
             (t_ge (v "n") (k 8))
             (mk_ex "a"
                (mk_ex "b"
                   (mk_and
                      [ t_ge (v "a") (k 0);
                        t_ge (v "b") (k 0);
                        t_eq
                          (Linterm.add
                             (Linterm.scale 3 (v "a"))
                             (Linterm.scale 5 (v "b")))
                          (v "n");
                      ]))))))

(* ------------------------------------------------------------------ *)
(* Omega                                                               *)
(* ------------------------------------------------------------------ *)

let test_omega_basic () =
  let open Pform in
  let check_is expected atoms msg =
    match Omega.check atoms with
    | Some verdict ->
      let got = match verdict with Omega.Sat -> true | Omega.Unsat -> false in
      Alcotest.(check bool) msg expected got
    | None -> Alcotest.failf "%s: fragment rejected" msg
  in
  check_is true [ t_ge (v "x") (k 1); t_le (v "x") (k 3) ] "1<=x<=3";
  check_is false [ t_ge (v "x") (k 4); t_le (v "x") (k 3) ] "4<=x<=3";
  check_is false [ mk_eq (Linterm.add (Linterm.scale 2 (v "x")) (k (-3))) ] "2x=3";
  check_is true
    [ mk_eq (Linterm.sub (Linterm.add (v "x") (v "y")) (k 10));
      mk_eq (Linterm.sub (Linterm.sub (v "x") (v "y")) (k 4)) ]
    "x+y=10, x-y=4";
  (* dark-shadow exercise: 1 <= 3x <= 2 integer-infeasible *)
  check_is false
    [ t_ge (Linterm.scale 3 (v "x")) (k 1); t_le (Linterm.scale 3 (v "x")) (k 2) ]
    "1<=3x<=2";
  (* 2 <= 3x <= 3 has x = 1 *)
  check_is true
    [ t_ge (Linterm.scale 3 (v "x")) (k 2); t_le (Linterm.scale 3 (v "x")) (k 3) ]
    "2<=3x<=3"

(* random conjunctions: Omega vs Cooper vs brute force on a small box *)
let gen_conj : Pform.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let lin =
    let* c1 = int_range (-3) 3 in
    let* c2 = int_range (-3) 3 in
    let* c0 = int_range (-8) 8 in
    return (Linterm.of_list [ ("x", c1); ("y", c2) ] c0)
  in
  let atom =
    let* t = lin in
    let* kind = int_range 0 2 in
    return
      (match kind with
      | 0 -> Pform.mk_le t
      | 1 -> Pform.mk_eq t
      | _ -> Pform.mk_le (Linterm.neg t))
  in
  list_size (1 -- 4) atom

let print_conj atoms = String.concat " & " (List.map Pform.to_string atoms)

let prop_omega_vs_cooper =
  QCheck.Test.make ~name:"omega agrees with cooper" ~count:400
    (QCheck.make ~print:print_conj gen_conj) (fun atoms ->
      let cooper_sat = Cooper.satisfiable (Pform.mk_and atoms) in
      match Omega.check atoms with
      | Some Omega.Sat -> cooper_sat
      | Some Omega.Unsat -> not cooper_sat
      | None -> true (* simplified to non-conjunction; skip *))

let prop_cooper_vs_bruteforce =
  QCheck.Test.make ~name:"cooper agrees with brute force on a box" ~count:300
    (QCheck.make ~print:print_conj gen_conj) (fun atoms ->
      (* brute-force within [-40, 40]^2; any solution of these small-
         coefficient systems (if one exists) fits well inside the box *)
      let f = Pform.mk_and atoms in
      let brute = ref false in
      for x = -40 to 40 do
        for y = -40 to 40 do
          if (not !brute) && Pform.eval [ ("x", x); ("y", y) ] f then
            brute := true
        done
      done;
      Cooper.satisfiable f = !brute)

let suite =
  [ ( "arith.cooper",
      [ Alcotest.test_case "basic" `Quick test_cooper_basic;
        Alcotest.test_case "divisibility" `Quick test_cooper_divisibility;
        Alcotest.test_case "classic" `Quick test_cooper_classic;
      ] );
    ( "arith.omega",
      [ Alcotest.test_case "basic" `Quick test_omega_basic;
        QCheck_alcotest.to_alcotest prop_omega_vs_cooper;
        QCheck_alcotest.to_alcotest prop_cooper_vs_bruteforce;
      ] );
  ]

(* quantified Presburger: Cooper's unsat answers are checked against a
   bounded witness search (one-sided, but over the full QE pipeline) *)
let prop_cooper_quantified =
  let open QCheck.Gen in
  let lin vars =
    let* cs = flatten_l (List.map (fun v -> int_range (-2) 2 >|= fun c -> (v, c)) vars) in
    let* c0 = int_range (-6) 6 in
    return (Linterm.of_list cs c0)
  in
  let atom vars =
    let* t = lin vars in
    oneofl [ Pform.mk_le t; Pform.mk_eq t; Pform.mk_dvd 2 t ]
  in
  let qf vars =
    let* a = atom vars in
    let* b = atom vars in
    let* c = atom vars in
    oneofl
      [ Pform.mk_and [ a; b; c ];
        Pform.mk_and [ a; Pform.mk_or [ b; c ] ];
        Pform.mk_or [ Pform.mk_and [ a; b ]; c ];
      ]
  in
  let gen = qf [ "x"; "y" ] in
  QCheck.Test.make ~name:"cooper qelim vs bounded witness search" ~count:200
    (QCheck.make ~print:Pform.to_string gen) (fun body ->
      let cooper_sat = Cooper.satisfiable body in
      let witness_found = ref false in
      for x = -25 to 25 do
        for y = -25 to 25 do
          if (not !witness_found) && Pform.eval [ ("x", x); ("y", y) ] body
          then witness_found := true
        done
      done;
      (* witness in the box -> Cooper must agree; Cooper-unsat -> no
         witness anywhere, in particular not in the box *)
      if !witness_found then cooper_sat else true)

let prop_cooper_unsat_confirmed =
  (* the other side: when Cooper says unsat, the box must be empty *)
  let open QCheck.Gen in
  let lin =
    let* c1 = int_range (-2) 2 in
    let* c2 = int_range (-2) 2 in
    let* c0 = int_range (-6) 6 in
    return (Linterm.of_list [ ("x", c1); ("y", c2) ] c0)
  in
  let gen =
    let* t1 = lin in
    let* t2 = lin in
    let* t3 = lin in
    return (Pform.mk_and [ Pform.mk_le t1; Pform.mk_eq t2; Pform.mk_le t3 ])
  in
  QCheck.Test.make ~name:"cooper unsat confirmed by box search" ~count:200
    (QCheck.make ~print:Pform.to_string gen) (fun body ->
      let f = Pform.mk_ex "x" (Pform.mk_ex "y" body) in
      if Cooper.decide f then true
      else begin
        let witness = ref false in
        for x = -30 to 30 do
          for y = -30 to 30 do
            if Pform.eval [ ("x", x); ("y", y) ] body then witness := true
          done
        done;
        not !witness
      end)

let quantified_suite =
  ( "arith.cooper.quantified",
    [ QCheck_alcotest.to_alcotest prop_cooper_quantified;
      QCheck_alcotest.to_alcotest prop_cooper_unsat_confirmed;
    ] )

let suite = suite @ [ quantified_suite ]
