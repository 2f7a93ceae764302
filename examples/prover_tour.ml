(** A tour of the decision-procedure portfolio.

    Run with: [dune exec examples/prover_tour.exe]

    Each reasoner of the paper's Section 3 is exercised on its home
    fragment through the shared {!Logic.Sequent} interface: the
    Nelson-Oppen SMT core, BAPA, the MONA route, and the first-order
    resolution prover. *)

open Logic

let show prover hyps goal =
  let s = Sequent.make (List.map Parser.parse hyps) (Parser.parse goal) in
  let v = prover.Sequent.prove s in
  Printf.printf "  %-12s %-45s %s\n" prover.Sequent.prover_name goal
    (Sequent.verdict_to_string v)

let () =
  print_endline "SMT (congruence closure + Omega test, Nelson-Oppen combined):";
  show Smt.prover [ "x <= y"; "y <= x" ] "x..f = y..f";
  show Smt.prover [ "i > 0"; "i < 2" ] "i = 1";
  show Smt.prover [ "g = fieldWrite f x v" ] "fieldRead g x = v";

  print_endline "";
  print_endline "BAPA (Venn regions -> Presburger, decided by Cooper/Omega):";
  show Bapa.prover
    [ "A Int B = {}"; "card A = 3"; "card B = 4" ]
    "card (A Un B) = 7";
  show Bapa.prover [ "A <= B" ] "card A <= card B";
  show Bapa.prover [ "card A = 1"; "card B = 1"; "A = B" ] "card (A Un B) = 1";

  print_endline "";
  print_endline
    "MONA route (WS1S over the list backbone; outside the default portfolio):";
  show Fca.prover
    [ "rtrancl_pt (% u v. u..next = v) h x";
      "rtrancl_pt (% u v. u..next = v) h y";
      "x..next = y" ]
    "rtrancl_pt (% u v. u..next = v) x y";
  show Fca.prover
    [ "rtrancl_pt (% u v. u..next = v) h x" ]
    "rtrancl_pt (% u v. u..next = v) x h";

  print_endline "";
  print_endline "First-order resolution (set-algebraic client obligations):";
  show Fol.prover
    [ "A Int B = {}"; "o : A"; "A2 = A - {o}"; "B2 = B Un {o}" ]
    "A2 Int B2 = {}";
  show Fol.prover [ "ALL x. x..f = x" ] "a..f = a";

  print_endline "";
  print_endline
    "(valid/invalid are definitive answers; unknown sends the goal to the\n\
     next prover in the dispatcher's portfolio)"
