(** Tests for the MONA substitute: DFA algebra and the WS1S decision
    procedure. *)

module Dfa = Mona.Dfa
module Bdd = Mona.Bdd
module Sdfa = Mona.Sdfa
module Ws1s = Mona.Ws1s

(* ------------------------------------------------------------------ *)
(* DFA layer                                                           *)
(* ------------------------------------------------------------------ *)

(* width-1 automaton accepting words whose track-0 bit count is congruent
   to r mod m *)
let mod_counter ~m ~r =
  Dfa.make ~width:1 ~n:m ~initial:0
    ~accept:(fun s -> s = r)
    (fun s l -> if l land 1 = 1 then (s + 1) mod m else s)

let test_dfa_basic () =
  let even = mod_counter ~m:2 ~r:0 in
  Alcotest.(check bool) "empty word even" true (Dfa.accepts even []);
  Alcotest.(check bool) "one bit odd" false (Dfa.accepts even [ 1 ]);
  Alcotest.(check bool) "two bits even" true (Dfa.accepts even [ 1; 0; 1 ]);
  let odd = Dfa.complement even in
  Alcotest.(check bool) "complement" true (Dfa.accepts odd [ 1 ]);
  let both = Dfa.inter even odd in
  Alcotest.(check bool) "inter empty" true (Dfa.is_empty both);
  let either = Dfa.union even odd in
  Alcotest.(check bool) "union universal" true (Dfa.is_universal either)

let test_dfa_minimize () =
  (* divisible by 6 = divisible by 2 and 3; product has 6 states, the
     intersection language automaton is minimal at 6; check equivalence *)
  let d2 = mod_counter ~m:2 ~r:0 and d3 = mod_counter ~m:3 ~r:0 in
  let d6 = Dfa.inter d2 d3 in
  let m = Dfa.minimize d6 in
  Alcotest.(check bool) "minimize preserves states bound" true
    (Dfa.num_states m <= Dfa.num_states d6);
  (* behavioural equality on a sample of words *)
  for w = 0 to 255 do
    let word = List.init 8 (fun i -> (w lsr i) land 1) in
    Alcotest.(check bool) "same language" (Dfa.accepts d6 word)
      (Dfa.accepts m word)
  done;
  let direct6 = mod_counter ~m:6 ~r:0 in
  let symdiff = Dfa.union (Dfa.inter m (Dfa.complement direct6))
      (Dfa.inter direct6 (Dfa.complement m))
  in
  Alcotest.(check bool) "equals mod-6 automaton" true (Dfa.is_empty symdiff)

let test_dfa_witness () =
  let three = mod_counter ~m:4 ~r:3 in
  match Dfa.witness three with
  | Some w ->
    Alcotest.(check int) "shortest witness" 3 (List.length w);
    Alcotest.(check bool) "accepted" true (Dfa.accepts three w)
  | None -> Alcotest.fail "witness expected"

let test_dfa_project () =
  (* width-2: track0 = track1 everywhere; projecting track1 yields the
     universal automaton over track0 (a set always exists) *)
  let eq01 =
    Dfa.make ~width:2 ~n:2 ~initial:0
      ~accept:(fun s -> s = 0)
      (fun s l ->
        if s = 0 && l land 1 = (l lsr 1) land 1 then 0 else 1)
  in
  let p = Dfa.project eq01 1 in
  Alcotest.(check bool) "projection universal" true (Dfa.is_universal p);
  (* track1 must contain a position beyond the word: exists X. 5 : X gives
     acceptance of the empty word thanks to zero-closure *)
  let track1_nonempty =
    (* accept iff track 1 has at least one bit *)
    Dfa.make ~width:2 ~n:2 ~initial:0
      ~accept:(fun s -> s = 1)
      (fun s l -> if s = 1 || (l lsr 1) land 1 = 1 then 1 else 0)
  in
  let q = Dfa.project track1_nonempty 1 in
  Alcotest.(check bool) "zero closure accepts short words" true
    (Dfa.accepts q [])

(* ------------------------------------------------------------------ *)
(* BDD kernel                                                          *)
(* ------------------------------------------------------------------ *)

(* hash consing makes semantic equality physical: every identity below
   is checked with [==] *)
let test_bdd_canonicity () =
  let man = Bdd.manager () in
  let x0 = Bdd.bvar man 0 and x1 = Bdd.bvar man 1 and x2 = Bdd.bvar man 2 in
  let ( &&& ) = Bdd.band man and ( ||| ) = Bdd.bor man in
  let non = Bdd.bnot man in
  Alcotest.(check bool) "reduce collapses lo = hi" true
    (Bdd.node man 7 x0 x0 == x0);
  Alcotest.(check bool) "and idempotent (physical)" true ((x0 &&& x0) == x0);
  Alcotest.(check bool) "or idempotent (physical)" true ((x0 ||| x0) == x0);
  Alcotest.(check bool) "double negation (physical)" true
    (non (non (x0 &&& x1)) == (x0 &&& x1));
  Alcotest.(check bool) "de morgan (physical)" true
    (non (x0 &&& x1) == (non x0 ||| non x1));
  Alcotest.(check bool) "distribution (physical)" true
    (((x0 &&& x1) ||| (x0 &&& x2)) == (x0 &&& (x1 ||| x2)));
  Alcotest.(check bool) "xor via ite (physical)" true
    (Bdd.bxor man x0 x1 == Bdd.ite man x0 (non x1) x1);
  let f = (x0 &&& x1) ||| (x1 &&& x2) ||| (x0 &&& x2) in
  (* eval agrees with the majority function on all 8 assignments *)
  for m = 0 to 7 do
    let assign v = (m lsr v) land 1 = 1 in
    let expected = if (m land 1) + ((m lsr 1) land 1) + ((m lsr 2) land 1) >= 2 then 1 else 0 in
    Alcotest.(check int) "majority eval" expected (Bdd.eval f assign)
  done;
  (* quantification: exists v f == restrict v 0 f \/ restrict v 1 f *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "exists = or of restricts" true
        (Bdd.exists man v f
        == (Bdd.restrict man v false f ||| Bdd.restrict man v true f)))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "exists of absent var is identity" true
    (Bdd.exists man 9 f == f);
  (* renames: inserting then deleting a don't-care variable is identity *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "rename round-trip" true
        (Bdd.rename_down man p (Bdd.rename_up man p f) == f))
    [ 0; 1; 2; 3 ];
  (* tautology and contradiction normalize to the terminal leaves *)
  Alcotest.(check bool) "tautology is true leaf" true
    ((x0 ||| non x0) == Bdd.btrue man);
  Alcotest.(check bool) "contradiction is false leaf" true
    ((x0 &&& non x0) == Bdd.bfalse man)

(* ------------------------------------------------------------------ *)
(* Symbolic vs dense automata (differential)                           *)
(* ------------------------------------------------------------------ *)

(* language equality via symmetric-difference emptiness, on the dense
   side (the oracle) *)
let lang_equal (a : Dfa.t) (b : Dfa.t) : bool =
  Dfa.is_empty
    (Dfa.union
       (Dfa.inter a (Dfa.complement b))
       (Dfa.inter b (Dfa.complement a)))

(* random dense automaton of a given width *)
let gen_dense ~width =
  let open QCheck.Gen in
  let letters = 1 lsl width in
  let* n = int_range 1 4 in
  let* rows =
    array_size (return n) (array_size (return letters) (int_bound (n - 1)))
  in
  let* accept = array_size (return n) bool in
  return { Dfa.width; trans = rows; accept; initial = 0 }

let prop_sdfa_ops_agree =
  let open QCheck.Gen in
  let gen =
    let* width = int_range 1 3 in
    let* a = gen_dense ~width in
    let* b = gen_dense ~width in
    let* pos = int_bound (width - 1) in
    return (a, b, pos)
  in
  let print (a, b, pos) =
    Printf.sprintf "width=%d |a|=%d |b|=%d pos=%d" a.Dfa.width
      (Array.length a.Dfa.trans) (Array.length b.Dfa.trans) pos
  in
  QCheck.Test.make ~name:"sdfa ops agree with dense dfa" ~count:200
    (QCheck.make ~print gen) (fun (a, b, pos) ->
      let man = Bdd.manager () in
      let sa = Sdfa.of_dense man a and sb = Sdfa.of_dense man b in
      (* round-trip *)
      lang_equal a (Sdfa.to_dense sa)
      (* boolean products over reachable pairs *)
      && lang_equal (Dfa.inter a b) (Sdfa.to_dense (Sdfa.inter sa sb))
      && lang_equal (Dfa.union a b) (Sdfa.to_dense (Sdfa.union sa sb))
      && lang_equal (Dfa.complement a) (Sdfa.to_dense (Sdfa.complement sa))
      (* track insertion and projection at every position *)
      && lang_equal (Dfa.insert_track a pos)
           (Sdfa.to_dense (Sdfa.insert_track sa pos))
      && lang_equal (Dfa.project a pos) (Sdfa.to_dense (Sdfa.project sa pos))
      (* minimization: same language and the same canonical state count *)
      && (let dm = Dfa.minimize a and sm = Sdfa.minimize sa in
          lang_equal dm (Sdfa.to_dense sm)
          && Dfa.num_states dm = Sdfa.num_states sm)
      (* witnesses: both empty or both shortest accepted words *)
      &&
      match (Dfa.witness a, Sdfa.witness sa) with
      | None, None -> true
      | Some w, Some w' ->
        List.length w = List.length w' && Dfa.accepts a w'
        && Sdfa.accepts sa w
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* WS1S layer                                                          *)
(* ------------------------------------------------------------------ *)

open Mona.Ws1s

let check_valid msg ?(fo = []) f =
  Alcotest.(check bool) msg true (valid ~fo f)

let check_not_valid msg ?(fo = []) f =
  Alcotest.(check bool) msg false (valid ~fo f)

let check_sat msg ?(fo = []) f =
  match satisfiable ~fo f with
  | Some _ -> ()
  | None -> Alcotest.failf "%s: expected satisfiable" msg

let check_unsat msg ?(fo = []) f =
  match satisfiable ~fo f with
  | Some m ->
    let show (v, ps) =
      v ^ "={" ^ String.concat "," (List.map string_of_int ps) ^ "}"
    in
    Alcotest.failf "%s: expected unsat, got %s" msg
      (String.concat " " (List.map show m))
  | None -> ()

let test_ws1s_sets () =
  check_valid "subset refl" (All2 ("X", Pred (Sub ("X", "X"))));
  check_valid "subset antisym"
    (All2
       ( "X",
         All2
           ( "Y",
             Impl
               ( And [ Pred (Sub ("X", "Y")); Pred (Sub ("Y", "X")) ],
                 Pred (EqS ("X", "Y")) ) ) ));
  check_valid "union upper bound"
    (All2
       ( "X",
         All2
           ( "Y",
             All2
               ( "Z",
                 Impl (Pred (EqUnion ("Z", "X", "Y")), Pred (Sub ("X", "Z")))
               ) ) ));
  check_not_valid "subset not symmetric"
    (All2
       ("X", All2 ("Y", Impl (Pred (Sub ("X", "Y")), Pred (Sub ("Y", "X"))))));
  check_valid "exists empty set" (Ex2 ("X", Pred (IsEmpty "X")));
  check_valid "diff disjoint"
    (All2
       ( "X",
         All2
           ( "Y",
             All2
               ( "D",
                 Impl
                   ( Pred (EqDiff ("D", "X", "Y")),
                     All1
                       ( "p",
                         Impl (Pred (In ("p", "D")), Not (Pred (In ("p", "Y"))))
                       ) ) ) ) ))

let test_ws1s_positions () =
  check_valid "successor exists" ~fo:[]
    (All1 ("x", Ex1 ("y", Pred (SuccF ("y", "x")))));
  check_valid "less irreflexive" (All1 ("x", Not (Pred (LessF ("x", "x")))));
  check_valid "less transitive"
    (All1
       ( "x",
         All1
           ( "y",
             All1
               ( "z",
                 Impl
                   ( And [ Pred (LessF ("x", "y")); Pred (LessF ("y", "z")) ],
                     Pred (LessF ("x", "z")) ) ) ) ));
  check_not_valid "no maximum"
    (Ex1 ("y", All1 ("x", Pred (LeqF ("x", "y")))));
  check_valid "zero is least"
    (All1 ("z", All1 ("x", Impl (Pred (ZeroF "z"), Pred (LeqF ("z", "x"))))));
  check_valid "succ greater"
    (All1 ("x", All1 ("y", Impl (Pred (SuccF ("y", "x")), Pred (LessF ("x", "y"))))))

let test_ws1s_finiteness () =
  (* weak MSO: sets are finite, so "X contains 0 and is successor-closed"
     is impossible *)
  check_unsat "no infinite set"
    (Ex2
       ( "X",
         And
           [ Ex1 ("z", And [ Pred (ZeroF "z"); Pred (In ("z", "X")) ]);
             All1
               ( "x",
                 All1
                   ( "y",
                     Impl
                       ( And [ Pred (In ("x", "X")); Pred (SuccF ("y", "x")) ],
                         Pred (In ("y", "X")) ) ) );
           ] ));
  (* every nonempty set has a minimum *)
  check_valid "least element"
    (All2
       ( "X",
         Impl
           ( Not (Pred (IsEmpty "X")),
             Ex1
               ( "m",
                 And
                   [ Pred (In ("m", "X"));
                     All1
                       ("y", Impl (Pred (In ("y", "X")), Pred (LeqF ("m", "y"))));
                   ] ) ) ));
  (* and a maximum (finiteness again) *)
  check_valid "greatest element"
    (All2
       ( "X",
         Impl
           ( Not (Pred (IsEmpty "X")),
             Ex1
               ( "m",
                 And
                   [ Pred (In ("m", "X"));
                     All1
                       ("y", Impl (Pred (In ("y", "X")), Pred (LeqF ("y", "m"))));
                   ] ) ) ))

let test_ws1s_free_vars () =
  (* free first-order variables: x < y is satisfiable, x < x is not *)
  check_sat "free lt" ~fo:[ "x"; "y" ] (Pred (LessF ("x", "y")));
  check_unsat "free lt irrefl" ~fo:[ "x" ] (Pred (LessF ("x", "x")));
  (* model decoding *)
  match satisfiable ~fo:[ "x"; "y" ] (Pred (SuccF ("y", "x"))) with
  | Some m ->
    let get v = List.assoc v m in
    (match get "x", get "y" with
    | [ px ], [ py ] ->
      Alcotest.(check int) "y = x+1" (px + 1) py
    | _ -> Alcotest.fail "expected singleton assignments")
  | None -> Alcotest.fail "succ satisfiable"

let test_ws1s_list_shapes () =
  (* the shapes the field-constraint translation produces: positions are
     list nodes, sets are node sets, successor is the next field *)
  (* "x reachable from y and y reachable from x implies x = y" *)
  check_valid "reach antisymmetry"
    (All1
       ( "x",
         All1
           ( "y",
             Impl
               ( And [ Pred (LeqF ("x", "y")); Pred (LeqF ("y", "x")) ],
                 Pred (EqF ("x", "y")) ) ) ));
  (* disjoint prefixes/suffixes: X = {p : p <= c}, Y = {p : p > c} are
     disjoint — stated with explicit set definitions *)
  check_valid "prefix suffix disjoint"
    (All1
       ( "c",
         All2
           ( "X",
             All2
               ( "Y",
                 Impl
                   ( And
                       [ All1
                           ( "p",
                             Iff
                               ( Pred (In ("p", "X")),
                                 Pred (LeqF ("p", "c")) ) );
                         All1
                           ( "p",
                             Iff
                               ( Pred (In ("p", "Y")),
                                 Pred (LessF ("c", "p")) ) );
                       ],
                     All1
                       ( "p",
                         Not
                           (And
                              [ Pred (In ("p", "X")); Pred (In ("p", "Y")) ])
                       ) ) ) ) ))

(* cross-check WS1S against explicit bounded-universe enumeration for
   quantifier-free formulas with free set variables over positions 0..3 *)
let prop_ws1s_qf_vs_enumeration =
  let open QCheck.Gen in
  let svar = oneofl [ "A"; "B"; "C" ] in
  let atom =
    let* x = svar in
    let* y = svar in
    let* z = svar in
    oneofl
      [ Pred (Sub (x, y));
        Pred (EqS (x, y));
        Pred (EqUnion (x, y, z));
        Pred (EqInter (x, y, z));
        Pred (IsEmpty x);
      ]
  in
  let rec form n st =
    if n = 0 then atom st
    else
      frequency
        [ (3, atom);
          (2, fun st -> And [ form (n / 2) st; form (n / 2) st ]);
          (2, fun st -> Or [ form (n / 2) st; form (n / 2) st ]);
          (1, fun st -> Not (form (n - 1) st));
        ]
        st
  in
  let gen = sized (fun n -> form (min n 8)) in
  let print _ = "ws1s formula" in
  QCheck.Test.make ~name:"ws1s qf agrees with set enumeration" ~count:150
    (QCheck.make ~print gen) (fun f ->
      (* brute force over subsets of {0,1,2,3} *)
      let subsets = List.init 16 (fun m -> m) in
      let mem m p = (m lsr p) land 1 = 1 in
      let rec eval env (g : Ws1s.t) =
        let lookup v = List.assoc v env in
        match g with
        | True -> true
        | False -> false
        | Pred (Sub (x, y)) -> lookup x land lnot (lookup y) land 15 = 0
        | Pred (EqS (x, y)) -> lookup x = lookup y
        | Pred (EqUnion (x, y, z)) -> lookup x = lookup y lor lookup z
        | Pred (EqInter (x, y, z)) -> lookup x = lookup y land lookup z
        | Pred (IsEmpty x) -> lookup x = 0
        | Not g -> not (eval env g)
        | And gs -> List.for_all (eval env) gs
        | Or gs -> List.exists (eval env) gs
        | Impl (a, b) -> (not (eval env a)) || eval env b
        | Iff (a, b) -> eval env a = eval env b
        | Pred _ | Ex1 _ | All1 _ | Ex2 _ | All2 _ ->
          Alcotest.fail "unexpected connective"
      in
      ignore mem;
      let brute_sat =
        List.exists
          (fun a ->
            List.exists
              (fun b ->
                List.exists
                  (fun c -> eval [ ("A", a); ("B", b); ("C", c) ] f)
                  subsets)
              subsets)
          subsets
      in
      (* bounded enumeration can miss witnesses needing positions > 3, but
         these pure-set constraints are position-symmetric: satisfiable iff
         satisfiable within 4 positions (each atom is positionwise) *)
      let ws1s_sat = satisfiable f <> None in
      ws1s_sat = brute_sat)

(* both engines must agree on closed quantified formulas too — the
   fuzz --mona campaign runs the same check over the formgen fragment;
   this in-tree version also covers first-order binders directly *)
let prop_ws1s_engines_agree =
  let open QCheck.Gen in
  let svar = oneofl [ "X"; "Y"; "Z" ] in
  let fvar = oneofl [ "p"; "q" ] in
  let atom =
    let* x = svar in
    let* y = svar in
    let* z = svar in
    let* p = fvar in
    let* q = fvar in
    oneofl
      [ Pred (Sub (x, y));
        Pred (EqS (x, y));
        Pred (EqUnion (x, y, z));
        Pred (EqInter (x, y, z));
        Pred (EqDiff (x, y, z));
        Pred (IsEmpty x);
        Pred (In (p, x));
        Pred (LessF (p, q));
        Pred (LeqF (p, q));
        Pred (SuccF (p, q));
        Pred (EqF (p, q));
        Pred (ZeroF p);
      ]
  in
  let rec form n st =
    if n = 0 then atom st
    else
      frequency
        [ (3, atom);
          (2, fun st -> And [ form (n / 2) st; form (n / 2) st ]);
          (2, fun st -> Or [ form (n / 2) st; form (n / 2) st ]);
          (2, fun st -> Not (form (n - 1) st));
          (1, fun st -> Impl (form (n / 2) st, form (n / 2) st));
          (1, fun st -> Ex2 ("X", form (n - 1) st));
          (1, fun st -> All2 ("Y", form (n - 1) st));
          (1, fun st -> Ex1 ("p", form (n - 1) st));
          (1, fun st -> All1 ("q", form (n - 1) st));
        ]
        st
  in
  let gen = sized (fun n -> form (min n 6)) in
  let print _ = "ws1s formula" in
  QCheck.Test.make ~name:"ws1s engines agree (bdd vs dense)" ~count:120
    (QCheck.make ~print gen) (fun f ->
      let fo = [ "p"; "q" ] in
      valid ~engine:Ws1s.Bdd ~fo f = valid ~engine:Ws1s.Dense ~fo f
      && (satisfiable ~engine:Ws1s.Bdd ~fo f <> None)
         = (satisfiable ~engine:Ws1s.Dense ~fo f <> None))

(* a 20-track goal: far beyond the dense engine (2^20-letter transition
   tables per state), decided by the symbolic engine in test time *)
let test_ws1s_width20 () =
  let v i = Printf.sprintf "X%d" i in
  let n = 20 in
  let chain =
    And (List.init (n - 1) (fun i -> Pred (Sub (v i, v (i + 1)))))
  in
  let goal = Impl (chain, Pred (Sub (v 0, v (n - 1)))) in
  let closed =
    List.fold_right (fun i g -> All2 (v i, g)) (List.init n Fun.id) goal
  in
  Alcotest.(check bool) "20-track subset chain is valid" true
    (valid ~engine:Ws1s.Bdd closed);
  let wrong = Impl (chain, Pred (Sub (v (n - 1), v 0))) in
  let closed' =
    List.fold_right (fun i g -> All2 (v i, g)) (List.init n Fun.id) wrong
  in
  Alcotest.(check bool) "reversed chain is not valid" false
    (valid ~engine:Ws1s.Bdd closed')

(* a width-scaling suite with known verdicts: subset chains over w set
   tracks (the dense engine's letters are 2^w wide), the same chains
   All2-closed, a first-order transitivity tower and a union tower *)
let scaling_suite =
  let x i = Printf.sprintf "X%d" i in
  let links w = And (List.init (w - 1) (fun i -> Pred (Sub (x i, x (i + 1))))) in
  let chain w = Impl (links w, Pred (Sub (x 0, x (w - 1)))) in
  let chain_rev w = Impl (links w, Pred (Sub (x (w - 1), x 0))) in
  let all2_cover w =
    List.fold_left (fun acc i -> All2 (x i, acc)) (chain w) (List.init w Fun.id)
  in
  let order w =
    let p i = Printf.sprintf "p%d" i in
    List.fold_left
      (fun acc i -> All1 (p i, acc))
      (Impl
         ( And (List.init (w - 1) (fun i -> Pred (LessF (p i, p (i + 1))))),
           Pred (LessF (p 0, p (w - 1))) ))
      (List.init w Fun.id)
  in
  let union_tower k =
    let u i = Printf.sprintf "U%d" i in
    Impl
      ( And
          (Pred (EqS (u 0, x 0))
          :: List.init k (fun i -> Pred (EqUnion (u (i + 1), u i, x (i + 1))))),
        And [ Pred (Sub (x 0, u k)); Pred (Sub (x k, u k)) ] )
  in
  [ ("chain6", chain 6, true);
    ("chain8", chain 8, true);
    ("chain10", chain 10, true);
    ("chain12", chain 12, true);
    ("chain14", chain 14, true);
    ("chain-rev8", chain_rev 8, false);
    ("chain-rev12", chain_rev 12, false);
    ("all2-cover6", all2_cover 6, true);
    ("all2-cover8", all2_cover 8, true);
    ("all2-cover10", all2_cover 10, true);
    ("order6", order 6, true);
    ("order8", order 8, true);
    ("order10", order 10, true);
    ("union-tower3", union_tower 3, true);
    ("union-tower5", union_tower 5, true);
  ]

let test_engines_agree_on_suites () =
  List.iter
    (fun (name, f, expected) ->
      Alcotest.(check bool) (name ^ ": bdd verdict") expected
        (valid ~engine:Ws1s.Bdd f);
      Alcotest.(check bool) (name ^ ": dense agrees") expected
        (valid ~engine:Ws1s.Dense f))
    scaling_suite;
  (* every obligation of the examples that the MONA route admits:
     Buffer's global invariants and the association-list lemmas *)
  let routed =
    [ "global/Buffer.java"; "assoc/Assoc.java" ]
    |> List.concat_map (fun f ->
           Javaparser.Jparser.parse_program_file
             (Fixtures.examples ^ "/" ^ f)
           |> Gcl.Desugar.program_tasks
           |> List.concat_map Vcgen.method_obligations)
    |> List.filter_map (fun s -> Result.to_option (Fca.route_sequent s))
  in
  Alcotest.(check int) "MONA-routed examples obligations" 5
    (List.length routed);
  List.iter
    (fun (f, fo) ->
      Alcotest.(check bool) "bdd and dense agree on an examples obligation"
        (valid ~engine:Ws1s.Bdd ~fo f)
        (valid ~engine:Ws1s.Dense ~fo f))
    routed

let suite =
  [ ( "mona.dfa",
      [ Alcotest.test_case "boolean algebra" `Quick test_dfa_basic;
        Alcotest.test_case "minimize" `Quick test_dfa_minimize;
        Alcotest.test_case "witness" `Quick test_dfa_witness;
        Alcotest.test_case "project" `Quick test_dfa_project;
      ] );
    ( "mona.bdd",
      [ Alcotest.test_case "canonicity" `Quick test_bdd_canonicity;
        QCheck_alcotest.to_alcotest prop_sdfa_ops_agree;
      ] );
    ( "mona.ws1s",
      [ Alcotest.test_case "set algebra" `Quick test_ws1s_sets;
        Alcotest.test_case "positions" `Quick test_ws1s_positions;
        Alcotest.test_case "finiteness" `Quick test_ws1s_finiteness;
        Alcotest.test_case "free variables" `Quick test_ws1s_free_vars;
        Alcotest.test_case "list shapes" `Quick test_ws1s_list_shapes;
        Alcotest.test_case "width-20 regression" `Quick test_ws1s_width20;
        Alcotest.test_case "scaling suite and examples: bdd and dense agree"
          `Quick test_engines_agree_on_suites;
        QCheck_alcotest.to_alcotest prop_ws1s_qf_vs_enumeration;
        QCheck_alcotest.to_alcotest prop_ws1s_engines_agree;
      ] );
  ]
