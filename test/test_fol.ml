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
        [ Term.V 0; Term.V 1; Term.V 2;
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

  let register idx c = Index.register idx ~weight:(clause_size c) c

  let activate_all cs =
    let idx = Index.create () in
    let entries =
      List.map
        (fun c ->
          let e = register idx c in
          Index.activate idx e;
          e)
        cs
    in
    (idx, entries)

  (* the engine unifies the query literal against a renamed copy of the
     stored one, so the reference predicate must rename too *)
  let unifiable (l1 : lit) (l2 : lit) : bool =
    let l2 = rename_lit l2 in
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
        let indexed = Index.forward_subsumed idx c in
        let naive = List.exists (fun a -> Fuzz.Folab.subsumes a c) cs in
        indexed = naive)

  (* the backward-subsumption generator widens the vocabulary to the
     crowded [=] and [obj] trees and to all-variable literals, where the
     choice of query literal matters most *)
  let gen_var_lit : lit G.t =
    let open G in
    let* sign = bool in
    let* pred, arity = oneofl [ ("=", 2); ("obj", 1); ("p", 1); ("q", 2) ] in
    let* args =
      list_repeat arity
        (frequency
           [ (3, oneofl [ Term.V 0; Term.V 1; Term.V 2 ]); (1, gen_tm) ])
    in
    return { sign; pred; args }

  let gen_wide_cl : clause G.t =
    G.list_size (G.int_range 1 3) (G.frequency [ (1, gen_lit); (1, gen_var_lit) ])

  (* each stored clause is left registered-but-passive, activated, or
     activated and then retired *)
  let arb_states_and_cl =
    QCheck.make
      ~print:(fun (cs, c) ->
        Format.asprintf "stored: %s | clause: %s"
          (String.concat " ; "
             (List.map
                (fun (cl, st) -> Printf.sprintf "%s [%d]" (print_cl cl) st)
                cs))
          (print_cl c))
      G.(pair (list_size (int_range 1 8) (pair gen_wide_cl (int_bound 2)))
           gen_wide_cl)

  (* backward subsumption runs on the clause just activated and retires
     active clauses only: queued ones are left to the pop-time check *)
  let prop_backward_subsumption_agrees =
    QCheck.Test.make
      ~name:"indexed backward subsumption agrees with the naive filter"
      ~count:1000 arb_states_and_cl (fun (cs, c) ->
        let idx = Index.create () in
        let entries =
          List.map
            (fun (cl, st) ->
              let e = register idx cl in
              if st >= 1 then Index.activate idx e;
              if st = 2 then Index.retire idx e;
              e)
            cs
        in
        let e = register idx c in
        Index.activate idx e;
        let indexed =
          List.sort_uniq compare
            (List.map (fun x -> x.Index.id) (Index.backward_subsumed idx e))
        in
        let naive =
          List.sort_uniq compare
            (List.filter_map
               (fun x ->
                 if
                   x.Index.state = Index.Active
                   && Fuzz.Folab.subsumes c x.Index.cl
                 then
                   Some x.Index.id
                 else None)
               entries)
        in
        indexed = naive)

  (* stored clauses interleaved with a queued one: each is left queued
     (0), activated at once (1), activated only after every registration
     (2), or activated and then retired (3); the queued clause is
     registered before the stored clause at the given position *)
  let arb_queued =
    QCheck.make
      ~print:(fun (cs, (k, c)) ->
        Format.asprintf "stored: %s | queued at %d: %s"
          (String.concat " ; "
             (List.map
                (fun (cl, st) -> Printf.sprintf "%s [%d]" (print_cl cl) st)
                cs))
          k (print_cl c))
      G.(pair
           (list_size (int_range 1 8) (pair gen_wide_cl (int_bound 3)))
           (pair (int_bound 8) gen_wide_cl))

  let prop_drop_if_subsumed =
    QCheck.Test.make
      ~name:"a queued clause is dropped iff a later-activated clause subsumes it"
      ~count:1000 arb_queued (fun (cs, (k, c)) ->
        let idx = Index.create () in
        let queued = ref None in
        let register_queued () = queued := Some (register idx c) in
        let entries =
          List.mapi
            (fun i (cl, st) ->
              if i = k then register_queued ();
              let e = register idx cl in
              if st = 1 || st = 3 then Index.activate idx e;
              if st = 3 then Index.retire idx e;
              (e, st))
            cs
        in
        if !queued = None then register_queued ();
        List.iter (fun (e, st) -> if st = 2 then Index.activate idx e) entries;
        let q = Option.get !queued in
        (* activated after [q] was registered: late, or registered after
           [q] and activated at once *)
        let subsumer newer =
          List.exists
            (fun (i, (x, st)) ->
              x.Index.state = Index.Active
              && (st = 2 || i >= k) = newer
              && Fuzz.Folab.subsumes x.Index.cl c)
            (List.mapi (fun i x -> (i, x)) entries)
        in
        let naive =
          if subsumer true then Index.Dropped
          else if subsumer false then Index.Subsumed
          else Index.Fresh
        in
        let standing = Index.take idx q in
        standing = naive
        && (q.Index.state = Index.Dead) = (standing = Index.Dropped))

  (* a term with its variables renamed by [f] *)
  let rec map_vars (f : int -> int) (t : Term.term) : Term.term =
    match t with
    | Term.V x -> Term.V (f x)
    | Term.Fn (g, args) -> Term.Fn (g, List.map (map_vars f) args)

  (* normal forms order literals by their variable-blind skeletons; the
     allocation-free comparison must rank them as [compare] ranks the
     built skeletons *)
  let prop_skeleton_order =
    QCheck.Test.make ~name:"skeleton comparison agrees with built skeletons"
      ~count:1000
      (QCheck.make ~print:print_cl gen_wide_cl)
      (fun c ->
        let skel l = { l with args = List.map (map_vars (fun _ -> 0)) l.args } in
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                Int.compare (compare_skeletons_in [] a 0 b 0) 0
                = Int.compare (compare (skel a) (skel b)) 0)
              c)
          c)

  (* a test-local copy of the normal form with the variable names the
     engine once used: variable [i] becomes ["_v" ^ string_of_int i],
     and polymorphic [compare] sorts the renamed literals *)
  type nterm = NV of string | NFn of string * nterm list
  type nlit = { nsign : bool; npred : string; nargs : nterm list }

  let rec named (t : Term.term) : nterm =
    match t with
    | Term.V i -> NV ("_v" ^ string_of_int i)
    | Term.Fn (f, args) -> NFn (f, List.map named args)

  let named_lit (l : lit) : nlit =
    { nsign = l.sign; npred = l.pred; nargs = List.map named l.args }

  let reference_normal_form (c : clause) : nlit list =
    let skel l =
      { l with args = List.map (map_vars (fun _ -> 0)) l.args }
    in
    let ordered = List.stable_sort (fun a b -> compare (skel a) (skel b)) c in
    let vars =
      List.fold_left
        (fun acc l ->
          List.fold_left
            (fun acc t ->
              let rec go acc = function
                | Term.V x -> if List.mem x acc then acc else acc @ [ x ]
                | Term.Fn (_, args) -> List.fold_left go acc args
              in
              go acc t)
            acc l.args)
        [] ordered
    in
    let number x =
      let rec go i = function
        | [] -> assert false
        | y :: rest -> if x = y then i else go (i + 1) rest
      in
      go 0 vars
    in
    List.sort_uniq compare
      (List.map
         (fun l ->
           named_lit { l with args = List.map (map_vars number) l.args })
         ordered)

  (* clauses over up to 14 distinct variables, so numerals of two digits
     meet numerals of one *)
  let gen_many_vars_cl : clause G.t =
    let open G in
    let leaf =
      frequency
        [ (4, map (fun i -> Term.V i) (int_bound 13));
          (1, oneofl [ Term.Fn ("a", []); Term.Fn ("b", []) ]) ]
    in
    let tm =
      frequency
        [ (3, leaf);
          (1, map (fun t -> Term.Fn ("f", [ t ])) leaf);
          (1, map2 (fun t u -> Term.Fn ("g", [ t; u ])) leaf leaf) ]
    in
    let lit =
      let* sign = bool in
      let* pred, arity = oneofl [ ("p", 1); ("q", 2); ("r", 3) ] in
      let* args = list_repeat arity tm in
      return { sign; pred; args }
    in
    list_size (int_range 1 6) lit

  let prop_normal_form_order =
    QCheck.Test.make
      ~name:"integer variables keep the normal form's literal order"
      ~count:1000
      (QCheck.make ~print:print_cl gen_many_vars_cl)
      (fun c ->
        List.map named_lit (normalize_clause c) = reference_normal_form c)

  (* [resolve_on] reads the resolvent off both parents through the
     unifier, without renaming the partner or applying the unifier; the
     naive engine builds it: rename the partner apart, unify, apply the
     unifier to what is left of both parents, normalize *)
  let reference_resolvent c1 l1 c2 l2 =
    match List.fold_left2 Term.unify [] l1.args (rename_lit l2).args with
    | s ->
      Some
        (normalize_clause
           (apply_clause s
              (List.filter (fun l -> l != l1) c1
              @ rename_clause (List.filter (fun l -> l != l2) c2))))
    | exception (Term.No_unifier | Invalid_argument _) -> None

  (* two clauses from one generator (both few variables and deep terms,
     or up to 14 variables), or one clause resolved with itself *)
  let arb_parents =
    QCheck.make
      ~print:(fun (c1, c2) -> print_cl c1 ^ " || " ^ print_cl c2)
      G.(
        let* gen = oneofl [ gen_cl; gen_many_vars_cl ] in
        let* c1 = gen in
        let* self = bool in
        if self then return (c1, c1) else map (fun c2 -> (c1, c2)) gen)

  let prop_resolve_on =
    QCheck.Test.make
      ~name:"resolve_on builds the renamed, unified and normalized resolvent"
      ~count:1000 arb_parents (fun (c1, c2) ->
        List.for_all
          (fun l1 ->
            List.for_all
              (fun l2 ->
                l1.sign = l2.sign
                || (not (String.equal l1.pred l2.pred))
                || resolve_on c1 l1 c2 l2 = reference_resolvent c1 l1 c2 l2)
              c2)
          c1)

  (* the one walk over a generated clause against the functions it
     stands for; the unit filter finds a ground unit by the literal hash
     its activation filed it under *)
  let prop_profile =
    QCheck.Test.make
      ~name:"a clause's profile agrees with its size, length and literal hashes"
      ~count:1000
      (QCheck.make ~print:print_cl gen_wide_cl)
      (fun c ->
        let p = profile c in
        p.size = clause_size c
        && p.lits = clause_lits c
        && p.ground
           = List.map (fun l -> if ground_lit l then hash_lit l else -1) c)
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
    (fun (engine : Fuzz.Folab.engine) ->
      Alcotest.(check string) "clause cap" "gave-up"
        (outcome_name (engine ~max_clauses:0 s));
      Alcotest.(check string) "wall-clock cut-off" "timed-out"
        (outcome_name (engine ~timeout_s:(-1.) s)))
    [ Fol.outcome_with; Fuzz.Folab.naive_outcome_with ]

let test_outcome_counters () =
  (* one [fol.outcome.*] tally per refutation and a [fol.kept] count,
     visible in the --stats report *)
  Trace.reset ();
  Trace.start_collecting ();
  let s hyps goal = Sequent.make (List.map parse hyps) (parse goal) in
  Alcotest.(check (list string)) "outcomes"
    [ "proof"; "saturated"; "gave-up"; "timed-out" ]
    (List.map outcome_name
       [ Fol.outcome_with (s [ "a = b"; "b = c" ] "a = c");
         Fol.outcome_with (s [ "p" ] "q");
         Fol.outcome_with ~max_clauses:0 (s [ "a = b" ] "a = c");
         Fol.outcome_with ~timeout_s:(-1.) (s [ "a = b" ] "a = c") ]);
  Trace.stop ();
  List.iter
    (fun o ->
      Alcotest.(check int) ("fol.outcome." ^ o) 1
        (Trace.counter_value ("fol.outcome." ^ o)))
    [ "proof"; "saturated"; "gave_up"; "timed_out" ];
  Alcotest.(check bool) "fol.kept counted" true
    (Trace.counter_value "fol.kept" > 0);
  let report = Format.asprintf "%a" Trace.pp_report () in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " in the stats report") true
        (Test_daemon.has_substring report k))
    [ "fol.outcome.gave_up"; "fol.kept" ];
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Search identity: list-group runs pinned to their search counters     *)
(* ------------------------------------------------------------------ *)

(* the "# expect: " line of a pinned sequent file *)
let expected_search path =
  let prefix = "# expect: " in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix l then
           Some
             (String.sub l (String.length prefix)
                (String.length l - String.length prefix))
         else None)

(* the outcome and search counters of one refutation; the wall clock is
   generous so only the clause cap can end a search *)
let search_summary s =
  Trace.reset ();
  Trace.start_collecting ();
  let o = Fol.outcome_with ~timeout_s:60. ~set_vars:(Fol.infer_set_vars s) s in
  Trace.stop ();
  let c = Trace.counter_value in
  let r =
    Printf.sprintf "%s given=%d kept=%d dedup=%d forward=%d backward=%d"
      (outcome_name o) (c "fol.given") (c "fol.kept") (c "fol.dedup.hits")
      (c "fol.subsume.forward") (c "fol.subsume.backward")
  in
  Trace.reset ();
  r

let test_search_identity () =
  (* speed-ups to the given-clause loop must keep the same search: the
     same clauses kept, deduplicated and subsumed, the same outcome *)
  let files = Fuzz.Differ.corpus_files Fixtures.fol_search in
  Alcotest.(check bool) "pinned sequents present" true (List.length files >= 3);
  List.iter
    (fun path ->
      match (Fuzz.Differ.load_file path, expected_search path) with
      | Error msg, _ -> Alcotest.failf "%s: %s" path msg
      | Ok _, None -> Alcotest.failf "%s: no expect line" path
      | Ok entry, Some expected ->
        Alcotest.(check string) (Filename.basename path) expected
          (search_summary entry.Fuzz.Differ.entry_sequent))
    files

(* [s] with every fresh-style free name [base__N] renamed [base__(N+k)]:
   the same obligation as a process whose fresh counter had advanced k
   names further would generate it *)
let shift_fresh k (s : Sequent.t) : Sequent.t =
  let shift x =
    match Sequent.fresh_base x with
    | None -> None
    | Some base ->
      let from = String.length base + 2 in
      let n = int_of_string (String.sub x from (String.length x - from)) in
      Some (x, Form.Var (Printf.sprintf "%s__%d" base (n + k)))
  in
  let names =
    List.concat_map Form.fv_list (s.Sequent.goal :: s.Sequent.hyps)
    |> List.sort_uniq String.compare
  in
  let pairs = List.filter_map shift names in
  { s with
    Sequent.hyps = List.map (Form.subst_list pairs) s.Sequent.hyps;
    goal = Form.subst_list pairs s.Sequent.goal }

let test_search_offsets () =
  (* the search must not read how far the fresh counter had advanced:
     shifted fresh names keep every pinned counter *)
  let files = Fuzz.Differ.corpus_files Fixtures.fol_search in
  Alcotest.(check bool) "pinned sequents present" true (List.length files >= 3);
  List.iter
    (fun path ->
      match (Fuzz.Differ.load_file path, expected_search path) with
      | Ok entry, Some expected ->
        List.iter
          (fun k ->
            Alcotest.(check string)
              (Printf.sprintf "%s, names shifted by %d" (Filename.basename path) k)
              expected
              (search_summary (shift_fresh k entry.Fuzz.Differ.entry_sequent)))
          [ 1; 8739; 98739; 1_000_000 ]
      | _ -> Alcotest.failf "%s: unreadable or no expect line" path)
    files

(* saturation-heavy rows beside the corpus: an equality chain that only a
   resolution proof settles, a guarded chain of three-literal rules (full
   subsumption), and the paper's set-move and reachability obligations *)
let saturation_rows =
  let seq hyps goal = Sequent.make (List.map parse hyps) (parse goal) in
  let chain n =
    let v i = Printf.sprintf "fb_%d" i in
    seq
      (List.init n (fun i -> Printf.sprintf "%s = %s" (v i) (v (i + 1))))
      (Printf.sprintf "%s..f..g = %s..f..g" (v 0) (v n))
  in
  let guarded_chain n =
    seq
      ([ "fga : fgS_0"; "fga : fgG" ]
      @ List.init n (fun i ->
            Printf.sprintf "ALL x. x : fgS_%d & x : fgG --> x : fgS_%d" i
              (i + 1)))
      (Printf.sprintf "fga : fgS_%d" n)
  in
  [ ("chain10", chain 10);
    ("guarded-chain120", guarded_chain 120);
    ( "set-move",
      seq [ "A Int B = {}"; "o : A"; "A2 = A - {o}"; "B2 = B Un {o}" ]
        "A2 Int B2 = {}" );
    ( "fresh-add",
      seq [ "A Int B = {}"; "x ~: B"; "A2 = A Un {x}" ] "A2 Int B = {}" );
    ( "subset-chain",
      seq
        [ "ALL e. e : s --> e : t"; "ALL e. e : t --> e : u";
          "ALL e. e : u --> e : v" ]
        "ALL e. e : s --> e : v" );
    ( "reach-extend",
      seq
        [ "rtrancl_pt (% u v. u..next = v) h x";
          "rtrancl_pt (% u v. u..next = v) h y"; "x..next = y" ]
        "rtrancl_pt (% u v. u..next = v) x y" );
  ]

let test_corpus_parity () =
  (* every historical counterexample and the saturation rows, both
     engines, generous caps: the indexed engine must reach the same
     Proof/Saturated verdict as the naive one, sequent for sequent *)
  let files = Fuzz.Differ.corpus_files Fixtures.corpus in
  Alcotest.(check bool) "corpus present" true (files <> []);
  let corpus =
    List.map
      (fun path ->
        match Fuzz.Differ.load_file path with
        | Error msg -> Alcotest.failf "%s: %s" path msg
        | Ok entry -> (Filename.basename path, entry.Fuzz.Differ.entry_sequent))
      files
  in
  List.iter
    (fun (name, s) ->
      if Fol.in_fragment s then begin
        let run (engine : Fuzz.Folab.engine) =
          engine ~max_clauses:2000 ~max_weight:10_000 ~max_lits:1_000
            ~timeout_s:10.0 ~set_vars:(Fol.infer_set_vars s) s
        in
        let i = run Fol.outcome_with
        and n = run Fuzz.Folab.naive_outcome_with in
        if outcome_name i <> outcome_name n then
          Alcotest.failf "%s: indexed=%s naive=%s" name (outcome_name i)
            (outcome_name n)
      end)
    (corpus @ saturation_rows)

let test_list_no_lost_proofs () =
  (* under production caps the engines spend their budgets differently,
     so the check is containment: every List obligation in the fol
     fragment that the naive engine proves, the indexed engine proves *)
  let prog =
    List.concat_map
      (fun f ->
        Javaparser.Jparser.parse_program_file
          (Fixtures.examples ^ "/list/" ^ f))
      [ "Client.java"; "List.java" ]
  in
  let obligations =
    List.concat_map Vcgen.method_obligations (Gcl.Desugar.program_tasks prog)
    |> List.filter Fol.in_fragment
  in
  let proves (engine : Fuzz.Folab.engine) s =
    engine ~set_vars:(Fol.infer_set_vars s) s = Ok Fol.Proof
  in
  let naive = List.filter (proves Fuzz.Folab.naive_outcome_with) obligations in
  Alcotest.(check bool) "naive proves some" true (naive <> []);
  List.iter
    (fun s ->
      if not (proves Fol.outcome_with s) then
        Alcotest.failf "indexed engine lost the naive proof of %s"
          s.Sequent.name)
    naive

(* the admission scan refuses a [tree] before any translation, names it,
   and is [in_fragment]; the refusal is one the translation makes too *)
let test_scan_refuses_tree () =
  let s =
    Sequent.make
      [ parse "tree [List.first, Node.next]"; parse "x..Node.next = y" ]
      (parse "y = x..Node.next")
  in
  (match Fol.prove s with
  | Sequent.Unknown why ->
    Alcotest.(check string) "reason names the atom"
      "not first-order translatable: tree [List.first, Node.next]" why
  | v ->
    Alcotest.failf "expected unknown, got %s" (Sequent.verdict_to_string v));
  Alcotest.(check bool) "outside the fragment" false (Fol.in_fragment s);
  Alcotest.(check bool) "the translation refuses it too" true
    (Result.is_error (Fol.translate ~set_vars:[] s));
  (* without the tree the same sequent is admitted and proved *)
  let s' = { s with Sequent.hyps = List.tl s.Sequent.hyps } in
  Alcotest.(check bool) "admitted" true (Fol.in_fragment s');
  Alcotest.(check string) "proved" "valid"
    (Sequent.verdict_kind (Fol.prove s'))

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
        QCheck_alcotest.to_alcotest Props.prop_drop_if_subsumed;
        QCheck_alcotest.to_alcotest Props.prop_skeleton_order;
        QCheck_alcotest.to_alcotest Props.prop_normal_form_order;
        QCheck_alcotest.to_alcotest Props.prop_resolve_on;
        QCheck_alcotest.to_alcotest Props.prop_profile;
        Alcotest.test_case "corpus engine parity" `Quick test_corpus_parity;
        Alcotest.test_case
          "the indexed engine proves every List fol-fragment obligation the \
           naive engine proves"
          `Quick test_list_no_lost_proofs;
        Alcotest.test_case "outcome and kept counters" `Quick
          test_outcome_counters;
        Alcotest.test_case "search identity on pinned list sequents" `Quick
          test_search_identity;
        Alcotest.test_case "search identity under shifted fresh names" `Quick
          test_search_offsets;
        Alcotest.test_case "admission scan refuses tree" `Quick
          test_scan_refuses_tree;
      ] );
  ]
