(** Tests for the fuzzer's typed formula generators ({!Fuzz.Formgen}):
    every generated sequent typechecks under its fragment's vocabulary,
    respects the documented size bound, and is accepted by the fragment's
    membership predicate; generation is a pure function of the seed.
    Also the contract of fol's and bapa's admission scans, on generated
    sequents and on the List obligations. *)

open Logic
module Formgen = Fuzz.Formgen

let pp_sequent s = Format.asprintf "%a" Sequent.pp s

let arb frag ~size =
  QCheck.make ~print:pp_sequent (Formgen.gen_sequent frag ~size)

let count = 300
let size = 3

let prop_typechecks frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ " sequents typecheck")
    ~count (arb frag ~size)
    (fun s ->
      match
        Typecheck.check_formula ~env:(Formgen.type_env frag)
          (Sequent.to_form s)
      with
      | _ -> true
      | exception Typecheck.Type_error _ -> false)

let prop_size_bound frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ " sequents respect the size bound")
    ~count (arb frag ~size)
    (fun s -> Formgen.sequent_size s <= Formgen.sequent_node_bound ~size)

(* Membership: each fragment's sequents are accepted by the corresponding
   prover's [in_fragment] — except when they trip the prover's own size
   valve (Cooper and MONA cap their inputs), which is not a generator
   defect. *)
let prop_membership name pred ~size_valve frag =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s sequents admitted by %s" (Formgen.fragment_name frag)
         name)
    ~count (arb frag ~size)
    (* measure the sequent the way the provers do: as one implication *)
    (fun s -> pred s || Form.size (Sequent.to_form s) > size_valve)

let prop_deterministic frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ " generation is seed-deterministic")
    ~count:20
    QCheck.(make Gen.(pair (int_bound 1000) (int_bound 200)))
    (fun (seed, n) ->
      let s1 = Formgen.sequent_of_seed frag ~seed ~size n in
      let s2 = Formgen.sequent_of_seed frag ~seed ~size n in
      Form.equal (Sequent.to_form s1) (Sequent.to_form s2))

let props =
  List.concat_map
    (fun frag -> [ prop_typechecks frag; prop_size_bound frag ])
    Formgen.all_fragments
  @ [ prop_membership "smt" Smt.in_fragment ~size_valve:max_int Formgen.Euf;
      prop_membership "smt" Smt.in_fragment ~size_valve:max_int
        Formgen.Presburger;
      prop_membership "cooper"
        (Fuzz.Lia.in_fragment ~env:(Formgen.type_env Formgen.Presburger))
        ~size_valve:Fuzz.Lia.max_size Formgen.Presburger;
      prop_membership "bapa" Bapa.in_fragment ~size_valve:max_int Formgen.Bapa;
      prop_membership "fol" Fol.in_fragment ~size_valve:max_int Formgen.Fol;
      (* MONA caps at 400 nodes *after* simplification, which can expand
         connectives; stay well under it *)
      prop_membership "mona" Fca.in_fragment ~size_valve:150 Formgen.Ws1s;
    ]
  @ List.map prop_deterministic [ Formgen.Euf; Formgen.Ws1s ]

(* ------------------------------------------------------------------ *)
(* Admission scans refuse only what the translations refuse            *)
(* ------------------------------------------------------------------ *)

(* the translations, run without the scans *)
let fol_translates (s : Sequent.t) : bool =
  Result.is_ok (Fol.translate ~set_vars:(Fol.infer_set_vars s) s)

let bapa_translates (s : Sequent.t) : bool =
  match Bapa.translate (Sequent.refutand s) with
  | _ -> true
  | exception Bapa.Out_of_fragment _ -> false

(* fol's and bapa's admission scans run before type inference and
   rewriting; a sequent a scan refuses must be one its translation
   refuses too *)
let fol_scan_sound s = Fol.in_fragment s || not (fol_translates s)

let bapa_scan_sound s = Bapa.in_fragment s || not (bapa_translates s)

(* the scans trust formulas whose every node is [Simplify.inert]: every
   [rewrite_step] redex must count as not inert, and an all-inert formula
   must be its own simplification *)
let inert_sound (f : Form.t) : bool =
  Form.fold
    (fun ok g ->
      ok
      && (Option.is_none (Simplify.rewrite_step g) || not (Simplify.inert g)))
    true f
  && ((not (Form.fold (fun ok g -> ok && Simplify.inert g) true f))
     || Form.equal (Simplify.simplify f) f)

let sequent_forms (s : Sequent.t) = s.Sequent.goal :: s.Sequent.hyps

(* generated sequents carry no [tree]; one more hypothesis naming a field
   of the vocabulary gives fol's scan something to refuse *)
let with_tree frag (s : Sequent.t) : Sequent.t =
  match Formgen.vars_of_sort frag (Ftype.Arrow (Ftype.Obj, Ftype.Obj)) with
  | [] -> s
  | f :: _ ->
    { s with Sequent.hyps = Form.mk_tree [ Form.mk_var f ] :: s.Sequent.hyps }

let prop_scans_sound frag =
  QCheck.Test.make
    ~name:
      (Formgen.fragment_name frag
     ^ " sequents: fol and bapa scans refuse only what their translations \
        refuse")
    ~count (arb frag ~size)
    (fun s ->
      List.for_all inert_sound (sequent_forms s)
      && List.for_all
           (fun s -> fol_scan_sound s && bapa_scan_sound s)
           [ s; with_tree frag s ])

(* the raw obligations of the paper's List figures, and the sequents the
   dispatcher hands its provers for them (recorded by a prover that
   settles nothing) *)
let test_scans_sound_on_list () =
  let raw =
    List.concat_map
      (fun group ->
        let prog =
          List.concat_map
            (fun f ->
              Javaparser.Jparser.parse_program_file
                (Fixtures.examples ^ "/" ^ group ^ "/" ^ f))
            [ "Client.java"; "List.java" ]
        in
        List.concat_map Vcgen.method_obligations
          (Gcl.Desugar.program_tasks prog))
      [ "list"; "list_annotated" ]
  in
  let handed = ref [] in
  let recorder =
    { Sequent.prover_name = "recorder";
      prove =
        (fun s ->
          handed := s :: !handed;
          Sequent.Unknown "recorded") }
  in
  ignore (Dispatch.prove_all (Dispatch.create [ recorder ]) raw);
  let check what s =
    if not (List.for_all inert_sound (sequent_forms s)) then
      Alcotest.failf "%s %s: a redex counts as inert" what s.Sequent.name;
    if not (fol_scan_sound s) then
      Alcotest.failf "%s %s: fol's scan refuses what its translation takes"
        what s.Sequent.name;
    if not (bapa_scan_sound s) then
      Alcotest.failf "%s %s: bapa's scan refuses what its translation takes"
        what s.Sequent.name
  in
  List.iter (check "raw") raw;
  List.iter (check "dispatched") !handed;
  (* not vacuous: both scans refuse dispatched sequents *)
  let refused admit =
    List.length (List.filter (fun s -> Result.is_error (admit s)) !handed)
  in
  Alcotest.(check bool) "fol's scan refuses some" true (refused Fol.admit > 0);
  Alcotest.(check bool) "bapa's scan refuses some" true
    (refused Bapa.admit > 0)

(* constructs the translations' own rewriting removes before they look:
   the scans must admit these sequents, and the translations take them *)
let test_scans_silent_on_erased () =
  (* typed as the dispatcher types them: [<=] between sets is inclusion *)
  let parse f = Typecheck.disambiguate (Parser.parse f) in
  let seq hyps goal = Sequent.make (List.map parse hyps) (parse goal) in
  let fol_cases =
    [ seq [ "tree [next] --> tree [next]" ] "x = y --> y = x";
      seq [ "x : Univ | tree [next]" ] "x = y --> y = x";
      seq [ "(if x = y then z else z) = w" ] "w = z";
      seq [ "{} <= {z. tree [next]}" ] "x = y --> y = x" ]
  in
  let bapa_cases =
    [ seq [ "x..f : S --> x..f : S"; "card S = 1" ] "card S >= 1";
      (* the read of a write at the same object is the written value *)
      Sequent.make
        [ Form.mk_elem
            (Form.mk_field_read
               (Form.mk_field_write (Form.mk_var "f") (Form.mk_var "x")
                  (Form.mk_var "y"))
               (Form.mk_var "x"))
            (Form.mk_var "S") ]
        (parse "y : S");
      seq [ "False"; "x..f = y" ] "x : S";
      seq [ "x : {z. z = y}" ] "x = y" ]
  in
  let check admitted translates s =
    Alcotest.(check bool) (Pprint.to_string (Sequent.to_form s)) true
      (admitted s && translates s)
  in
  List.iter (check Fol.in_fragment fol_translates) fol_cases;
  List.iter (check Bapa.in_fragment bapa_translates) bapa_cases

let suite =
  [ ( "gen",
      List.map QCheck_alcotest.to_alcotest
        (props @ List.map prop_scans_sound Formgen.all_fragments)
      @ [ Alcotest.test_case "admission scans on the List obligations" `Quick
            test_scans_sound_on_list;
          Alcotest.test_case "admission scans admit what rewriting erases"
            `Quick test_scans_silent_on_erased ] ) ]
