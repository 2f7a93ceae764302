(** Additional unit tests: guarded-command algebra, lexers, types, and
    dispatcher routing. *)

open Logic
module Cmd = Gcl.Cmd

let parse = Parser.parse

(* ------------------------------------------------------------------ *)
(* Guarded-command algebra                                             *)
(* ------------------------------------------------------------------ *)

let test_cmd_seq_flattening () =
  let c =
    Cmd.seq
      [ Cmd.Skip;
        Cmd.Seq [ Cmd.Assume (parse "a = b"); Cmd.Skip ];
        Cmd.Seq [ Cmd.Seq [ Cmd.Assert (parse "c = d", "x") ] ];
      ]
  in
  match c with
  | Cmd.Seq [ Cmd.Assume _; Cmd.Assert _ ] -> ()
  | Cmd.Seq cs -> Alcotest.failf "got %d commands" (List.length cs)
  | _ -> Alcotest.fail "expected a two-command sequence"

let test_cmd_seq_units () =
  Alcotest.(check bool) "all skips collapse" true
    (Cmd.seq [ Cmd.Skip; Cmd.Skip ] = Cmd.Skip);
  match Cmd.seq [ Cmd.Assume (parse "a = b") ] with
  | Cmd.Assume _ -> ()
  | _ -> Alcotest.fail "singleton sequence unwraps"

let test_modified_vars () =
  let c =
    Cmd.seq
      [ Cmd.Assign ("x", parse "1");
        Cmd.Choice (Cmd.Havoc [ "y"; "z" ], Cmd.Assign ("w", parse "2"));
        Cmd.Loop
          { Cmd.loop_invariant = None;
            loop_cond = parse "a = b";
            loop_prelude = Cmd.Assign ("p", parse "3");
            loop_body = Cmd.Havoc [ "q" ];
          };
      ]
  in
  let mods = Form.Sset.elements (Cmd.modified_vars c) in
  Alcotest.(check (list string)) "all writes collected"
    [ "p"; "q"; "w"; "x"; "y"; "z" ]
    (List.sort compare mods)

let test_map_formulas () =
  let c =
    Cmd.Choice
      ( Cmd.Assume (parse "a = b"),
        Cmd.Seq [ Cmd.Assert (parse "c = d", "l"); Cmd.Assign ("x", parse "e") ]
      )
  in
  let c' = Cmd.map_formulas (fun _ -> Form.mk_true) c in
  let all_true = ref true in
  let rec walk = function
    | Cmd.Assume f | Cmd.Assert (f, _) | Cmd.Assign (_, f) ->
      if not (Form.is_true f) then all_true := false
    | Cmd.Seq cs -> List.iter walk cs
    | Cmd.Choice (a, b) ->
      walk a;
      walk b
    | Cmd.Loop l ->
      walk l.Cmd.loop_prelude;
      walk l.Cmd.loop_body
    | Cmd.Skip | Cmd.Havoc _ -> ()
  in
  walk c';
  Alcotest.(check bool) "every formula rewritten" true !all_true

(* ------------------------------------------------------------------ *)
(* Java lexer                                                          *)
(* ------------------------------------------------------------------ *)

let test_jlexer_tokens () =
  let toks = Javaparser.Jlexer.tokenize "x == y != z <= 1 && foo.bar()" in
  let kinds = Array.to_list (Array.map fst toks) in
  let open Javaparser.Jlexer in
  Alcotest.(check bool) "eq token" true (List.mem EQ kinds);
  Alcotest.(check bool) "neq token" true (List.mem NEQ kinds);
  Alcotest.(check bool) "le token" true (List.mem LE kinds);
  Alcotest.(check bool) "andand token" true (List.mem ANDAND kinds);
  Alcotest.(check bool) "idents" true (List.mem (IDENT "foo") kinds)

let test_jlexer_annotations () =
  let toks =
    Javaparser.Jlexer.tokenize
      "int x; //: assert \"a = b\"\n /* plain comment */ /*: invariant \"c = d\" */ y();"
  in
  let annots =
    Array.to_list toks
    |> List.filter_map (fun (t, _) ->
           match t with Javaparser.Jlexer.ANNOTATION s -> Some s | _ -> None)
  in
  Alcotest.(check int) "two annotations, plain comment skipped" 2
    (List.length annots)

let test_jlexer_line_numbers () =
  let toks = Javaparser.Jlexer.tokenize "a\nb\n\nc" in
  let line_of name =
    Array.to_list toks
    |> List.find_map (fun (t, l) ->
           match t with
           | Javaparser.Jlexer.IDENT x when x = name -> Some l
           | _ -> None)
    |> Option.get
  in
  Alcotest.(check int) "a line 1" 1 (line_of "a");
  Alcotest.(check int) "b line 2" 2 (line_of "b");
  Alcotest.(check int) "c line 4" 4 (line_of "c")

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let test_ftype_unify () =
  let open Ftype in
  let st = Store.create () in
  Store.unify st (Arrow (Tvar 1, Bool)) (Arrow (Obj, Tvar 2));
  Alcotest.(check bool) "tv1 = obj" true (equal (Store.resolve st (Tvar 1)) Obj);
  Alcotest.(check bool) "tv2 = bool" true (equal (Store.resolve st (Tvar 2)) Bool);
  (match Store.unify (Store.create ()) (Set (Tvar 3)) Int with
  | () -> Alcotest.fail "set vs int must not unify"
  | exception Unify_failure _ -> ());
  (* occurs check *)
  match Store.unify (Store.create ()) (Tvar 4) (Set (Tvar 4)) with
  | () -> Alcotest.fail "occurs check missed"
  | exception Unify_failure _ -> ()

let test_store_far_vars () =
  (* variables outside the store's chunks, and one that adds chunks *)
  let open Ftype in
  let st = Store.create () in
  Store.unify st (Tvar 100_000) (Tvar 3);
  Store.unify st (Tvar (-1)) (Set (Tvar 1_000));
  Store.unify st (Tvar 3) (Arrow (Tvar (-1), Int));
  Store.unify st (Tvar 1_000) Obj;
  Alcotest.(check string) "resolved" "obj set => int"
    (to_string (Store.resolve st (Tvar 100_000)))

(* The reference unifier: a functional substitution applied in full to
   both sides at every node *)
module Map_unify = struct
  open Ftype
  module M = Map.Make (Int)

  let rec apply s t =
    match t with
    | Bool | Int | Obj -> t
    | Set e -> Set (apply s e)
    | Arrow (a, r) -> Arrow (apply s a, apply s r)
    | Tuple ts -> Tuple (List.map (apply s) ts)
    | Tvar i -> ( match M.find_opt i s with Some u -> apply s u | None -> t)

  let rec occurs i t =
    match t with
    | Bool | Int | Obj -> false
    | Set e -> occurs i e
    | Arrow (a, r) -> occurs i a || occurs i r
    | Tuple ts -> List.exists (occurs i) ts
    | Tvar j -> i = j

  let rec unify s a b =
    let a = apply s a and b = apply s b in
    match a, b with
    | Tvar i, Tvar j when i = j -> s
    | Tvar i, t | t, Tvar i ->
      if occurs i t then raise (Unify_failure (a, b)) else M.add i t s
    | Bool, Bool | Int, Int | Obj, Obj -> s
    | Set x, Set y -> unify s x y
    | Arrow (a1, r1), Arrow (a2, r2) -> unify (unify s a1 a2) r1 r2
    | Tuple xs, Tuple ys when List.length xs = List.length ys ->
      List.fold_left2 unify s xs ys
    | (Bool | Int | Obj | Set _ | Arrow _ | Tuple _), _ ->
      raise (Unify_failure (a, b))
end

let gen_ftype : Ftype.t QCheck.Gen.t =
  let open QCheck.Gen in
  let var = map (fun i -> Ftype.Tvar i) (int_range 1 8) in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         if n = 0 then
           frequency [ (4, var); (1, oneofl Ftype.[ Bool; Int; Obj ]) ]
         else
           frequency
             [ (4, var);
               (1, oneofl Ftype.[ Bool; Int; Obj ]);
               (2, map (fun e -> Ftype.Set e) (self (n - 1)));
               (2, map2 (fun a r -> Ftype.Arrow (a, r)) (self (n - 1)) (self (n - 1)));
               (1, map (fun ts -> Ftype.Tuple ts) (list_size (int_range 2 3) (self (n - 1))));
             ])

(* one problem: equations unified in order until one fails *)
let prop_store_unify =
  let print eqs =
    String.concat "; "
      (List.map
         (fun (a, b) -> Ftype.to_string a ^ " = " ^ Ftype.to_string b)
         eqs)
  in
  QCheck.Test.make ~name:"union-find unifier agrees with the substitution map"
    ~count:2000
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 6) (pair gen_ftype gen_ftype)))
    (fun eqs ->
      let st = Ftype.Store.create () in
      let same_vars s =
        List.for_all
          (fun i ->
            Ftype.equal (Map_unify.apply s (Tvar i)) (Ftype.Store.resolve st (Tvar i)))
          (List.init 8 (fun i -> i + 1))
      in
      let rec go s = function
        | [] -> true
        | (a, b) :: rest -> (
          let expected =
            match Map_unify.unify s a b with
            | s' -> Ok s'
            | exception Ftype.Unify_failure (x, y) -> Error (x, y)
          in
          let got =
            match Ftype.Store.unify st a b with
            | () -> Ok ()
            | exception Ftype.Unify_failure (x, y) -> Error (x, y)
          in
          match expected, got with
          | Ok s', Ok () -> same_vars s' && go s' rest
          | Error (x, y), Error (x', y') -> Ftype.equal x x' && Ftype.equal y y'
          | Ok _, Error _ | Error _, Ok () -> false)
      in
      go Map_unify.M.empty eqs)

let test_ftype_parse () =
  let open Ftype in
  Alcotest.(check bool) "objset" true
    (equal (Parser.parse_ftype "objset") (Set Obj));
  Alcotest.(check bool) "obj set set" true
    (equal (Parser.parse_ftype "obj set set") (Set (Set Obj)));
  Alcotest.(check bool) "arrow" true
    (equal (Parser.parse_ftype "obj => bool") (Arrow (Obj, Bool)))

(* ------------------------------------------------------------------ *)
(* Dispatcher routing                                                  *)
(* ------------------------------------------------------------------ *)

let routed_by hyps goal =
  let d = Dispatch.create (Jahob_core.Jahob.default_provers ()) in
  let s = Sequent.make (List.map parse hyps) (parse goal) in
  let r = Dispatch.prove_sequent d s in
  match r.Dispatch.verdict with
  | Sequent.Valid -> r.Dispatch.prover
  | v ->
    Alcotest.failf "expected valid, got %s" (Sequent.verdict_to_string v)

let test_routing () =
  (* arithmetic goes to the SMT core *)
  (match routed_by [ "x > 0"; "x < 2" ] "x = 1" with
  | Some "smt" -> ()
  | p -> Alcotest.failf "arith routed to %s" (Option.value p ~default:"-"));
  (* cardinalities fall through to BAPA *)
  (match routed_by [ "card A = 2"; "card B = 1"; "A Int B = {}" ]
           "card (A Un B) = 3"
  with
  | Some "bapa" -> ()
  | p -> Alcotest.failf "card routed to %s" (Option.value p ~default:"-"));
  (* reachability falls through to first-order resolution *)
  match
    routed_by
      [ "rtrancl_pt (% u v. u..next = v) h x"; "x..next = y";
        "rtrancl_pt (% u v. u..next = v) h y" ]
      "rtrancl_pt (% u v. u..next = v) x y"
  with
  | Some "fol" -> ()
  | p -> Alcotest.failf "reach routed to %s" (Option.value p ~default:"-")

(* ------------------------------------------------------------------ *)
(* Stack example end-to-end (BAPA inside verification)                 *)
(* ------------------------------------------------------------------ *)

let test_stack_verifies () =
  let report =
    Jahob_core.Jahob.verify_files [ Fixtures.examples ^ "/stack/Stack.java" ]
  in
  Alcotest.(check bool) "stack fully verified" true
    report.Jahob_core.Jahob.ok

let test_stack_wrong_size_rejected () =
  (* breaking the size bookkeeping must fail verification *)
  let src =
    "class S {\n\
     /*: public static ghost specvar items :: objset;\n\
     \    public static ghost specvar size :: int;\n\
     \    invariant \"size = card items\"; */\n\
     public static void bad(Object o)\n\
     /*: requires \"o ~= null & o ~: items\" modifies items, size\n\
     \    ensures \"True\" */\n\
     {\n\
     //: items := \"items Un {o}\";\n\
     //: size := \"size + 2\";\n\
     }\n\
     }"
  in
  let prog = Javaparser.Jparser.parse_program src in
  let report = Jahob_core.Jahob.verify_program prog in
  Alcotest.(check bool) "wrong size arithmetic rejected" false
    report.Jahob_core.Jahob.ok

let suite =
  [ ( "gcl",
      [ Alcotest.test_case "seq flattening" `Quick test_cmd_seq_flattening;
        Alcotest.test_case "seq units" `Quick test_cmd_seq_units;
        Alcotest.test_case "modified vars" `Quick test_modified_vars;
        Alcotest.test_case "map formulas" `Quick test_map_formulas;
      ] );
    ( "jlexer",
      [ Alcotest.test_case "operators" `Quick test_jlexer_tokens;
        Alcotest.test_case "annotations" `Quick test_jlexer_annotations;
        Alcotest.test_case "line numbers" `Quick test_jlexer_line_numbers;
      ] );
    ( "ftype",
      [ Alcotest.test_case "unification" `Quick test_ftype_unify;
        QCheck_alcotest.to_alcotest prop_store_unify;
        Alcotest.test_case "unification: far and negative variables" `Quick
          test_store_far_vars;
        Alcotest.test_case "type parsing" `Quick test_ftype_parse;
      ] );
    ( "routing",
      [ Alcotest.test_case "fragments reach their provers" `Quick test_routing ]
    );
    ( "stack",
      [ Alcotest.test_case "cardinality invariant verifies" `Quick
          test_stack_verifies;
        Alcotest.test_case "wrong bookkeeping rejected" `Quick
          test_stack_wrong_size_rejected;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Arrays                                                              *)
(* ------------------------------------------------------------------ *)

let test_array_parsing () =
  let prog =
    Javaparser.Jparser.parse_program
      "class A { static int[] xs; void m(Object[] a, int i) { a[i] = a[i + 1]; int n = a.length; xs = new int[10]; } }"
  in
  let a = List.hd prog in
  let f = List.hd a.Javaparser.Ast.c_fields in
  Alcotest.(check string) "array field type" "int[]"
    (Javaparser.Ast.jtype_to_string f.Javaparser.Ast.f_type);
  let m = Option.get (Javaparser.Ast.find_method a "m") in
  Alcotest.(check int) "two params" 2 (List.length m.Javaparser.Ast.m_params)

let test_array_ops_verify () =
  let report =
    Jahob_core.Jahob.verify_files [ Fixtures.examples ^ "/arrays/ArrayOps.java" ]
  in
  Alcotest.(check bool) "ArrayOps fully verified" true
    report.Jahob_core.Jahob.ok

let test_array_bounds_violation_rejected () =
  let src =
    "class B { static Object[] buf;\n\
     public static void bad(int i)\n\
     /*: requires \"buf ~= null & 0 <= i & i < buf..Array.length\"\n\
     \    modifies \"Object.arrayState\" ensures \"True\" */\n\
     { buf[i + 1] = null; }\n\
     }"
  in
  let prog = Javaparser.Jparser.parse_program src in
  let report = Jahob_core.Jahob.verify_program prog in
  (* the store at i+1 may be out of bounds: must not verify *)
  Alcotest.(check bool) "out-of-bounds store rejected" false
    report.Jahob_core.Jahob.ok

let array_suite =
  ( "arrays",
    [ Alcotest.test_case "parsing" `Quick test_array_parsing;
      Alcotest.test_case "ArrayOps verifies" `Quick test_array_ops_verify;
      Alcotest.test_case "bounds violation rejected" `Quick
        test_array_bounds_violation_rejected;
    ] )

let suite = suite @ [ array_suite ]
