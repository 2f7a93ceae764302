(** Tests for the Java-subset front end, centred on parsing the paper's
    figures verbatim. *)

module Ast = Javaparser.Ast
module Jparser = Javaparser.Jparser
module Annot = Javaparser.Annot
module Astdiff = Javaparser.Astdiff

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_list_java () = Jparser.parse_program (read_file (Fixtures.examples ^ "/list/List.java"))
let parse_client_java () = Jparser.parse_program (read_file (Fixtures.examples ^ "/list/Client.java"))

(* ------------------------------------------------------------------ *)
(* Figures 1/3/4: the List class                                       *)
(* ------------------------------------------------------------------ *)

let test_parse_list_class () =
  let prog = parse_list_java () in
  Alcotest.(check int) "two classes" 2 (List.length prog);
  let list_c =
    match Ast.find_class prog "List" with
    | Some c -> c
    | None -> Alcotest.fail "class List not found"
  in
  Alcotest.(check int) "one concrete field" 1 (List.length list_c.c_fields);
  Alcotest.(check string) "field first" "first"
    (List.hd list_c.c_fields).Ast.f_name;
  Alcotest.(check int) "constructor + four methods" 5
    (List.length list_c.c_methods);
  Alcotest.(check int) "three invariants" 3 (List.length list_c.c_invariants);
  Alcotest.(check int) "two specvars" 2 (List.length list_c.c_specvars)

let test_list_specvars () =
  let prog = parse_list_java () in
  let list_c = Option.get (Ast.find_class prog "List") in
  let nodes = Option.get (Ast.find_specvar list_c "nodes") in
  let content = Option.get (Ast.find_specvar list_c "content") in
  Alcotest.(check bool) "nodes private" false nodes.Ast.sv_public;
  Alcotest.(check bool) "content public" true content.Ast.sv_public;
  Alcotest.(check bool) "nodes has vardef" true (nodes.Ast.sv_def <> None);
  Alcotest.(check bool) "content has vardef" true (content.Ast.sv_def <> None);
  (* the nodes definition is the reachability comprehension *)
  match nodes.Ast.sv_def with
  | Some def ->
    let has_rtrancl =
      Logic.Form.exists_sub
        (fun g ->
          match g with
          | Logic.Form.Const Logic.Form.Rtrancl -> true
          | _ -> false)
        def
    in
    Alcotest.(check bool) "nodes uses rtrancl" true has_rtrancl
  | None -> Alcotest.fail "nodes vardef missing"

let test_list_contracts () =
  let prog = parse_list_java () in
  let list_c = Option.get (Ast.find_class prog "List") in
  let add = Option.get (Ast.find_method list_c "add") in
  Alcotest.(check bool) "add has requires" true
    (add.Ast.m_contract.Ast.requires <> None);
  Alcotest.(check (list string)) "add modifies content" [ "content" ]
    add.Ast.m_contract.Ast.modifies;
  (match add.Ast.m_contract.Ast.ensures with
  | Some f ->
    Alcotest.(check string) "add ensures text"
      "content = old content Un {o}" (Logic.Pprint.to_string f)
  | None -> Alcotest.fail "add ensures missing");
  let ctor = Option.get (Ast.find_method list_c "List") in
  Alcotest.(check bool) "constructor flag" true ctor.Ast.m_is_constructor;
  let empty = Option.get (Ast.find_method list_c "empty") in
  Alcotest.(check bool) "empty has no requires" true
    (empty.Ast.m_contract.Ast.requires = None)

let test_list_bodies () =
  let prog = parse_list_java () in
  let list_c = Option.get (Ast.find_class prog "List") in
  let add = Option.get (Ast.find_method list_c "add") in
  (match add.Ast.m_body with
  | Some body -> Alcotest.(check int) "add body statements" 4 (List.length body)
  | None -> Alcotest.fail "add body missing");
  let remove = Option.get (Ast.find_method list_c "remove") in
  (* remove contains a while loop nested in if/else *)
  let rec has_while stmts =
    List.exists
      (fun s ->
        match s with
        | Ast.While _ -> true
        | Ast.If (_, a, b) -> has_while a || has_while b
        | Ast.Block b -> has_while b
        | _ -> false)
      stmts
  in
  match remove.Ast.m_body with
  | Some body -> Alcotest.(check bool) "remove has a loop" true (has_while body)
  | None -> Alcotest.fail "remove body missing"

let test_node_claimedby () =
  let prog = parse_list_java () in
  let node_c = Option.get (Ast.find_class prog "Node") in
  Alcotest.(check int) "node fields" 2 (List.length node_c.c_fields);
  List.iter
    (fun f ->
      Alcotest.(check (option string))
        (f.Ast.f_name ^ " claimedby")
        (Some "List") f.Ast.f_claimedby)
    node_c.c_fields

(* ------------------------------------------------------------------ *)
(* Figure 2: the Client class                                          *)
(* ------------------------------------------------------------------ *)

let test_parse_client () =
  let prog = parse_client_java () in
  let client = Option.get (Ast.find_class prog "Client") in
  Alcotest.(check int) "fields a and b" 2 (List.length client.c_fields);
  Alcotest.(check int) "ghost specvar" 1 (List.length client.c_specvars);
  let init = List.hd client.c_specvars in
  Alcotest.(check bool) "init is ghost" true init.Ast.sv_ghost;
  Alcotest.(check bool) "init is public" true init.Ast.sv_public;
  Alcotest.(check int) "one invariant" 1 (List.length client.c_invariants);
  let ctor = Option.get (Ast.find_method client "Client") in
  Alcotest.(check (list string)) "ctor modifies List.content"
    [ "List.content" ] ctor.Ast.m_contract.Ast.modifies;
  (* the ghost assignment at the end of the constructor *)
  let rec count_ghost stmts =
    List.fold_left
      (fun n s ->
        match s with
        | Ast.Spec (Ast.Ghost_assign ("init", _)) -> n + 1
        | Ast.Block b -> n + count_ghost b
        | Ast.If (_, a, b) -> n + count_ghost a + count_ghost b
        | _ -> n)
      0 stmts
  in
  (match ctor.Ast.m_body with
  | Some body -> Alcotest.(check int) "ghost assign present" 1 (count_ghost body)
  | None -> Alcotest.fail "ctor body");
  let move = Option.get (Ast.find_method client "move") in
  Alcotest.(check bool) "move static" true move.Ast.m_static

(* ------------------------------------------------------------------ *)
(* Smaller units                                                       *)
(* ------------------------------------------------------------------ *)

let test_expressions () =
  let parse_expr_via_stmt src =
    let prog =
      Jparser.parse_program
        (Printf.sprintf "class T { void m() { x = %s; } }" src)
    in
    let t = Option.get (Ast.find_class prog "T") in
    let m = Option.get (Ast.find_method t "m") in
    match m.Ast.m_body with
    | Some [ Ast.Assign (_, e) ] -> e
    | _ -> Alcotest.fail "unexpected statement shape"
  in
  (match parse_expr_via_stmt "a.b.c" with
  | Ast.Field_access (Ast.Field_access (Ast.Local "a", "b"), "c") -> ()
  | e -> Alcotest.failf "chain: %s" (Ast.expr_to_string e));
  (match parse_expr_via_stmt "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Int_lit 1, Ast.Binop (Ast.Mul, Ast.Int_lit 2, Ast.Int_lit 3))
    ->
    ()
  | e -> Alcotest.failf "precedence: %s" (Ast.expr_to_string e));
  (match parse_expr_via_stmt "a == null || !b" with
  | Ast.Binop (Ast.Or, Ast.Binop (Ast.Eq, Ast.Local "a", Ast.Null_lit), Ast.Not (Ast.Local "b"))
    ->
    ()
  | e -> Alcotest.failf "logic ops: %s" (Ast.expr_to_string e));
  (match parse_expr_via_stmt "x.next.data" with
  | Ast.Field_access (Ast.Field_access (Ast.Local "x", "next"), "data") -> ()
  | e -> Alcotest.failf "fields: %s" (Ast.expr_to_string e));
  match parse_expr_via_stmt "a.getOne()" with
  | Ast.Call { call_recv = Some (Ast.Local "a"); call_name = "getOne"; call_args = []; _ }
    ->
    ()
  | e -> Alcotest.failf "call: %s" (Ast.expr_to_string e)

let test_annotations_unit () =
  let c = Annot.parse_contract "requires \"x = y\" modifies a, b ensures \"y = x\"" in
  Alcotest.(check bool) "requires" true (c.Ast.requires <> None);
  Alcotest.(check (list string)) "modifies" [ "a"; "b" ] c.Ast.modifies;
  Alcotest.(check bool) "ensures" true (c.Ast.ensures <> None);
  let annots =
    Annot.parse_class_annot
      "public static specvar content :: objset; invariant \"x = x\";"
  in
  Alcotest.(check int) "two annots" 2 (List.length annots);
  let stmts = Annot.parse_stmt_annot "init := \"True\";" in
  (match stmts with
  | [ Ast.Ghost_assign ("init", f) ] ->
    Alcotest.(check bool) "ghost true" true (Logic.Form.is_true f)
  | _ -> Alcotest.fail "ghost assign parse");
  match Annot.parse_stmt_annot "assert \"a = b\"" with
  | [ Ast.Assert_spec (None, _) ] -> ()
  | _ -> Alcotest.fail "assert parse"

let test_parse_errors () =
  let fails src =
    match Jparser.parse_program src with
    | exception Jparser.Error _ -> ()
    | exception Javaparser.Jlexer.Lex_error _ -> ()
    | exception Annot.Error _ -> ()
    | _ -> Alcotest.failf "expected parse failure for %S" src
  in
  fails "class {";
  fails "class C { int }";
  fails "class C { void m( { } }";
  fails "class C { void m() { x = ; } }";
  fails "class C { void m() { if x { } } }";
  fails "class C { /*: specvar s */ }"

let suite =
  [ ( "javaparser",
      [ Alcotest.test_case "parse List.java" `Quick test_parse_list_class;
        Alcotest.test_case "specvars and vardefs" `Quick test_list_specvars;
        Alcotest.test_case "contracts" `Quick test_list_contracts;
        Alcotest.test_case "method bodies" `Quick test_list_bodies;
        Alcotest.test_case "claimedby fields" `Quick test_node_claimedby;
        Alcotest.test_case "parse Client.java" `Quick test_parse_client;
        Alcotest.test_case "expressions" `Quick test_expressions;
        Alcotest.test_case "annotation units" `Quick test_annotations_unit;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
      ] );
  ]

(* Figure 1 as a standalone interface (bodies omitted, ';' instead) *)
let test_interface_only_class () =
  let src =
    "class List {\n\
     /*: public static specvar content :: objset; */\n\
     public List() /*: modifies content ensures \"content = {}\" */ ;\n\
     public void add(Object o)\n\
     /*: requires \"o ~: content & o ~= null\"\n\
     \    modifies content\n\
     \    ensures \"content = old content Un {o}\" */ ;\n\
     public boolean empty() /*: ensures \"result = (content = {})\" */ ;\n\
     }"
  in
  let prog = Jparser.parse_program src in
  let c = Option.get (Ast.find_class prog "List") in
  Alcotest.(check int) "three declarations" 3 (List.length c.Ast.c_methods);
  List.iter
    (fun (m : Ast.method_decl) ->
      Alcotest.(check bool) (m.Ast.m_name ^ " has no body") true
        (m.Ast.m_body = None))
    c.Ast.c_methods;
  (* interface-only classes produce no proof tasks but serve as callee
     contracts *)
  let tasks = Gcl.Desugar.program_tasks prog in
  Alcotest.(check int) "no tasks" 0 (List.length tasks)

let suite =
  suite
  @ [ ( "javaparser.interface",
        [ Alcotest.test_case "interface-only class" `Quick
            test_interface_only_class ] )
    ]

(* ------------------------------------------------------------------ *)
(* Structural digests (Astdiff): the foundation of incremental
   re-verification.  Digests must be blind to concrete syntax
   (whitespace, comments, bound-variable names) and must separate the
   caller view (contract) from the implementation view (body).        *)
(* ------------------------------------------------------------------ *)

let digest_prog src = Astdiff.method_digests (Jparser.parse_program src)

let test_digest_whitespace_noop () =
  let base =
    "class C {\n\
     /*: public static ghost specvar items :: objset; */\n\
     public static void add(Object o)\n\
     /*: requires \"o ~: items\" modifies items\n\
     \    ensures \"items = old items Un {o}\" */\n\
     { //: items := \"items Un {o}\";\n\
     }\n\
     }"
  in
  let reformatted =
    "// a comment\n\
     class C {\n\n\
     /*: public static ghost specvar items :: objset; */\n\n\
     /* the only method */\n\
     public static void add( Object o )\n\
     /*: requires \"o  ~:  items\"  modifies items\n\
     \    ensures \"items = old items Un {o}\" */\n\
     {\n\n\
     //: items := \"items Un {o}\";  \n\
     }\n\
     }"
  in
  Alcotest.(check (list (pair string string)))
    "whitespace and comments do not perturb digests" (digest_prog base)
    (digest_prog reformatted)

let test_digest_binder_rename () =
  let with_binder x =
    Printf.sprintf
      "class C {\n\
       /*: public static ghost specvar items :: objset; */\n\
       public static void probe()\n\
       /*: ensures \"ALL %s. %s : items --> %s : items\" */\n\
       { }\n\
       }"
      x x x
  in
  Alcotest.(check (list (pair string string)))
    "alpha-equivalent contracts digest identically"
    (digest_prog (with_binder "x"))
    (digest_prog (with_binder "other"))

let test_digest_body_vs_contract () =
  let prog body =
    Jparser.parse_program
      (Printf.sprintf
         "class C {\n\
          private static int n;\n\
          public static void bump()\n\
          /*: requires \"0 <= 0\" */\n\
          { %s }\n\
          }"
         body)
  in
  let m p =
    (List.hd (Option.get (Ast.find_class p "C")).Ast.c_methods)
  in
  let a = m (prog "n = n + 1;") and b = m (prog "n = n + 2;") in
  Alcotest.(check bool) "body edit changes the method digest" false
    (Astdiff.method_digest "C" a = Astdiff.method_digest "C" b);
  Alcotest.(check string) "body edit leaves the caller view alone"
    (Astdiff.contract_digest "C" a)
    (Astdiff.contract_digest "C" b)

let test_digest_diff_classification () =
  let parse names_and_bodies =
    Jparser.parse_program
      ("class C {\n"
      ^ String.concat "\n"
          (List.map
             (fun (n, body) ->
               Printf.sprintf "public static void %s() { %s }" n body)
             names_and_bodies)
      ^ "\n}")
  in
  let base = parse [ ("keep", ""); ("edit", ""); ("drop", "") ] in
  let patched = parse [ ("keep", ""); ("edit", "return;"); ("fresh", "") ] in
  let d = Astdiff.diff base patched in
  let change name =
    Option.map Astdiff.change_to_string (List.assoc_opt name d)
  in
  Alcotest.(check (option string)) "untouched" None (change "C.keep");
  Alcotest.(check (option string)) "edited" (Some "changed") (change "C.edit");
  Alcotest.(check (option string)) "dropped" (Some "removed") (change "C.drop");
  Alcotest.(check (option string)) "added" (Some "added") (change "C.fresh")

let suite =
  suite
  @ [ ( "javaparser.digest",
        [ Alcotest.test_case "whitespace/comment no-op" `Quick
            test_digest_whitespace_noop;
          Alcotest.test_case "bound-variable rename no-op" `Quick
            test_digest_binder_rename;
          Alcotest.test_case "body vs contract digest" `Quick
            test_digest_body_vs_contract;
          Alcotest.test_case "diff classification" `Quick
            test_digest_diff_classification ] )
    ]
