(** The incremental re-verification corpus: base+patch pairs in
    [test/incremental/], in the style of Goblint's incremental test
    suites.

    Each case directory [NN-name/] holds

    - [base.java] — the original program,
    - [patch.java] — the edited program, and
    - [expect] — one line per method of the patched program (plus
      [removed] lines for methods of the base that are gone), stating
      exactly what the incremental driver must do with it:

    {v
    Stack.isEmpty reverified method
    Stack.push unchanged
    Old.gone removed
    v}

    The driver verifies [base.java] into a fresh in-memory method
    source, then re-verifies [patch.java] against it and compares every
    method's provenance with the expectation.  The match is exact and
    bidirectional: a method re-verified that the expectation says is
    unchanged (over-invalidation) fails the test just as hard as a
    method answered from the store that should have been re-verified
    (under-invalidation).  Invalidation reasons are compared as sets.

    As a final cross-check, each case also verifies the patched program
    from scratch and requires the per-method verdict counts of the
    incremental run to be identical — stored verdicts must replay, not
    approximate. *)

module Jahob = Jahob_core.Jahob

(* ------------------------------------------------------------------ *)
(* Expectation files                                                   *)
(* ------------------------------------------------------------------ *)

type expected =
  | Exp_unchanged
  | Exp_reverified of string list  (* invalidation reasons, as a set *)
  | Exp_removed

let pp_expected = function
  | Exp_unchanged -> "unchanged"
  | Exp_reverified rs -> "reverified " ^ String.concat " " rs
  | Exp_removed -> "removed"

let parse_expect (path : string) : (string * expected) list =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go acc lineno =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let words =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun w -> w <> "")
      in
      let entry =
        match words with
        | [] -> None
        | [ name; "unchanged" ] -> Some (name, Exp_unchanged)
        | [ name; "removed" ] -> Some (name, Exp_removed)
        | name :: "reverified" :: (_ :: _ as reasons) ->
          Some (name, Exp_reverified (List.sort compare reasons))
        | _ ->
          failwith
            (Printf.sprintf "%s:%d: malformed expect line %S" path lineno line)
      in
      go (match entry with Some e -> e :: acc | None -> acc) (lineno + 1)
  in
  go [] 1

(* ------------------------------------------------------------------ *)
(* One case: base -> store -> patch, then compare                      *)
(* ------------------------------------------------------------------ *)

let pp_provenance = function
  | Jahob.Fresh -> "fresh"
  | Jahob.Unchanged -> "unchanged"
  | Jahob.Invalidated rs -> "reverified " ^ String.concat " " rs

let summary_counts (s : Dispatch.summary) =
  (s.Dispatch.total, s.Dispatch.valid, s.Dispatch.invalid, s.Dispatch.unknown)

let run_case (case : string) () =
  let path f = Filename.concat (Filename.concat Fixtures.incremental case) f in
  let base = Javaparser.Jparser.parse_program_file (path "base.java") in
  let patch = Javaparser.Jparser.parse_program_file (path "patch.java") in
  let expect = parse_expect (path "expect") in
  let opts = { (Jahob.default_options ()) with jobs = 1 } in
  let e = Jahob.create_engine opts in
  Fun.protect ~finally:(fun () -> Jahob.shutdown_engine e) @@ fun () ->
  let source = Jahob.hashtbl_source () in
  (* the base run: everything is new, everything must settle *)
  let r0 = Jahob.verify e ~source base in
  if not r0.Jahob.ok then
    Alcotest.failf "%s: base.java did not fully verify" case;
  List.iter
    (fun (m : Jahob.method_report) ->
      match m.Jahob.provenance with
      | Jahob.Invalidated [ "new" ] -> ()
      | p ->
        Alcotest.failf "%s: base method %s has provenance %S, wanted \"new\""
          case m.Jahob.method_name (pp_provenance p))
    r0.Jahob.methods;
  (* the patched run, answered against the base's method records *)
  let r1 = Jahob.verify e ~source patch in
  if not r1.Jahob.ok then
    Alcotest.failf "%s: patch.java did not fully verify" case;
  let actual =
    List.map (fun (m : Jahob.method_report) -> (m.Jahob.method_name, m))
      r1.Jahob.methods
  in
  let survivors = source.Jahob.list_methods () in
  (* every expectation holds... *)
  List.iter
    (fun (name, exp) ->
      match (exp, List.assoc_opt name actual) with
      | Exp_removed, Some _ ->
        Alcotest.failf "%s: %s should be removed but was verified" case name
      | Exp_removed, None ->
        if List.mem name survivors then
          Alcotest.failf "%s: %s should be removed but survives in the store"
            case name
      | _, None ->
        Alcotest.failf "%s: expected method %s missing from the patched run"
          case name
      | Exp_unchanged, Some m -> (
        match m.Jahob.provenance with
        | Jahob.Unchanged -> ()
        | p ->
          Alcotest.failf "%s: %s over-invalidated: got %S, wanted unchanged"
            case name (pp_provenance p))
      | Exp_reverified reasons, Some m -> (
        match m.Jahob.provenance with
        | Jahob.Invalidated got when List.sort compare got = reasons -> ()
        | p ->
          Alcotest.failf "%s: %s: got %S, wanted %S" case name
            (pp_provenance p)
            (pp_expected (Exp_reverified reasons))))
    expect;
  (* ... and nothing happened that the expectation does not mention *)
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name expect) then
        Alcotest.failf "%s: method %s verified but absent from expect" case
          name)
    actual;
  (* replayed verdicts must match a from-scratch run exactly; without a
     source that run reads no record, so every method reports Fresh *)
  let scratch = Jahob.verify e patch in
  List.iter
    (fun (m : Jahob.method_report) ->
      match List.assoc_opt m.Jahob.method_name actual with
      | None ->
        Alcotest.failf "%s: %s missing from the incremental run" case
          m.Jahob.method_name
      | Some _ when m.Jahob.provenance <> Jahob.Fresh ->
        Alcotest.failf "%s: from-scratch %s reports %S, not a fresh run" case
          m.Jahob.method_name (pp_provenance m.Jahob.provenance)
      | Some inc ->
        if
          summary_counts inc.Jahob.obligations
          <> summary_counts m.Jahob.obligations
        then
          Alcotest.failf
            "%s: %s: incremental and from-scratch verdict counts diverge"
            case m.Jahob.method_name)
    scratch.Jahob.methods

(* ------------------------------------------------------------------ *)
(* Suite                                                               *)
(* ------------------------------------------------------------------ *)

let cases =
  match Sys.readdir Fixtures.incremental with
  | exception Sys_error _ ->
    [ Alcotest.test_case "corpus present" `Quick (fun () ->
          Alcotest.fail "test/incremental is missing") ]
  | entries ->
    let dirs =
      Array.to_list entries
      |> List.filter (fun d ->
             Sys.is_directory (Filename.concat Fixtures.incremental d))
      |> List.sort compare
    in
    if dirs = [] then
      [ Alcotest.test_case "corpus present" `Quick (fun () ->
            Alcotest.fail "test/incremental is empty") ]
    else List.map (fun d -> Alcotest.test_case d `Quick (run_case d)) dirs

let suite = [ ("incremental", cases) ]
