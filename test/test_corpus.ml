(** Replays every minimized counterexample in [test/corpus/] through the
    differential driver and fails if any historical prover disagreement
    (or prover-vs-oracle contradiction) reappears. *)

module Differ = Fuzz.Differ

let replay_file path () =
  match Differ.replay Differ.default_config path with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s" msg

let cases =
  match Differ.corpus_files Fixtures.corpus with
  | [] -> [ Alcotest.test_case "corpus present" `Quick (fun () ->
              Alcotest.fail "test/corpus is empty or missing") ]
  | files ->
      List.map
        (fun path ->
          Alcotest.test_case (Filename.basename path) `Quick (replay_file path))
        files

let suite = [ ("corpus", cases) ]
