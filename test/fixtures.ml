(** The test binary's fixture directories, found from the directory it
    runs in: [dune runtest] runs it in [_build/default/test], whose parent
    holds copies of [examples/] and [test/]; run by hand it is usually
    the repository root. *)

let root =
  let holds_fixtures r =
    Sys.file_exists (Filename.concat r "examples/list/List.java")
    && Sys.file_exists (Filename.concat r "test/corpus")
  in
  match List.find_opt holds_fixtures [ "."; ".."; "../.."; "../../.." ] with
  | Some r -> r
  | None -> "."

(** The Java example groups, one directory each. *)
let examples = Filename.concat root "examples"

(** Minimized fuzzer counterexamples, replayed by [corpus]. *)
let corpus = Filename.concat root "test/corpus"

(** Pinned fol search sequents. *)
let fol_search = Filename.concat root "test/fol_search"

(** Incremental re-verification cases, one directory each. *)
let incremental = Filename.concat root "test/incremental"
