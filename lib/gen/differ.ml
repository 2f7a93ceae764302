(** The differential driver: cross-checks every prover against the others
    and against the finite-model oracle ({!Logic.Eval}).

    For each generated sequent, every prover whose fragment admits it is
    asked for a verdict.  Two disagreement classes are {e hard} evidence of
    a bug and are flagged:

    - a [Valid] / [Invalid] pair between two provers (at most one can be
      right);
    - a prover answering [Valid] while the oracle exhibits a finite
      countermodel (the bounded structures are genuine models, so the
      countermodel wins).

    A prover answering [Invalid] while the oracle exhausts all bounded
    models without a countermodel is only {e suspicious} — the claimed
    countermodel may need a larger universe — and is counted but not
    flagged.

    Flagged sequents are greedily shrunk to a minimal reproducer that
    still exhibits one of the original disagreement keys, then written to
    the regression corpus. *)

open Logic

(* ------------------------------------------------------------------ *)
(* Parties                                                             *)
(* ------------------------------------------------------------------ *)

type party = {
  party_name : string;
  admits : Sequent.t -> bool;
  prover : Sequent.prover;
}

(* the default portfolio behind a fresh, cache-less dispatcher, so the
   oracle also checks the dispatcher's joint typing, simplification and
   syntactic discharge *)
let portfolio : Sequent.prover =
  { Sequent.prover_name = "portfolio";
    prove =
      (fun s ->
        let d = Dispatch.create (Jahob_core.Jahob.default_provers ()) in
        (Dispatch.prove_sequent d s).Dispatch.verdict) }

(** The five decision procedures under differential test, and the
    default portfolio as [jahob verify] dispatches to it. *)
let default_parties () : party list =
  [ { party_name = "smt"; admits = Smt.in_fragment; prover = Smt.prover };
    { party_name = "cooper"; admits = Lia.in_fragment; prover = Lia.prover };
    { party_name = "bapa"; admits = Bapa.in_fragment; prover = Bapa.prover };
    { party_name = "mona"; admits = Fca.in_fragment; prover = Fca.prover };
    { party_name = "fol"; admits = Fol.in_fragment; prover = Fol.prover };
    { party_name = "portfolio"; admits = (fun _ -> true); prover = portfolio };
  ]

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  seed : int;
  count : int; (** sequents per fragment *)
  size : int; (** generator fuel, see {!Formgen.node_bound} *)
  budget_s : float; (** wall-clock budget per prover call; 0 = none *)
  use_oracle : bool;
  max_universe : int;
  int_range : int;
  max_models : int option; (** cap on oracle model enumeration *)
}

let default_config =
  { seed = 42;
    count = 1000;
    size = 3;
    budget_s = 2.0;
    use_oracle = true;
    max_universe = 3;
    int_range = 4;
    max_models = Some 60_000;
  }

(* ------------------------------------------------------------------ *)
(* Checking one sequent                                                *)
(* ------------------------------------------------------------------ *)

type finding = {
  fragment : Formgen.fragment;
  index : int; (** which generated sequent (for replay) *)
  sequent : Sequent.t;
  verdicts : (string * Sequent.verdict) list;
  oracle : Eval.outcome option;
  keys : string list; (** hard disagreement keys, empty = agreement *)
  suspicious : bool; (** Invalid verdict with an exhausted oracle *)
}

let is_valid = function Sequent.Valid -> true | _ -> false
let is_invalid = function Sequent.Invalid _ -> true | _ -> false

(* the keys name the *shape* of the disagreement, so a shrunk reproducer
   can be matched against the original finding *)
let disagreement_keys (verdicts : (string * Sequent.verdict) list)
    (oracle : Eval.outcome option) : string list =
  let valids =
    List.filter_map (fun (n, v) -> if is_valid v then Some n else None) verdicts
  in
  let invalids =
    List.filter_map
      (fun (n, v) -> if is_invalid v then Some n else None)
      verdicts
  in
  let conflicts =
    List.concat_map
      (fun p -> List.map (fun q -> Printf.sprintf "conflict:%s>%s" p q) invalids)
      valids
  in
  let oracle_keys =
    match oracle with
    | Some (Eval.Countermodel _) -> List.map (fun p -> "oracle:" ^ p) valids
    | _ -> []
  in
  conflicts @ oracle_keys

(** Route [s] to every admitting party, consult the oracle when any party
    committed to a [Valid]/[Invalid] verdict, and compute disagreement
    keys. *)
let check ?(parties = default_parties ()) (cfg : config)
    (frag : Formgen.fragment) ?(index = -1) (s : Sequent.t) : finding =
  let verdicts =
    List.filter_map
      (fun p ->
        let admitted = try p.admits s with _ -> false in
        if not admitted then None
        else
          let v =
            try
              if cfg.budget_s > 0. then
                fst (Dispatch.run_budgeted ~budget_s:cfg.budget_s p.prover s)
              else p.prover.Sequent.prove s
            with
            | Sequent.Resource_limited why -> Sequent.Unknown why
            | Stack_overflow -> Sequent.Unknown "stack overflow"
            | e -> Sequent.Unknown ("raised: " ^ Printexc.to_string e)
          in
          Some (p.party_name, v))
      parties
  in
  let committed = List.exists (fun (_, v) -> is_valid v || is_invalid v) verdicts in
  let oracle =
    if cfg.use_oracle && committed then
      Some
        (Eval.check ~env:(Formgen.type_env frag)
           ~max_universe:cfg.max_universe ~int_range:cfg.int_range
           ?max_models:cfg.max_models s)
    else None
  in
  let keys = disagreement_keys verdicts oracle in
  let suspicious =
    match oracle with
    | Some (Eval.No_countermodel _) ->
      List.exists (fun (_, v) -> is_invalid v) verdicts
    | _ -> false
  in
  { fragment = frag; index; sequent = s; verdicts; oracle; keys; suspicious }

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* ground witness used to close a binder body when shrinking into it *)
let default_term (ty : Ftype.t) : Form.t =
  match ty with
  | Ftype.Bool -> Form.mk_true
  | Ftype.Int -> Form.mk_int 0
  | Ftype.Set _ -> Form.mk_emptyset
  | Ftype.Tvar _ | Ftype.Obj | Ftype.Arrow _ | Ftype.Tuple _ -> Form.mk_null

let immediate_subformulas (f : Form.t) : Form.t list =
  match Form.strip_types f with
  | Form.App (Form.Const (Form.And | Form.Or | Form.Impl | Form.Iff | Form.Not), args)
    ->
    args
  | Form.App (Form.Const Form.Ite, [ c; a; b ]) -> [ c; a; b ]
  | Form.Binder ((Form.Forall | Form.Exists), vars, body) ->
    [ Form.subst_list
        (List.map (fun (x, ty) -> (x, default_term ty)) vars)
        body ]
  | _ -> []

(* all one-step-smaller variants of a sequent *)
let shrink_candidates (s : Sequent.t) : Sequent.t list =
  let drop_hyp i =
    { s with Sequent.hyps = List.filteri (fun j _ -> j <> i) s.Sequent.hyps }
  in
  let drops = List.mapi (fun i _ -> drop_hyp i) s.Sequent.hyps in
  let goal_subs =
    List.map (fun g -> { s with Sequent.goal = g })
      (immediate_subformulas s.Sequent.goal)
  in
  let hyp_subs =
    List.concat
      (List.mapi
         (fun i h ->
           List.map
             (fun h' ->
               { s with
                 Sequent.hyps =
                   List.mapi (fun j g -> if j = i then h' else g) s.Sequent.hyps
               })
             (immediate_subformulas h))
         s.Sequent.hyps)
  in
  let simplified =
    let s' =
      { s with
        Sequent.hyps = List.map Simplify.simplify s.Sequent.hyps;
        goal = Simplify.simplify s.Sequent.goal }
    in
    if Formgen.sequent_size s' < Formgen.sequent_size s then [ s' ] else []
  in
  drops @ goal_subs @ hyp_subs @ simplified

let max_shrink_rechecks = 300

(** Greedily shrink a flagged sequent: accept any strictly smaller variant
    that still exhibits one of the original disagreement keys, until no
    candidate helps or the recheck budget runs out. *)
let shrink ?(parties = default_parties ()) (cfg : config) (f : finding) :
    finding =
  let budget = ref max_shrink_rechecks in
  let orig_keys = f.keys in
  let rec go (best : finding) =
    if !budget <= 0 then best
    else
      let size_best = Formgen.sequent_size best.sequent in
      let cands =
        List.filter
          (fun c -> Formgen.sequent_size c < size_best)
          (shrink_candidates best.sequent)
      in
      let accepted =
        List.find_map
          (fun c ->
            if !budget <= 0 then None
            else begin
              decr budget;
              let fc =
                check ~parties cfg best.fragment ~index:best.index c
              in
              if List.exists (fun k -> List.mem k orig_keys) fc.keys then
                Some fc
              else None
            end)
          cands
      in
      match accepted with Some fc -> go fc | None -> best
  in
  go f

(* ------------------------------------------------------------------ *)
(* The regression corpus                                               *)
(* ------------------------------------------------------------------ *)

(** One-formula-per-line corpus files:
    {v
      # comment / metadata headers
      # fragment: bapa
      hyp  card s <= 1
      goal s <= t
    v} *)

let save_finding ~(dir : string) (f : finding) : string =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let digest = Sequent.digest f.sequent in
  let path =
    Filename.concat dir
      (Printf.sprintf "%s-%s.seq"
         (Formgen.fragment_name f.fragment)
         (String.sub digest 0 12))
  in
  let oc = open_out path in
  Printf.fprintf oc "# jahob fuzz: minimized prover disagreement\n";
  Printf.fprintf oc "# fragment: %s\n" (Formgen.fragment_name f.fragment);
  Printf.fprintf oc "# keys: %s\n" (String.concat " " f.keys);
  List.iter
    (fun (p, v) ->
      Printf.fprintf oc "# verdict: %s = %s\n" p (Sequent.verdict_to_string v))
    f.verdicts;
  (match f.oracle with
  | Some o -> Printf.fprintf oc "# oracle: %s\n" (Eval.outcome_to_string o)
  | None -> ());
  List.iter
    (fun h -> Printf.fprintf oc "hyp %s\n" (Pprint.to_string h))
    f.sequent.Sequent.hyps;
  Printf.fprintf oc "goal %s\n" (Pprint.to_string f.sequent.Sequent.goal);
  close_out oc;
  path

type corpus_entry = {
  path : string;
  entry_fragment : Formgen.fragment;
  entry_sequent : Sequent.t;
}

let load_file (path : string) : (corpus_entry, string) result =
  let ic = open_in path in
  let fragment = ref Formgen.Mixed in
  let hyps = ref [] in
  let goal = ref None in
  let err = ref None in
  (try
     let lineno = ref 0 in
     while true do
       let line = input_line ic in
       incr lineno;
       let fail fmt =
         Format.kasprintf
           (fun m ->
             if !err = None then
               err := Some (Printf.sprintf "%s:%d: %s" path !lineno m))
           fmt
       in
       let parse_formula src =
         match Parser.parse_opt src with
         | Some f -> Some f
         | None ->
           fail "unparseable formula %S" src;
           None
       in
       if String.length line = 0 then ()
       else if line.[0] = '#' then begin
         match String.index_opt line ':' with
         | Some i
           when String.trim (String.sub line 1 (i - 1)) = "fragment" -> (
           let name =
             String.trim (String.sub line (i + 1) (String.length line - i - 1))
           in
           match Formgen.fragment_of_name name with
           | Some frag -> fragment := frag
           | None -> fail "unknown fragment %S" name)
         | _ -> ()
       end
       else if String.length line > 4 && String.sub line 0 4 = "hyp " then
         Option.iter
           (fun f -> hyps := f :: !hyps)
           (parse_formula (String.sub line 4 (String.length line - 4)))
       else if String.length line > 5 && String.sub line 0 5 = "goal " then
         Option.iter
           (fun f -> goal := Some f)
           (parse_formula (String.sub line 5 (String.length line - 5)))
       else fail "unrecognized line %S" line
     done
   with End_of_file -> close_in ic);
  match !err, !goal with
  | Some m, _ -> Error m
  | None, None -> Error (path ^ ": no goal line")
  | None, Some g ->
    (* the surface printer is ambiguous between int and set operators;
       re-disambiguate under the fragment's vocabulary, as the generator
       typed it *)
    let env = Formgen.type_env !fragment in
    let dis f = Typecheck.disambiguate ~env f in
    Ok
      { path;
        entry_fragment = !fragment;
        entry_sequent =
          Sequent.make
            ~name:("corpus:" ^ Filename.basename path)
            (List.rev_map dis !hyps) (dis g);
      }

let corpus_files (dir : string) : string list =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".seq")
    |> List.sort compare
    |> List.map (Filename.concat dir)

(** Replay one corpus file: re-run the differential check and expect
    agreement (an empty key set).  [Error] carries the surviving keys. *)
let replay ?(parties = default_parties ()) (cfg : config) (path : string) :
    (finding, string) result =
  match load_file path with
  | Error m -> Error m
  | Ok e ->
    let f = check ~parties cfg e.entry_fragment e.entry_sequent in
    if f.keys = [] then Ok f
    else
      Error
        (Printf.sprintf "%s: disagreement persists: %s" path
           (String.concat " " f.keys))

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                     *)
(* ------------------------------------------------------------------ *)

type party_stats = {
  mutable admitted : int;
  mutable n_valid : int;
  mutable n_invalid : int;
  mutable n_unknown : int;
}

type fragment_report = {
  report_fragment : Formgen.fragment;
  generated : int;
  per_party : (string * party_stats) list;
  oracle_runs : int;
  oracle_countermodels : int;
  suspicious_count : int;
  raw_disagreements : int;
  findings : finding list; (** minimized, deduplicated by key *)
}

(** Fuzz one fragment: generate [cfg.count] sequents deterministically
    from [cfg.seed], check each, shrink and record each disagreement with
    a not-yet-seen key.  [on_finding] fires for every minimized finding
    (the CLI writes the corpus file there). *)
let run ?(parties = default_parties ()) ?(on_finding = fun (_ : finding) -> ())
    ?(progress = fun (_ : int) -> ()) (cfg : config)
    (frag : Formgen.fragment) : fragment_report =
  let per_party =
    List.map
      (fun p ->
        ( p.party_name,
          { admitted = 0; n_valid = 0; n_invalid = 0; n_unknown = 0 } ))
      parties
  in
  let oracle_runs = ref 0 in
  let oracle_countermodels = ref 0 in
  let suspicious_count = ref 0 in
  let raw = ref 0 in
  let seen_keys : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let findings = ref [] in
  for n = 0 to cfg.count - 1 do
    progress n;
    let s = Formgen.sequent_of_seed frag ~seed:cfg.seed ~size:cfg.size n in
    let f = check ~parties cfg frag ~index:n s in
    List.iter
      (fun (name, v) ->
        let st = List.assoc name per_party in
        st.admitted <- st.admitted + 1;
        match v with
        | Sequent.Valid -> st.n_valid <- st.n_valid + 1
        | Sequent.Invalid _ -> st.n_invalid <- st.n_invalid + 1
        | Sequent.Unknown _ -> st.n_unknown <- st.n_unknown + 1)
      f.verdicts;
    (match f.oracle with
    | Some o -> (
      incr oracle_runs;
      match o with
      | Eval.Countermodel _ -> incr oracle_countermodels
      | _ -> ())
    | None -> ());
    if f.suspicious then incr suspicious_count;
    if f.keys <> [] then begin
      incr raw;
      if List.exists (fun k -> not (Hashtbl.mem seen_keys k)) f.keys then begin
        List.iter (fun k -> Hashtbl.replace seen_keys k ()) f.keys;
        let minimized = shrink ~parties cfg f in
        findings := minimized :: !findings;
        on_finding minimized
      end
    end
  done;
  { report_fragment = frag;
    generated = cfg.count;
    per_party;
    oracle_runs = !oracle_runs;
    oracle_countermodels = !oracle_countermodels;
    suspicious_count = !suspicious_count;
    raw_disagreements = !raw;
    findings = List.rev !findings;
  }

let pp_finding ppf (f : finding) =
  Format.fprintf ppf "@[<v 2>%s #%d (%s):@,%a@,"
    (Formgen.fragment_name f.fragment)
    f.index
    (String.concat " " f.keys)
    Sequent.pp f.sequent;
  List.iter
    (fun (p, v) ->
      Format.fprintf ppf "%s: %s@," p (Sequent.verdict_to_string v))
    f.verdicts;
  (match f.oracle with
  | Some o -> Format.fprintf ppf "oracle: %s@," (Eval.outcome_to_string o)
  | None -> ());
  Format.fprintf ppf "@]"

let pp_report ppf (r : fragment_report) =
  Format.fprintf ppf "@[<v 2>fragment %s: %d sequents@,"
    (Formgen.fragment_name r.report_fragment)
    r.generated;
  List.iter
    (fun (name, st) ->
      if st.admitted > 0 then
        Format.fprintf ppf
          "%-7s admitted %5d  valid %5d  invalid %5d  unknown %5d@," name
          st.admitted st.n_valid st.n_invalid st.n_unknown)
    r.per_party;
  Format.fprintf ppf
    "oracle: %d runs, %d countermodels, %d suspicious-invalid@," r.oracle_runs
    r.oracle_countermodels r.suspicious_count;
  Format.fprintf ppf "disagreements: %d distinct (%d raw)@,"
    (List.length r.findings) r.raw_disagreements;
  List.iter (fun f -> pp_finding ppf f) r.findings;
  Format.fprintf ppf "@]"
