(** Indexed-vs-naive differential campaign for the resolution prover.

    Both saturation engines run the same generated fol-fragment sequents
    under deliberately generous clause/weight/literal caps, so that a
    [Saturated] answer is a genuine satisfiability claim rather than a
    budget artifact.  Under that regime the engines must agree exactly on
    the {!Fol.Proof}/{!Fol.Saturated} axis — the indexed engine's
    subsumption and dedup may only change {e how fast} a verdict arrives,
    never which one — and a [Proof] must never contradict the finite-model
    oracle's countermodel.  [GaveUp] (the clause cap) and [TimedOut] (the
    wall-clock cut-off, the one timing-dependent outcome) are never
    flagged: a campaign run is deterministic for a fixed seed. *)

type config = {
  ab_seed : int;
  ab_count : int; (* sequents generated *)
  ab_size : int; (* generator fuel *)
  ab_max_universe : int; (* oracle universe bound *)
  ab_int_range : int;
  ab_max_models : int option;
}

let default_config =
  { ab_seed = 42;
    ab_count = 500;
    ab_size = 3;
    ab_max_universe = 3;
    ab_int_range = 2;
    ab_max_models = Some 200_000;
  }

type disagreement = {
  d_index : int; (* which generated sequent *)
  d_sequent : Logic.Sequent.t;
  d_why : string;
}

type report = {
  attempted : int;
  admitted : int; (* sequents inside the fol fragment *)
  proofs : int; (* indexed-engine proofs *)
  saturated : int;
  gave_up : int;
  oracle_counter : int; (* oracle found a countermodel *)
  disagreements : disagreement list;
}

(* generous caps: the point is to compare verdicts, not budgets *)
let outcome engine (s : Logic.Sequent.t) : (Fol.outcome, string) result =
  Fol.outcome_with ~engine ~max_clauses:2000 ~max_weight:10_000
    ~max_lits:1_000 ~timeout_s:2.5
    ~set_vars:(Fol.infer_set_vars s) s

let outcome_name = function
  | Ok Fol.Proof -> "proof"
  | Ok Fol.Saturated -> "saturated"
  | Ok Fol.GaveUp -> "gave-up"
  | Ok Fol.TimedOut -> "timed-out"
  | Error _ -> "untranslatable"

let run ?(config = default_config) () : report =
  let frag = Formgen.Fol in
  let env = Formgen.type_env frag in
  let proofs = ref 0
  and saturated = ref 0
  and gave_up = ref 0
  and admitted = ref 0
  and oracle_counter = ref 0 in
  let disagreements = ref [] in
  let flag n s why =
    disagreements := { d_index = n; d_sequent = s; d_why = why } :: !disagreements
  in
  for n = 0 to config.ab_count - 1 do
    let s =
      Formgen.sequent_of_seed frag ~seed:config.ab_seed ~size:config.ab_size n
    in
    if Fol.in_fragment s then begin
      incr admitted;
      let ind = outcome Fol.Indexed s in
      let nai = outcome Fol.Naive s in
      (match ind with
      | Ok Fol.Proof -> incr proofs
      | Ok Fol.Saturated -> incr saturated
      | Ok (Fol.GaveUp | Fol.TimedOut) -> incr gave_up
      | Error _ -> ());
      (match (ind, nai) with
      | Ok Fol.Proof, Ok Fol.Saturated | Ok Fol.Saturated, Ok Fol.Proof ->
        flag n s
          (Printf.sprintf "engines disagree: indexed=%s naive=%s"
             (outcome_name ind) (outcome_name nai))
      | _ -> ());
      (* soundness: a Proof from either engine against the oracle *)
      if ind = Ok Fol.Proof || nai = Ok Fol.Proof then begin
        match
          Logic.Eval.check ~env ~max_universe:config.ab_max_universe
            ~int_range:config.ab_int_range ?max_models:config.ab_max_models s
        with
        | Logic.Eval.Countermodel _ ->
          incr oracle_counter;
          flag n s "unsound: resolution proof but the oracle found a countermodel"
        | Logic.Eval.No_countermodel _ | Logic.Eval.Unsupported_oracle _ -> ()
      end
    end
  done;
  { attempted = config.ab_count;
    admitted = !admitted;
    proofs = !proofs;
    saturated = !saturated;
    gave_up = !gave_up;
    oracle_counter = !oracle_counter;
    disagreements = List.rev !disagreements;
  }

let pp_report ppf (r : report) =
  Format.fprintf ppf "@[<v>fol A/B: %d generated, %d in fragment@," r.attempted
    r.admitted;
  Format.fprintf ppf "indexed verdicts: %d proofs, %d saturated, %d gave up@,"
    r.proofs r.saturated r.gave_up;
  Format.fprintf ppf "disagreements: %d@," (List.length r.disagreements);
  List.iter
    (fun d ->
      Format.fprintf ppf "  #%d %s@,    %a@," d.d_index d.d_why
        Logic.Sequent.pp d.d_sequent)
    r.disagreements;
  Format.fprintf ppf "@]"
