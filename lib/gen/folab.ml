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
    flagged.  The report counts each of the indexed engine's outcomes,
    and the admitted sequents the translation then refuses, separately:
    without a timed-out run, a campaign is deterministic for a fixed
    seed.

    The naive engine, {!refute_naive}, lives here beside the campaign and
    the engine-parity tests that run it; no portfolio does. *)

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
  gave_up : int; (* the clause cap *)
  timed_out : int; (* the wall-clock cut-off *)
  untranslatable : int; (* admitted, then refused by the translation *)
  oracle_counter : int; (* oracle found a countermodel *)
  disagreements : disagreement list;
}

(* ------------------------------------------------------------------ *)
(* The naive engine                                                    *)
(* ------------------------------------------------------------------ *)

(** [c1] subsumes [c2]: some instance of [c1] is a subset of [c2] ([c1]
    renamed apart first) — the plain predicate the term index's
    subsumption queries are tested against. *)
let subsumes (c1 : Fol.clause) (c2 : Fol.clause) : bool =
  Fol.subsumes_prepared (Fol.rename_clause c1) c2

(* all binary resolvents of c1 and c2 (c2 freshly renamed) *)
let resolvents (c1 : Fol.clause) (c2 : Fol.clause) : Fol.clause list =
  let open Fol in
  let c2 = rename_clause c2 in
  List.concat_map
    (fun l1 ->
      List.filter_map
        (fun l2 ->
          if l1.sign = l2.sign || l1.pred <> l2.pred then None
          else
            match
              (try Some (List.fold_left2 Term.unify [] l1.args l2.args)
               with Term.No_unifier | Invalid_argument _ -> None)
            with
            | None -> None
            | Some s ->
              let rest1 = List.filter (fun l -> l != l1) c1 in
              let rest2 = List.filter (fun l -> l != l2) c2 in
              Some (normalize_clause (apply_clause s (rest1 @ rest2))))
        c2)
    c1

(** The reference engine for {!Fol.refute}: the textbook given-clause
    loop with the same inference rules and SOS restriction, but O(active)
    partner scans, unit-only forward subsumption and a weight-only
    passive queue.  It publishes no trace counters. *)
let refute_naive ?(max_clauses = 4000) ?(max_weight = 60) ?(max_lits = 6)
    ?(timeout_s = 1.5) ~(usable : Fol.clause list) ~(sos : Fol.clause list) ()
    : Fol.outcome =
  let open Fol in
  let deadline = Clock.now () +. timeout_s in
  let usable =
    List.filter (fun c -> not (is_tautology c)) (List.map normalize_clause usable)
  in
  let sos = List.map normalize_clause sos in
  if List.exists (fun c -> c = []) (usable @ sos) then Proof
  else begin
    let module Pq = Set.Make (struct
      type t = int * int * clause

      let compare = compare
    end) in
    let counter = ref 0 in
    let passive = ref Pq.empty in
    let seen = Hashtbl.create 256 in
    let add_passive c =
      if not (Hashtbl.mem seen c) && not (is_tautology c) then begin
        Hashtbl.add seen c ();
        incr counter;
        passive := Pq.add (clause_size c, !counter, c) !passive
      end
    in
    (* passive holds only SOS clauses; usable clauses are active from the
       start *)
    List.iter add_passive sos;
    let active_usable = ref usable in
    let active_sos = ref [] in
    let total = ref (List.length sos) in
    let result = ref None in
    let unit_subsumed c =
      let units =
        List.filter (fun a -> List.length a = 1) (!active_usable @ !active_sos)
      in
      List.exists (fun u -> subsumes u c) units
    in
    while !result = None do
      Deadline.check ();
      if Pq.is_empty !passive then result := Some Saturated
      else if !total > max_clauses then result := Some GaveUp
      else if Clock.now () > deadline then result := Some TimedOut
      else begin
        let ((_, _, given) as entry) = Pq.min_elt !passive in
        passive := Pq.remove entry !passive;
        if unit_subsumed given && clause_size given > 3 then ()
        else begin
          (* SOS restriction: given (an SOS clause) resolves against
             everything active *)
          let partners = !active_usable @ !active_sos in
          let new_clauses =
            List.map
              (List.sort_uniq compare_lit)
              (factors given
              @ List.concat_map (fun a -> resolvents given a) partners
              @ resolvents given given)
          in
          active_sos := given :: !active_sos;
          List.iter
            (fun c ->
              if c = [] then result := Some Proof
              else if
                clause_size c <= max_weight
                && clause_lits c <= max_lits
                && not (unit_subsumed c)
              then begin
                incr total;
                add_passive c
              end)
            new_clauses
        end
      end
    done;
    match !result with Some r -> r | None -> assert false
  end

(** A resolution engine on a sequent, as {!Fol.outcome_with} runs the
    indexed one: translation, then refutation under the given caps. *)
type engine =
  ?max_clauses:int ->
  ?max_weight:int ->
  ?max_lits:int ->
  ?timeout_s:float ->
  ?set_vars:string list ->
  Logic.Sequent.t ->
  (Fol.outcome, string) result

(** {!Fol.outcome_with} with the naive engine doing the refutation. *)
let naive_outcome_with ?max_clauses ?max_weight ?max_lits ?timeout_s
    ?(set_vars = []) (s : Logic.Sequent.t) : (Fol.outcome, string) result =
  Result.map
    (fun (usable, sos) ->
      refute_naive ?max_clauses ?max_weight ?max_lits ?timeout_s ~usable ~sos
        ())
    (Fol.translate ~set_vars s)

(* generous caps: the point is to compare verdicts, not budgets *)
let outcome (engine : engine) (s : Logic.Sequent.t) :
    (Fol.outcome, string) result =
  engine ~max_clauses:2000 ~max_weight:10_000 ~max_lits:1_000 ~timeout_s:2.5
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
  and timed_out = ref 0
  and untranslatable = ref 0
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
      let ind = outcome Fol.outcome_with s in
      let nai = outcome naive_outcome_with s in
      (match ind with
      | Ok Fol.Proof -> incr proofs
      | Ok Fol.Saturated -> incr saturated
      | Ok Fol.GaveUp -> incr gave_up
      | Ok Fol.TimedOut -> incr timed_out
      | Error _ -> incr untranslatable);
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
    timed_out = !timed_out;
    untranslatable = !untranslatable;
    oracle_counter = !oracle_counter;
    disagreements = List.rev !disagreements;
  }

let pp_report ppf (r : report) =
  Format.fprintf ppf "@[<v>fol A/B: %d generated, %d in fragment@," r.attempted
    r.admitted;
  Format.fprintf ppf
    "indexed verdicts: %d proofs, %d saturated, %d gave up, %d timed out, %d \
     untranslatable@,"
    r.proofs r.saturated r.gave_up r.timed_out r.untranslatable;
  Format.fprintf ppf "disagreements: %d@," (List.length r.disagreements);
  List.iter
    (fun d ->
      Format.fprintf ppf "  #%d %s@,    %a@," d.d_index d.d_why
        Logic.Sequent.pp d.d_sequent)
    r.disagreements;
  Format.fprintf ppf "@]"
