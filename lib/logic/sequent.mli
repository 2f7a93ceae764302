(** Proof obligations and the common decision-procedure interface.

    Every reasoner — SMT, BAPA and the first-order prover in the portfolio,
    and the MONA route and Cooper's procedure that the bench and the
    fuzzer run — consumes a {!type:t} and produces a {!type:verdict}. *)

type t = {
  name : string;  (** provenance, e.g. ["List.add: postcondition"] *)
  hyps : Form.t list;
  goal : Form.t;
}

type verdict =
  | Valid  (** proved *)
  | Invalid of string  (** refuted, with a countermodel description *)
  | Unknown of string  (** gave up, with a reason *)

type prover = {
  prover_name : string;
  prove : t -> verdict;
}

(** Raised by a prover that gives up because a resource that varies from
    run to run ran out — its own wall-clock cut-off, the native stack —
    rather than at a deterministic limit (fuel, a clause cap, a fragment
    check), which it reports as [Unknown].  The dispatcher turns it into
    [Unknown reason] and never replays that verdict from its cache. *)
exception Resource_limited of string

(** Build a sequent; [name] defaults to ["goal"]. *)
val make : ?name:string -> Form.t list -> Form.t -> t

(** The sequent as a single implication formula. *)
val to_form : t -> Form.t

(** Split an implication chain back into a sequent. *)
val of_form : ?name:string -> Form.t -> t

(** Canonical form for verdict caching: alpha-normalized hypotheses and
    goal (binder sorts preserved), hypotheses sorted and deduplicated by
    their canonical printing. *)
val canonicalize : t -> t

(** [Some base] when the name is fresh-style, [base__N] as
    {!Form.fresh_name} mints it; [None] for every other name. *)
val fresh_base : string -> string option

(** The sequent with its fresh-style free names renumbered per base by
    first occurrence (hypotheses in order, then the goal), as
    {!canonicalize} does.  Provers whose search reads names (their order
    or their hashes) run on it, so that a search does not depend on how
    far the process-wide fresh counter had advanced. *)
val renumber_fresh : t -> t

(** Stable cache key: MD5 of the canonicalized sequent's {e canonical}
    printing ({!Pprint.to_canonical_string}) — each hypothesis followed
    by a newline, then ["|-"] and the goal — computed without building
    that text as one string.  Invariant under hypothesis
    reordering, duplicate hypotheses and bound-variable renaming; the
    [name] field is ignored.  Distinct operators that share surface syntax
    ([<=] vs subset-or-equal, [-] vs set difference) and binders that
    differ only in sort produce distinct keys — the surface printer is
    ambiguous on both, which made it unsound as a cache key. *)
val digest : t -> string

(** The sequent's refutation form, [Simplify.simplify (hyps /\ ~goal)] —
    the formula the refutation-based provers (smt, bapa, fol) translate. *)
val refutand : t -> Form.t

val pp : Format.formatter -> t -> unit
val verdict_to_string : verdict -> string

(** Just the constructor tag: ["valid"], ["invalid"] or ["unknown"]. *)
val verdict_kind : verdict -> string

(** Wrap a prover so every [prove] call becomes a trace span (category
    ["prover"], name = the prover's name) carrying query size on entry and
    the verdict on exit, with the [reason] string of an [Unknown].  One
    atomic load per call when tracing is off. *)
val traced_prover : prover -> prover
