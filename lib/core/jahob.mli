(** Jahob: the top-level driver.

    Runs the full pipeline of the paper: parse the annotated Java subset,
    desugar to guarded commands, generate weakest-precondition
    obligations, decompose goals, and dispatch each obligation to the
    decision-procedure portfolio.  Loop invariants are inferred by the
    symbolic shape analysis when not annotated, and inferred conjuncts
    that fail their own checks are weakened away automatically. *)

(** How a method's verdicts were obtained this run. *)
type provenance =
  | Fresh  (** cold verification: VCs generated and dispatched *)
  | Unchanged  (** incremental: answered entirely from the method store *)
  | Invalidated of string list
      (** incremental: re-verified, with the reasons — ["new"],
          ["method"], ["ctx"], ["options"], or the dependency keys whose
          digests changed (e.g. ["inv:List"], ["ct:List.add"]) *)

type method_report = {
  method_name : string;
  obligations : Dispatch.summary;
  provenance : provenance;
}

type program_report = {
  methods : method_report list;
  ok : bool;  (** every obligation of every method proved *)
  dispatcher : Dispatch.t;  (** for the verdict-cache statistics *)
}

(** The default portfolio in dispatch order: SMT, BAPA and the
    first-order prover.  The MONA route is outside it (bench and fuzzer
    only). *)
val default_provers : unit -> Logic.Sequent.prover list

type options = {
  provers : Logic.Sequent.prover list;
      (** the portfolio, for the obligations and shape inference's
          Houdini checks alike *)
  infer_loop_invariants : bool;
  jobs : int;
      (** worker domains for parallel dispatch; 1 verifies sequentially *)
  use_cache : bool;
      (** memoize verdicts of repeated (canonicalized) obligations *)
  cache_cap : int;
      (** verdict-cache entry cap (LRU-evicted at batch boundaries past
          it); [0] keeps the generous {!Dispatch.Cache.default_cap} —
          the knob behind [jahob verify --cache-cap] *)
  budget_s : float option;
      (** wall-clock budget per prover call; [None] leaves provers
          unbounded *)
}

val default_options : unit -> options

(** Everything that should stay warm across verification requests: the
    worker pool and one dispatcher with its verdict cache, which proves
    the obligations and shape inference's Houdini checks.  A one-shot
    {!verify_files} builds a throwaway engine; [jahob serve] builds one
    at startup and answers every request from it. *)
type engine

val create_engine : options -> engine

(** The engine dispatcher's verdict cache, when caching is enabled —
    what a persistent store preloads and drains. *)
val engine_cache : engine -> Dispatch.Cache.t option

val engine_dispatcher : engine -> Dispatch.t

(** Release the engine's worker pool.  The engine must not be used
    afterwards. *)
val shutdown_engine : engine -> unit

(** One method's record in a persistent store: its structural digest,
    the global context digest, the dependency digests its VCs read, and
    the settled verdicts to replay while none of those change. *)
type stored_method = {
  sm_name : string;
  sm_digest : string;
  sm_ctx : string;
  sm_infer : bool;
  sm_deps : (string * string) list;
  sm_verdicts : (string * string * string) list;
      (** (obligation name, verdict kind ["valid"]/["invalid"], prover) *)
}

(** Where incremental verification reads and writes per-method records.
    Implementations must be thread-safe: pool worker domains call all
    four functions concurrently. *)
type method_source = {
  find_method : string -> stored_method option;
  record_method : stored_method -> unit;
  remove_method : string -> unit;
  list_methods : unit -> string list;
}

(** A fresh in-memory method source (a locked hashtable) — backs a
    store-less daemon (and so a store-less [jahob verify --incremental]
    or [--since]), and the tests. *)
val hashtbl_source : unit -> method_source

(** Verify every method of a program on a resident engine.  Each call
    is one cache batch: a new recency epoch on entry, an LRU trim back
    under the cap on exit.

    Without [source] every method is verified and reports {!Fresh}; no
    context or method digest is computed and nothing is recorded.

    With [source] the run is incremental: each verifiable method is
    re-verified iff it is new, its own structural digest changed, the
    global desugaring context changed, or one of its recorded dependency
    digests changed — otherwise its stored verdicts are replayed and the
    method reports {!Unchanged}.  Records of this program's classes whose
    methods are gone are removed.  Re-verified methods whose obligations
    all settled are recorded back, so a run against an empty source
    doubles as the base (cold) run. *)
val verify :
  engine -> ?source:method_source -> Javaparser.Ast.program -> program_report

(** One-shot {!verify}: builds an engine, verifies, releases the pool. *)
val verify_program :
  ?opts:options -> Javaparser.Ast.program -> program_report

(** Parse (under the [frontend:parse] span) and {!verify_program} one or
    more source files as a single program. *)
val verify_files : ?opts:options -> string list -> program_report

val pp_report :
  ?stats:bool -> Format.formatter -> program_report -> unit
