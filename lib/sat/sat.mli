(** CDCL SAT solver: two-watched-literal propagation, first-UIP clause
    learning, activity-based decisions, phase saving and restarts.

    Variables are positive integers [1..n]; a literal is [+v] or [-v]
    (DIMACS convention). *)

type result =
  | Sat of bool array  (** model, indexed by variable; entry 0 unused *)
  | Unsat

exception Bad_literal of int

(** Incremental solver state. *)
type t

val create : unit -> t

(** Add a clause (list of DIMACS literals).  Returns [false] when the
    clause set becomes unsatisfiable at level 0. *)
val add_clause : t -> int list -> bool

(** Solve the current clause set; [assumptions] are temporary decisions
    tried first (the solver remains usable afterwards either way). *)
val solve : ?assumptions:int list -> t -> result

(** One-shot: solve a clause list from scratch. *)
val solve_clauses : ?assumptions:int list -> int list list -> result

(** Truth of literal [l] in a model returned by {!solve}. *)
val lit_true : bool array -> int -> bool

val num_learnts : t -> int
