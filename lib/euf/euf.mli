(** Congruence closure for the theory of equality with uninterpreted
    function symbols (EUF), with the equality-exchange queries needed for
    Nelson-Oppen combination.  Terms are interned once into a dense
    table; every query works on their integer ids. *)

type term = Sym of string * term list

val mk_const : string -> term
val mk_app : string -> term list -> term
val pp_term : Format.formatter -> term -> unit
val term_to_string : term -> string

(** {1 Term table} *)

(** Distinct terms numbered 0, 1, ... in the order they were interned. *)
type table

val create : unit -> table

(** The id of [f(args)], interning it when it is new. *)
val app : table -> string -> int list -> int

(** [const tbl c] is [app tbl c []]. *)
val const : table -> string -> int

(** The id of a term, interning it and its subterms as needed. *)
val intern : table -> term -> int

(** How many terms the table holds. *)
val size : table -> int

(** The term an id names. *)
val term : table -> int -> term

val symbol : table -> int -> string
val args : table -> int -> int list

(** {1 Closure} *)

(** Congruence closure over every term of a table: union-find, use lists
    and signature lookup, set up once.  The table must not grow after
    the closure is made ({!close} raises [Invalid_argument] if it did). *)
type closure

val closure : table -> closure

(** Close [eqs] over the table, starting afresh: [None] when one of
    [diseqs] joins two equal terms, else [Some rep] with [rep.(i)] the
    class representative of term [i]. *)
val close :
  closure -> eqs:(int * int) list -> diseqs:(int * int) list -> int array option

(** The pairs of the given ids that [rep] puts in one class, each pair in
    list order (Nelson-Oppen equality propagation). *)
val implied_equalities : int array -> int list -> (int * int) list

(** {1 One conjunction} *)

type verdict = Sat | Unsat

(** Decide a conjunction of equalities and disequalities: a table and a
    closure for these terms alone. *)
val check : eqs:(term * term) list -> diseqs:(term * term) list -> verdict
