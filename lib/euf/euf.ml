(** Congruence closure for the theory of equality with uninterpreted
    function symbols (EUF).

    This is the core of the Nelson-Oppen style prover the paper connects
    through its SMT-LIB interface: given equalities and disequalities over
    uninterpreted terms, decide satisfiability and report the equalities
    implied between chosen terms (for equality exchange with other
    theories).

    Terms live in a dense table: each distinct term gets an integer id, a
    function symbol and its argument ids (the indexed-term design of
    Nieuwenhuis and Oliveras, "Fast congruence closure and extensions",
    Inf. & Comp. 2007).  A {!closure} over a finished table computes the
    use lists once; each {!close} query then starts from that state, so
    a caller that asks many questions about one term set (smt's theory
    checks within one [check_sat]) interns and prepares the terms once.
    A closure over a subterm-closed table is conservative over every
    subterm-closed subset: extra terms change neither the Sat/Unsat
    answer nor the equalities implied between the queried terms. *)

type term = Sym of string * term list

let mk_const name = Sym (name, [])
let mk_app name args = Sym (name, args)

let rec pp_term ppf (Sym (f, args)) =
  if args = [] then Format.pp_print_string ppf f
  else
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         pp_term)
      args

let term_to_string t = Format.asprintf "%a" pp_term t

(* ------------------------------------------------------------------ *)
(* Term table                                                          *)
(* ------------------------------------------------------------------ *)

(* a symbol id followed by argument ids: the hash-consing key of a term,
   and under argument representatives its congruence signature *)
module Key = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash k = List.fold_left (fun h x -> (h * 65599) + x) 17 k land max_int
end)

type table = {
  symbols : (string, int) Hashtbl.t;
  ids : int Key.t;
  mutable sym : int array; (* term id -> symbol id *)
  mutable args : int list array; (* term id -> argument ids *)
  mutable trees : term array; (* term id -> the term it names *)
  mutable size : int;
}

let create () =
  {
    symbols = Hashtbl.create 32;
    ids = Key.create 64;
    sym = Array.make 64 0;
    args = Array.make 64 [];
    trees = Array.make 64 (Sym ("", []));
    size = 0;
  }

let grow tbl =
  let cap = 2 * Array.length tbl.sym in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 tbl.size;
    b
  in
  tbl.sym <- extend tbl.sym 0;
  tbl.args <- extend tbl.args [];
  tbl.trees <- extend tbl.trees (Sym ("", []))

let app tbl f args =
  let s =
    match Hashtbl.find_opt tbl.symbols f with
    | Some s -> s
    | None ->
      let s = Hashtbl.length tbl.symbols in
      Hashtbl.add tbl.symbols f s;
      s
  in
  let key = s :: args in
  match Key.find_opt tbl.ids key with
  | Some i -> i
  | None ->
    let i = tbl.size in
    if i = Array.length tbl.sym then grow tbl;
    tbl.sym.(i) <- s;
    tbl.args.(i) <- args;
    tbl.trees.(i) <- Sym (f, List.map (fun a -> tbl.trees.(a)) args);
    tbl.size <- i + 1;
    Key.add tbl.ids key i;
    i

let const tbl name = app tbl name []
let rec intern tbl (Sym (f, args)) = app tbl f (List.map (intern tbl) args)
let size tbl = tbl.size
let term tbl i = tbl.trees.(i)
let symbol tbl i = match tbl.trees.(i) with Sym (f, _) -> f
let args tbl i = tbl.args.(i)

(* ------------------------------------------------------------------ *)
(* Closure: union-find + use lists + signature table over a table      *)
(* ------------------------------------------------------------------ *)

type closure = {
  table : table;
  n : int; (* the table's size when the closure was set up *)
  parent : int array;
  rank : int array;
  uses0 : int list array; (* ids of terms having this id as an argument *)
  uses : int list array; (* the same per class representative, per query *)
  sigs : int Key.t;
      (* signatures a query created; the table's own keys are the
         signatures every term starts with *)
}

let closure tbl =
  let n = tbl.size in
  let uses0 = Array.make n [] in
  for i = n - 1 downto 0 do
    List.iter (fun a -> uses0.(a) <- i :: uses0.(a)) tbl.args.(i)
  done;
  {
    table = tbl;
    n;
    parent = Array.init n Fun.id;
    rank = Array.make n 0;
    uses0;
    uses = Array.copy uses0;
    sigs = Key.create 16;
  }

let rec find cc i =
  let p = cc.parent.(i) in
  if p = i then i
  else begin
    let r = find cc p in
    cc.parent.(i) <- r;
    r
  end

(* merge the classes of [a] and [b] and every pair congruence then
   forces: the users of the smaller class get their signatures looked
   up again, first among the query's own, then among the table's keys *)
let merge cc a b =
  let rec go = function
    | [] -> ()
    | (a, b) :: pending ->
      let ra = find cc a and rb = find cc b in
      if ra = rb then go pending
      else begin
        let small, big =
          if cc.rank.(ra) < cc.rank.(rb) then (ra, rb)
          else if cc.rank.(rb) < cc.rank.(ra) then (rb, ra)
          else begin
            cc.rank.(rb) <- cc.rank.(rb) + 1;
            (ra, rb)
          end
        in
        cc.parent.(small) <- big;
        let users = cc.uses.(small) in
        cc.uses.(small) <- [];
        cc.uses.(big) <- List.rev_append users cc.uses.(big);
        go
          (List.fold_left
             (fun pending u ->
               let key =
                 cc.table.sym.(u) :: List.map (find cc) cc.table.args.(u)
               in
               let congruent =
                 match Key.find_opt cc.sigs key with
                 | Some v -> Some v
                 | None -> Key.find_opt cc.table.ids key
               in
               match congruent with
               | Some v when find cc v <> find cc u -> (u, v) :: pending
               | Some _ -> pending
               | None ->
                 Key.add cc.sigs key u;
                 pending)
             pending users)
      end
  in
  go [ (a, b) ]

(** Close [eqs] over the table, starting afresh: [None] when one of
    [diseqs] joins two equal terms, else [Some rep] with [rep.(i)] the
    class representative of term [i]. *)
let close cc ~eqs ~diseqs =
  if cc.table.size <> cc.n then invalid_arg "Euf.close: the table grew";
  for i = 0 to cc.n - 1 do
    cc.parent.(i) <- i
  done;
  Array.fill cc.rank 0 cc.n 0;
  Array.blit cc.uses0 0 cc.uses 0 cc.n;
  Key.clear cc.sigs;
  List.iter (fun (a, b) -> merge cc a b) eqs;
  if List.exists (fun (a, b) -> find cc a = find cc b) diseqs then None
  else Some (Array.init cc.n (find cc))

(** The pairs of [ids] in one class of [rep], each pair in list order
    (Nelson-Oppen equality propagation). *)
let implied_equalities rep ids =
  let rec pairs = function
    | [] -> []
    | t :: rest ->
      List.filter_map
        (fun u -> if rep.(t) = rep.(u) then Some (t, u) else None)
        rest
      @ pairs rest
  in
  pairs ids

(* ------------------------------------------------------------------ *)
(* Satisfiability of one conjunction                                   *)
(* ------------------------------------------------------------------ *)

type verdict = Sat | Unsat

(** Decide a conjunction of equalities and disequalities. *)
let check ~(eqs : (term * term) list) ~(diseqs : (term * term) list) : verdict =
  let tbl = create () in
  let ids (a, b) = (intern tbl a, intern tbl b) in
  let eqs = List.map ids eqs and diseqs = List.map ids diseqs in
  match close (closure tbl) ~eqs ~diseqs with None -> Unsat | Some _ -> Sat
