(** Tests for the congruence-closure (EUF) decision procedure. *)

open Euf

let a = mk_const "a"
let b = mk_const "b"
let c = mk_const "c"
let d = mk_const "d"
let f x = mk_app "f" [ x ]
let g x y = mk_app "g" [ x; y ]

let check_sat msg eqs diseqs =
  match check ~eqs ~diseqs with
  | Sat -> ()
  | Unsat -> Alcotest.failf "%s: expected SAT" msg

let check_unsat msg eqs diseqs =
  match check ~eqs ~diseqs with
  | Unsat -> ()
  | Sat -> Alcotest.failf "%s: expected UNSAT" msg

let test_basic () =
  check_sat "empty" [] [];
  check_sat "a=b alone" [ (a, b) ] [];
  check_unsat "a=b, a<>b" [ (a, b) ] [ (a, b) ];
  check_sat "a=b, a<>c" [ (a, b) ] [ (a, c) ];
  check_unsat "transitivity" [ (a, b); (b, c) ] [ (a, c) ]

let test_congruence () =
  check_unsat "f-congruence" [ (a, b) ] [ (f a, f b) ];
  check_unsat "nested congruence" [ (a, b) ] [ (f (f a), f (f b)) ];
  check_sat "no congruence without eq" [] [ (f a, f b) ];
  check_unsat "binary congruence" [ (a, b); (c, d) ] [ (g a c, g b d) ];
  check_sat "partial args differ" [ (a, b) ] [ (g a c, g b d) ]

let test_classic_chains () =
  (* f^3(a)=a & f^5(a)=a ==> f(a)=a  (gcd argument) *)
  let rec fn n x = if n = 0 then x else f (fn (n - 1) x) in
  check_unsat "f3=a,f5=a implies f1=a"
    [ (fn 3 a, a); (fn 5 a, a) ]
    [ (f a, a) ];
  check_sat "f2=a alone does not imply f1=a" [ (fn 2 a, a) ] [ (f a, a) ];
  check_unsat "f2=a,f3=a implies f1=a"
    [ (fn 2 a, a); (fn 3 a, a) ]
    [ (f a, a) ]

let test_curried_use () =
  (* g(a,b)=c & a=d ==> g(d,b)=c *)
  check_unsat "use-list rehash" [ (g a b, c); (a, d) ] [ (g d b, c) ]

(* one table over [universe], closed under [eqs]; [None] when a
   disequality fails, else the representative of each universe term *)
let close_over universe ~eqs ~diseqs =
  let tbl = create () in
  List.iter (fun t -> ignore (intern tbl t)) universe;
  let ids (x, y) = (intern tbl x, intern tbl y) in
  let eqs = List.map ids eqs and diseqs = List.map ids diseqs in
  Option.map
    (fun rep -> (tbl, rep))
    (close (closure tbl) ~eqs ~diseqs)

(* the equalities [eqs] imply between the terms of [shared], as terms *)
let implied_between universe ~eqs shared =
  match close_over (universe @ shared) ~eqs ~diseqs:[] with
  | None -> assert false (* no disequality *)
  | Some (tbl, rep) ->
    List.map
      (fun (x, y) -> (term tbl x, term tbl y))
      (implied_equalities rep (List.map (intern tbl) shared))

let test_implied_equalities () =
  let implied = implied_between [] ~eqs:[ (a, b); (c, d) ] [ a; b; c; d ] in
  Alcotest.(check int) "two pairs" 2 (List.length implied);
  let implied2 =
    implied_between [] ~eqs:[ (a, b); (f a, c); (f b, d) ] [ c; d ]
  in
  (* c = f(a) = f(b) = d by congruence *)
  Alcotest.(check int) "congruence-implied equality" 1 (List.length implied2)

(* one table, queried again and again: each query starts from the
   closure's set-up state, never from the previous query's merges *)
let test_incremental () =
  let universe = [ a; b; c; f a; f b; f c ] in
  let equal eqs x y = close_over universe ~eqs ~diseqs:[ (x, y) ] = None in
  Alcotest.(check bool) "a=b" true (equal [ (a, b) ] a b);
  Alcotest.(check bool) "fa=fb" true (equal [ (a, b) ] (f a) (f b));
  Alcotest.(check bool) "a<>c yet" false (equal [ (a, b) ] a c);
  Alcotest.(check bool) "a=c now" true (equal [ (a, b); (b, c) ] a c);
  Alcotest.(check bool) "inconsistency detection" true
    (equal [ (a, b); (b, c) ] (f a) (f c));
  let tbl = create () in
  let ids = List.map (intern tbl) universe in
  let cc = closure tbl in
  let id t = intern tbl t in
  let query eqs = close cc ~eqs:(List.map (fun (x, y) -> (id x, id y)) eqs) in
  Alcotest.(check bool) "merged" true
    (query [ (a, b); (b, c) ] ~diseqs:[ (id (f a), id (f c)) ] = None);
  (match query [] ~diseqs:[ (id a, id b) ] with
  | None -> Alcotest.fail "a later query kept an earlier query's merges"
  | Some rep ->
    Alcotest.(check int) "every term its own class" (List.length ids)
      (List.length (List.sort_uniq compare (Array.to_list rep))));
  Alcotest.check_raises "a grown table is refused"
    (Invalid_argument "Euf.close: the table grew") (fun () ->
      ignore (intern tbl (f (f c)));
      ignore (query [] ~diseqs:[]))

(* random sanity: congruence closure vs. ground enumeration over a small
   universe of 3 elements and one unary function *)
let prop_vs_bruteforce =
  let gen =
    QCheck.Gen.(
      let term =
        oneofl [ a; b; c; f a; f b; f c; f (f a) ]
      in
      pair
        (list_size (0 -- 4) (pair term term))
        (list_size (0 -- 3) (pair term term)))
  in
  let print (eqs, diseqs) =
    let pl l =
      String.concat ", "
        (List.map
           (fun (x, y) -> term_to_string x ^ "=" ^ term_to_string y)
           l)
    in
    "eqs: " ^ pl eqs ^ " diseqs: " ^ pl diseqs
  in
  let arb = QCheck.make ~print gen in
  (* brute force: interpret over universe {0,1,2}, all assignments of a,b,c
     and all functions f: U -> U *)
  let brute (eqs, diseqs) =
    let universe = [ 0; 1; 2 ] in
    let rec eval_term fa fb fc ftab t =
      match t with
      | Sym ("a", []) -> fa
      | Sym ("b", []) -> fb
      | Sym ("c", []) -> fc
      | Sym ("f", [ u ]) -> List.nth ftab (eval_term fa fb fc ftab u)
      | Sym (_, _) -> assert false
    in
    List.exists
      (fun fa ->
        List.exists
          (fun fb ->
            List.exists
              (fun fc ->
                List.exists
                  (fun f0 ->
                    List.exists
                      (fun f1 ->
                        List.exists
                          (fun f2 ->
                            let ftab = [ f0; f1; f2 ] in
                            let ev = eval_term fa fb fc ftab in
                            List.for_all (fun (x, y) -> ev x = ev y) eqs
                            && List.for_all
                                 (fun (x, y) -> ev x <> ev y)
                                 diseqs)
                          universe)
                      universe)
                  universe)
              universe)
          universe)
      universe
  in
  QCheck.Test.make ~name:"euf complete on small universe" ~count:300 arb
    (fun (eqs, diseqs) ->
      match close_over [] ~eqs ~diseqs with
      | None ->
        (* congruence closure UNSAT must mean no model at all *)
        not (brute (eqs, diseqs))
      | Some _ -> true
      (* SAT in EUF (infinite universe) need not transfer to a 3-element
         universe, so only the UNSAT direction is checked *))

(* The term-level congruence closure that built one state per query:
   intern the terms of each equality as it is merged, then ask each
   disequality or pair.  Kept here as the reference the id closure must
   agree with. *)
module Reference = struct
  type node = {
    id : int;
    fname : string;
    args : int list;
    mutable parent : int;
    mutable rank : int;
    mutable uses : int list;
  }

  type t = {
    mutable nodes : node array;
    mutable n_nodes : int;
    term_ids : (string * int list, int) Hashtbl.t;
    sigs : (string * int list, int) Hashtbl.t;
    mutable pending : (int * int) list;
  }

  let dummy =
    { id = -1; fname = ""; args = []; parent = -1; rank = 0; uses = [] }

  let create () =
    { nodes = [||]; n_nodes = 0; term_ids = Hashtbl.create 64;
      sigs = Hashtbl.create 64; pending = [] }

  let rec find st i =
    let n = st.nodes.(i) in
    if n.parent = i then i
    else begin
      let r = find st n.parent in
      n.parent <- r;
      r
    end

  let rec intern st (Sym (f, args)) =
    let arg_ids = List.map (intern st) args in
    match Hashtbl.find_opt st.term_ids (f, arg_ids) with
    | Some i -> i
    | None ->
      let id = st.n_nodes in
      if id >= Array.length st.nodes then begin
        let grown = Array.make (max 16 (2 * Array.length st.nodes)) dummy in
        Array.blit st.nodes 0 grown 0 st.n_nodes;
        st.nodes <- grown
      end;
      st.nodes.(id) <-
        { id; fname = f; args = arg_ids; parent = id; rank = 0; uses = [] };
      st.n_nodes <- id + 1;
      Hashtbl.add st.term_ids (f, arg_ids) id;
      List.iter
        (fun a ->
          let ra = st.nodes.(find st a) in
          ra.uses <- id :: ra.uses)
        arg_ids;
      let key = (f, List.map (find st) arg_ids) in
      (match Hashtbl.find_opt st.sigs key with
      | Some j -> st.pending <- (id, j) :: st.pending
      | None -> Hashtbl.add st.sigs key id);
      process st;
      id

  and union st i j =
    let ri = find st i and rj = find st j in
    if ri <> rj then begin
      let ni = st.nodes.(ri) and nj = st.nodes.(rj) in
      let small, big =
        if ni.rank < nj.rank then (ni, nj)
        else if nj.rank < ni.rank then (nj, ni)
        else begin
          nj.rank <- nj.rank + 1;
          (ni, nj)
        end
      in
      small.parent <- big.id;
      let users = small.uses in
      big.uses <- users @ big.uses;
      small.uses <- [];
      List.iter
        (fun u ->
          let nu = st.nodes.(u) in
          let key = (nu.fname, List.map (find st) nu.args) in
          match Hashtbl.find_opt st.sigs key with
          | Some v when find st v <> find st u ->
            st.pending <- (u, v) :: st.pending
          | Some _ -> ()
          | None -> Hashtbl.add st.sigs key u)
        users
    end

  and process st =
    match st.pending with
    | [] -> ()
    | (i, j) :: rest ->
      st.pending <- rest;
      union st i j;
      process st

  let merge st x y =
    let ix = intern st x and iy = intern st y in
    st.pending <- (ix, iy) :: st.pending;
    process st

  let equal_terms st x y =
    let ix = intern st x and iy = intern st y in
    find st ix = find st iy

  let closed eqs =
    let st = create () in
    List.iter (fun (x, y) -> merge st x y) eqs;
    st

  let check ~eqs ~diseqs =
    let st = closed eqs in
    if List.exists (fun (x, y) -> equal_terms st x y) diseqs then Unsat
    else Sat

  let implied_equalities ~eqs shared =
    let st = closed eqs in
    let with_ids = List.map (fun t -> (t, find st (intern st t))) shared in
    let rec pairs = function
      | [] -> []
      | (t, r) :: rest ->
        List.filter_map
          (fun (u, r') -> if r = r' then Some (t, u) else None)
          rest
        @ pairs rest
    in
    pairs with_ids
end

(* the id closure over a table that also holds unrelated terms (more
   symbols, deeper nesting), asked right after a query that merges every
   term of the table, against the reference over the query's terms
   alone: the same Sat/Unsat answer, and when Sat the same implied pairs
   between the queried terms, in the same order *)
let prop_vs_reference =
  let h x = mk_app "h" [ x ] in
  let gen =
    QCheck.Gen.(
      let base = oneofl [ a; b; c; d ] in
      let term =
        fix
          (fun self n ->
            if n = 0 then base
            else
              frequency
                [ (2, base);
                  (2, map f (self (n - 1)));
                  (1, map2 g (self (n - 1)) (self (n - 1))) ])
          3
      in
      let extra =
        fix
          (fun self n ->
            if n = 0 then oneofl [ a; b; mk_const "e"; mk_const "k" ]
            else
              frequency
                [ (1, map h (self (n - 1)));
                  (1, map f (self (n - 1)));
                  (1, map2 g (self (n - 1)) (self (n - 1))) ])
          4
      in
      quad
        (list_size (0 -- 5) (pair term term))
        (list_size (0 -- 3) (pair term term))
        (list_size (1 -- 5) term)
        (pair (list_size (0 -- 6) extra) (list_size (0 -- 6) extra)))
  in
  let print (eqs, diseqs, shared, (before, after)) =
    let ts l = String.concat ", " (List.map term_to_string l) in
    let ps l =
      String.concat ", "
        (List.map (fun (x, y) -> term_to_string x ^ "=" ^ term_to_string y) l)
    in
    Printf.sprintf "eqs: %s diseqs: %s shared: %s extra: %s | %s" (ps eqs)
      (ps diseqs) (ts shared) (ts before) (ts after)
  in
  QCheck.Test.make ~name:"euf: id closure agrees with the term-level closure"
    ~count:500 (QCheck.make ~print gen)
    (fun (eqs, diseqs, shared, (before, after)) ->
      let tbl = create () in
      let intern = intern tbl in
      let shared_ids =
        List.iter (fun t -> ignore (intern t)) before;
        List.map intern shared
      in
      List.iter (fun t -> ignore (intern t)) after;
      let ids = List.map (fun (x, y) -> (intern x, intern y)) in
      let eq_ids = ids eqs and diseq_ids = ids diseqs in
      let cc = closure tbl in
      ignore
        (close cc ~eqs:(List.init (size tbl) (fun i -> (0, i))) ~diseqs:[]);
      match close cc ~eqs:eq_ids ~diseqs:diseq_ids with
      | None -> Reference.check ~eqs ~diseqs = Unsat
      | Some rep ->
        Reference.check ~eqs ~diseqs = Sat
        && List.map
             (fun (x, y) -> (term tbl x, term tbl y))
             (implied_equalities rep shared_ids)
           = Reference.implied_equalities ~eqs shared)

let suite =
  [ ( "euf",
      [ Alcotest.test_case "basic equality" `Quick test_basic;
        Alcotest.test_case "congruence" `Quick test_congruence;
        Alcotest.test_case "classic chains" `Quick test_classic_chains;
        Alcotest.test_case "use-list rehash" `Quick test_curried_use;
        Alcotest.test_case "implied equalities" `Quick test_implied_equalities;
        Alcotest.test_case "incremental" `Quick test_incremental;
        QCheck_alcotest.to_alcotest prop_vs_bruteforce;
        QCheck_alcotest.to_alcotest prop_vs_reference;
      ] );
  ]
