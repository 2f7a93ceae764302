(** WS1S: weak monadic second-order logic of one successor.

    The decision procedure behind our MONA substitute.  Second-order
    variables denote finite sets of naturals; first-order variables denote
    positions and are compiled as singleton sets (the standard M2L
    encoding).  Every formula compiles to a {!Dfa.t} whose words encode
    variable assignments track-wise; satisfiability and validity are DFA
    emptiness questions. *)

type var = string

type pred =
  | Sub of var * var (* X subseteq Y *)
  | EqS of var * var (* X = Y *)
  | EqUnion of var * var * var (* X = Y u Z *)
  | EqInter of var * var * var (* X = Y n Z *)
  | EqDiff of var * var * var (* X = Y \ Z *)
  | IsEmpty of var
  | In of var * var (* x : X, x first-order *)
  | EqF of var * var (* x = y *)
  | SuccF of var * var (* x = y + 1 *)
  | LessF of var * var (* x < y *)
  | LeqF of var * var (* x <= y *)
  | ZeroF of var (* x = 0 *)
  | BoolVar of var (* 0 : B, the boolean encoding *)

type t =
  | True
  | False
  | Pred of pred
  | Not of t
  | And of t list
  | Or of t list
  | Impl of t * t
  | Iff of t * t
  | Ex1 of var * t (* first-order exists *)
  | All1 of var * t
  | Ex2 of var * t (* second-order exists *)
  | All2 of var * t

(* convenience *)
let conj fs = And fs
let disj fs = Or fs
let neg f = Not f

(* ------------------------------------------------------------------ *)
(* Variables                                                           *)
(* ------------------------------------------------------------------ *)

let pred_vars = function
  | Sub (a, b) | EqS (a, b) | In (a, b) | EqF (a, b) | SuccF (a, b)
  | LessF (a, b) | LeqF (a, b) ->
    [ a; b ]
  | EqUnion (a, b, c) | EqInter (a, b, c) | EqDiff (a, b, c) -> [ a; b; c ]
  | IsEmpty a | ZeroF a | BoolVar a -> [ a ]

let rec vars_of = function
  | True | False -> []
  | Pred p -> pred_vars p
  | Not f -> vars_of f
  | And fs | Or fs -> List.concat_map vars_of fs
  | Impl (a, b) | Iff (a, b) -> vars_of a @ vars_of b
  | Ex1 (x, f) | All1 (x, f) | Ex2 (x, f) | All2 (x, f) -> x :: vars_of f

(* Rename bound variables apart so each gets its own track. *)
let alpha_rename (f : t) : t =
  let counter = ref 0 in
  let fresh x =
    incr counter;
    Printf.sprintf "%s#%d" x !counter
  in
  let subst_pred env p =
    let s x = match List.assoc_opt x env with Some y -> y | None -> x in
    match p with
    | Sub (a, b) -> Sub (s a, s b)
    | EqS (a, b) -> EqS (s a, s b)
    | EqUnion (a, b, c) -> EqUnion (s a, s b, s c)
    | EqInter (a, b, c) -> EqInter (s a, s b, s c)
    | EqDiff (a, b, c) -> EqDiff (s a, s b, s c)
    | IsEmpty a -> IsEmpty (s a)
    | In (a, b) -> In (s a, s b)
    | EqF (a, b) -> EqF (s a, s b)
    | SuccF (a, b) -> SuccF (s a, s b)
    | LessF (a, b) -> LessF (s a, s b)
    | LeqF (a, b) -> LeqF (s a, s b)
    | ZeroF a -> ZeroF (s a)
    | BoolVar a -> BoolVar (s a)
  in
  let rec go env f =
    match f with
    | True | False -> f
    | Pred p -> Pred (subst_pred env p)
    | Not g -> Not (go env g)
    | And gs -> And (List.map (go env) gs)
    | Or gs -> Or (List.map (go env) gs)
    | Impl (a, b) -> Impl (go env a, go env b)
    | Iff (a, b) -> Iff (go env a, go env b)
    | Ex1 (x, g) ->
      let x' = fresh x in
      Ex1 (x', go ((x, x') :: env) g)
    | All1 (x, g) ->
      let x' = fresh x in
      All1 (x', go ((x, x') :: env) g)
    | Ex2 (x, g) ->
      let x' = fresh x in
      Ex2 (x', go ((x, x') :: env) g)
    | All2 (x, g) ->
      let x' = fresh x in
      All2 (x', go ((x, x') :: env) g)
  in
  go [] f

(* ------------------------------------------------------------------ *)
(* Atomic automata                                                     *)
(* ------------------------------------------------------------------ *)

(* A letter is an int; [bit l i] is track i's bit. *)
let bit l i = (l lsr i) land 1

(* Engine-neutral description of an atomic automaton: explicit states
   with a transition function over full-width letters, plus the tracks
   the transitions actually read.  The dense engine samples every
   letter; the symbolic engine samples only assignments of [ps_deps],
   which is what keeps predicate automata O(1) in the formula width. *)
type pred_spec = {
  ps_n : int;
  ps_initial : int;
  ps_accept : int -> bool;
  ps_tr : int -> int -> int; (* state -> letter -> state *)
  ps_deps : int list; (* tracks read, sorted ascending *)
}

(* 2-state automaton: accept-loop while [ok letter], dead otherwise. *)
let invariant_spec ~deps ok =
  {
    ps_n = 2;
    ps_initial = 0;
    ps_accept = (fun s -> s = 0);
    ps_tr = (fun s l -> if s = 0 && ok l then 0 else 1);
    ps_deps = deps;
  }

let pred_spec ~pos (p : pred) : pred_spec =
  let tr v = pos v in
  let deps vs = List.sort_uniq compare (List.map tr vs) in
  match p with
  | Sub (x, y) ->
    invariant_spec ~deps:(deps [ x; y ]) (fun l ->
        bit l (tr x) land lnot (bit l (tr y)) = 0)
  | EqS (x, y) ->
    invariant_spec ~deps:(deps [ x; y ]) (fun l ->
        bit l (tr x) = bit l (tr y))
  | EqUnion (x, y, z) ->
    invariant_spec ~deps:(deps [ x; y; z ]) (fun l ->
        bit l (tr x) = bit l (tr y) lor bit l (tr z))
  | EqInter (x, y, z) ->
    invariant_spec ~deps:(deps [ x; y; z ]) (fun l ->
        bit l (tr x) = bit l (tr y) land bit l (tr z))
  | EqDiff (x, y, z) ->
    invariant_spec ~deps:(deps [ x; y; z ]) (fun l ->
        bit l (tr x) = bit l (tr y) land lnot (bit l (tr z)) land 1)
  | IsEmpty x ->
    invariant_spec ~deps:(deps [ x ]) (fun l -> bit l (tr x) = 0)
  | In (x, y) ->
    (* with x a singleton, x subseteq y is membership *)
    invariant_spec ~deps:(deps [ x; y ]) (fun l ->
        bit l (tr x) land lnot (bit l (tr y)) = 0)
  | EqF (x, y) ->
    invariant_spec ~deps:(deps [ x; y ]) (fun l ->
        bit l (tr x) = bit l (tr y))
  | SuccF (x, y) ->
    (* x = y + 1: y's position immediately precedes x's.
       states: 0 = nothing seen, 1 = y seen (x expected now), 2 = done,
       3 = dead *)
    {
      ps_n = 4;
      ps_initial = 0;
      ps_accept = (fun s -> s = 2);
      ps_tr =
        (fun s l ->
          let bx = bit l (tr x) and by = bit l (tr y) in
          match s with
          | 0 ->
            if bx = 0 && by = 0 then 0
            else if bx = 0 && by = 1 then 1
            else 3
          | 1 -> if bx = 1 && by = 0 then 2 else 3
          | 2 -> if bx = 0 && by = 0 then 2 else 3
          | _ -> 3);
      ps_deps = deps [ x; y ];
    }
  | LessF (x, y) ->
    (* x strictly before y *)
    {
      ps_n = 4;
      ps_initial = 0;
      ps_accept = (fun s -> s = 2);
      ps_tr =
        (fun s l ->
          let bx = bit l (tr x) and by = bit l (tr y) in
          match s with
          | 0 ->
            if bx = 0 && by = 0 then 0
            else if bx = 1 && by = 0 then 1
            else 3
          | 1 ->
            if bx = 0 && by = 1 then 2
            else if bx = 0 && by = 0 then 1
            else 3
          | 2 -> if bx = 0 && by = 0 then 2 else 3
          | _ -> 3);
      ps_deps = deps [ x; y ];
    }
  | LeqF (x, y) ->
    (* x <= y: either same position or x before y *)
    {
      ps_n = 4;
      ps_initial = 0;
      ps_accept = (fun s -> s = 2);
      ps_tr =
        (fun s l ->
          let bx = bit l (tr x) and by = bit l (tr y) in
          match s with
          | 0 ->
            if bx = 0 && by = 0 then 0
            else if bx = 1 && by = 1 then 2
            else if bx = 1 && by = 0 then 1
            else 3
          | 1 ->
            if bx = 0 && by = 1 then 2
            else if bx = 0 && by = 0 then 1
            else 3
          | 2 -> if bx = 0 && by = 0 then 2 else 3
          | _ -> 3);
      ps_deps = deps [ x; y ];
    }
  | ZeroF x ->
    (* x's singleton is position 0 *)
    {
      ps_n = 3;
      ps_initial = 0;
      ps_accept = (fun s -> s = 1);
      ps_tr =
        (fun s l ->
          let bx = bit l (tr x) in
          match s with
          | 0 -> if bx = 1 then 1 else 2
          | 1 -> if bx = 0 then 1 else 2
          | _ -> 2);
      ps_deps = deps [ x ];
    }
  | BoolVar x ->
    (* 0 : X *)
    {
      ps_n = 3;
      ps_initial = 0;
      ps_accept = (fun s -> s = 1);
      ps_tr =
        (fun s l ->
          let bx = bit l (tr x) in
          match s with
          | 0 -> if bx = 1 then 1 else 2
          | 1 -> 1
          | _ -> 2);
      ps_deps = deps [ x ];
    }

(* singleton(X): exactly one position in X *)
let singleton_spec ~track =
  {
    ps_n = 3;
    ps_initial = 0;
    ps_accept = (fun s -> s = 1);
    ps_tr =
      (fun s l ->
        let b = bit l track in
        match s with
        | 0 -> if b = 1 then 1 else 0
        | 1 -> if b = 1 then 2 else 1
        | _ -> 2);
    ps_deps = [ track ];
  }

let dense_of_spec ~width (sp : pred_spec) : Dfa.t =
  Dfa.make ~width ~n:sp.ps_n ~initial:sp.ps_initial ~accept:sp.ps_accept
    sp.ps_tr

let sym_of_spec man ~width (sp : pred_spec) : Sdfa.t =
  Sdfa.make ~man ~width ~n:sp.ps_n ~initial:sp.ps_initial
    ~accept:sp.ps_accept ~deps:sp.ps_deps sp.ps_tr

let compile_pred ~width ~pos (p : pred) : Dfa.t =
  dense_of_spec ~width (pred_spec ~pos p)

let singleton_automaton ~width ~track =
  dense_of_spec ~width (singleton_spec ~track)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* which automata engine decides a formula: [Bdd] is the symbolic
   MTBDD-backed engine, [Dense] the original 2^width-table engine (kept
   for differential testing, exactly as Fol keeps [Naive]) *)
type engine = Bdd | Dense

(* high-water mark of automaton states across all decisions, for the
   bench tables; Trace counters are summing, so a max lives here *)
let peak = Atomic.make 0

let rec note_peak n =
  let cur = Atomic.get peak in
  if n > cur && not (Atomic.compare_and_set peak cur n) then note_peak n

let peak_states () = Atomic.get peak
let reset_peak_states () = Atomic.set peak 0

type compiled = {
  dfa : Dfa.t;
  tracks : var array; (* track i = tracks.(i) *)
}

(* alpha-rename and assign every variable a global track index *)
let track_assignment (f : t) : t * var array * int * (var -> int) =
  let f = alpha_rename f in
  let all_vars =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun v ->
        if Hashtbl.mem seen v then false
        else begin
          Hashtbl.add seen v ();
          true
        end)
      (vars_of f)
  in
  let tracks = Array.of_list all_vars in
  let width = Array.length tracks in
  let pos v =
    let rec find i =
      if i >= width then invalid_arg ("Ws1s.compile: unknown variable " ^ v)
      else if tracks.(i) = v then i
      else find (i + 1)
    in
    find 0
  in
  (f, tracks, width, pos)

let compile (f : t) : compiled =
  let f, tracks, width, pos = track_assignment f in
  let rec go f : Dfa.t =
    let d =
      match f with
      | True -> Dfa.top width
      | False -> Dfa.bottom width
      | Pred p -> compile_pred ~width ~pos p
      | Not g -> Dfa.complement (go g)
      | And gs ->
        List.fold_left
          (fun acc g -> Dfa.minimize (Dfa.inter acc (go g)))
          (Dfa.top width) gs
      | Or gs ->
        List.fold_left
          (fun acc g -> Dfa.minimize (Dfa.union acc (go g)))
          (Dfa.bottom width) gs
      | Impl (a, b) -> go (Or [ Not a; b ])
      | Iff (a, b) -> go (And [ Impl (a, b); Impl (b, a) ])
      | Ex2 (x, g) ->
        let d = go g in
        let p = pos x in
        Dfa.minimize (Dfa.insert_track (Dfa.project d p) p)
      | All2 (x, g) -> go (Not (Ex2 (x, Not g)))
      | Ex1 (x, g) ->
        let d =
          Dfa.inter (singleton_automaton ~width ~track:(pos x)) (go g)
        in
        let p = pos x in
        Dfa.minimize (Dfa.insert_track (Dfa.project d p) p)
      | All1 (x, g) ->
        (* forall x ranges over singletons only *)
        go (Not (Ex1 (x, Not g)))
    in
    note_peak (Dfa.num_states d);
    d
  in
  { dfa = Dfa.minimize (go f); tracks }

(* ------------------------------------------------------------------ *)
(* Symbolic compilation (the BDD engine)                               *)
(* ------------------------------------------------------------------ *)

type compiled_sym = {
  sdfa : Sdfa.t;
  s_tracks : var array;
  man : Bdd.manager; (* per-compilation: no cross-thread sharing *)
}

(* Same structure as the dense compiler, with one structural
   improvement: tracks are global BDD variables, so a quantifier is
   [Sdfa.quantify] {e in place} — the dense engine's project /
   re-insert width realignment (a full-automaton rebuild at every
   binder) has no symbolic counterpart. *)
let compile_sym (f : t) : compiled_sym =
  let f, tracks, width, pos = track_assignment f in
  let man = Bdd.manager () in
  let rec go f : Sdfa.t =
    let d =
      match f with
      | True -> Sdfa.top man width
      | False -> Sdfa.bottom man width
      | Pred p -> sym_of_spec man ~width (pred_spec ~pos p)
      | Not g -> Sdfa.complement (go g)
      | And gs ->
        List.fold_left
          (fun acc g -> Sdfa.minimize (Sdfa.inter acc (go g)))
          (Sdfa.top man width) gs
      | Or gs ->
        List.fold_left
          (fun acc g -> Sdfa.minimize (Sdfa.union acc (go g)))
          (Sdfa.bottom man width) gs
      | Impl (a, b) -> go (Or [ Not a; b ])
      | Iff (a, b) -> go (And [ Impl (a, b); Impl (b, a) ])
      | Ex2 (x, g) -> Sdfa.minimize (Sdfa.quantify (go g) (pos x))
      | All2 (x, g) -> go (Not (Ex2 (x, Not g)))
      | Ex1 (x, g) ->
        let d =
          Sdfa.inter (sym_of_spec man ~width (singleton_spec ~track:(pos x)))
            (go g)
        in
        Sdfa.minimize (Sdfa.quantify d (pos x))
      | All1 (x, g) -> go (Not (Ex1 (x, Not g)))
    in
    note_peak (Sdfa.num_states d);
    d
  in
  { sdfa = Sdfa.minimize (go f); s_tracks = tracks; man }

(* free first-order variables must be constrained to singletons *)
let with_fo_constraints (c : compiled) (fo : var list) : Dfa.t =
  let width = Array.length c.tracks in
  Array.to_list c.tracks
  |> List.mapi (fun i v -> (i, v))
  |> List.filter (fun (_, v) -> List.mem v fo)
  |> List.fold_left
       (fun acc (i, _) ->
         Dfa.minimize (Dfa.inter acc (singleton_automaton ~width ~track:i)))
       c.dfa

let with_fo_constraints_sym (c : compiled_sym) (fo : var list) : Sdfa.t =
  let width = Array.length c.s_tracks in
  Array.to_list c.s_tracks
  |> List.mapi (fun i v -> (i, v))
  |> List.filter (fun (_, v) -> List.mem v fo)
  |> List.fold_left
       (fun acc (i, _) ->
         Sdfa.minimize
           (Sdfa.inter acc (sym_of_spec c.man ~width (singleton_spec ~track:i))))
       c.sdfa

(* publish the symbolic engine's counters after a decision: total nodes
   hash-consed, computed-cache traffic, and this decision's peak state
   count (all summing — the process-wide max is [peak_states]) *)
let publish_sym_counters (man : Bdd.manager) : unit =
  Trace.add "mona.bdd.unique" (Bdd.unique_size man);
  let lookups, hits = Bdd.cache_stats man in
  Trace.add "mona.bdd.cache.lookups" lookups;
  Trace.add "mona.bdd.cache.hits" hits

(* ------------------------------------------------------------------ *)
(* Decision interface                                                  *)
(* ------------------------------------------------------------------ *)

type model = (var * int list) list (* var -> set of positions *)

let decode_word (tracks : var array) (word : int list) : model =
  Array.to_list tracks
  |> List.mapi (fun i v ->
         ( v,
           List.mapi (fun p l -> if bit l i = 1 then Some p else None) word
           |> List.filter_map Fun.id ))

(** Satisfiability; [fo] lists the free first-order variables (constrained
    to singletons).  Returns a satisfying assignment when satisfiable.
    [engine] defaults to [Bdd]. *)
let satisfiable ?(engine = Bdd) ?(fo = []) (f : t) : model option =
  match engine with
  | Dense ->
    let c = compile f in
    let d = with_fo_constraints c fo in
    (match Dfa.witness d with
    | None -> None
    | Some w -> Some (decode_word c.tracks w))
  | Bdd ->
    let c = compile_sym f in
    let d = with_fo_constraints_sym c fo in
    let r =
      match Sdfa.witness d with
      | None -> None
      | Some w -> Some (decode_word c.s_tracks w)
    in
    publish_sym_counters c.man;
    r

(** Validity over all assignments (free first-order variables range over
    positions, second-order over finite sets). *)
let valid ?(engine = Bdd) ?(fo = []) (f : t) : bool =
  match engine with
  | Dense ->
    let c = compile (Not f) in
    let d = with_fo_constraints c fo in
    Dfa.is_empty d
  | Bdd ->
    let c = compile_sym (Not f) in
    let d = with_fo_constraints_sym c fo in
    let r = Sdfa.is_empty d in
    publish_sym_counters c.man;
    r

(** A countermodel when not valid. *)
let countermodel ?engine ?(fo = []) (f : t) : model option =
  satisfiable ?engine ~fo (Not f)
