(** CDCL SAT solver.

    The boolean engine behind the lazy-SMT core in [lib/smt] and the
    Boolean-heap shape analysis.  Classic architecture: two-watched-literal
    propagation, first-UIP conflict analysis with clause learning,
    VSIDS-style variable activities, phase saving and geometric restarts.

    Variables are positive integers [1..n]; a literal is [+v] or [-v]
    (DIMACS convention).  Assumptions are implemented as forced decisions
    at the bottom of the search tree, re-applied after every backjump. *)

type result =
  | Sat of bool array (* indexed by variable; entry 0 unused *)
  | Unsat

exception Bad_literal of int

(* Literal encoding: code 2v for +v, 2v+1 for -v. *)
let enc l =
  if l = 0 then raise (Bad_literal 0)
  else if l > 0 then 2 * l
  else (2 * -l) + 1

let neg_code c = c lxor 1
let var_of_code c = c / 2
let code_is_pos c = c land 1 = 0

type clause = { lits : int array; mutable activity : float }

type t = {
  mutable nvars : int;
  mutable n_clauses : int;
  mutable learnts : clause list;
  mutable n_learnts : int; (* |learnts|, maintained so the stat is O(1) *)
  mutable watches : clause list array; (* per literal code *)
  mutable assign : int array; (* 1 true, -1 false, 0 unassigned; per var *)
  mutable level : int array;
  mutable reason : clause option array;
  mutable activity : float array;
  mutable phase : bool array;
  mutable trail : int array; (* literal codes in assignment order *)
  mutable trail_len : int;
  mutable trail_lim : int array; (* trail length at each decision *)
  mutable n_decisions : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool; (* false once a top-level conflict was found *)
}

let create () =
  {
    nvars = 0;
    n_clauses = 0;
    learnts = [];
    n_learnts = 0;
    watches = Array.make 16 [];
    assign = Array.make 8 0;
    level = Array.make 8 0;
    reason = Array.make 8 None;
    activity = Array.make 8 0.0;
    phase = Array.make 8 false;
    trail = Array.make 8 0;
    trail_len = 0;
    trail_lim = Array.make 8 0;
    n_decisions = 0;
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
  }

let grow_array a n default =
  if Array.length a >= n then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) default in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let ensure_var s v =
  if v > s.nvars then begin
    s.nvars <- v;
    s.assign <- grow_array s.assign (v + 1) 0;
    s.level <- grow_array s.level (v + 1) 0;
    s.reason <- grow_array s.reason (v + 1) None;
    s.activity <- grow_array s.activity (v + 1) 0.0;
    s.phase <- grow_array s.phase (v + 1) false;
    s.trail <- grow_array s.trail (v + 1) 0;
    s.trail_lim <- grow_array s.trail_lim (v + 1) 0;
    s.watches <- grow_array s.watches ((2 * v) + 2) []
  end

let value_code s c =
  let v = s.assign.(var_of_code c) in
  if v = 0 then 0 else if code_is_pos c then v else -v

let decision_level s = s.n_decisions

(* ------------------------------------------------------------------ *)
(* Trail                                                               *)
(* ------------------------------------------------------------------ *)

let enqueue s code reason =
  let v = var_of_code code in
  s.assign.(v) <- (if code_is_pos code then 1 else -1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.phase.(v) <- code_is_pos code;
  s.trail.(s.trail_len) <- code;
  s.trail_len <- s.trail_len + 1

let new_decision_level s =
  s.trail_lim.(s.n_decisions) <- s.trail_len;
  s.n_decisions <- s.n_decisions + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let target = s.trail_lim.(lvl) in
    for i = s.trail_len - 1 downto target do
      let v = var_of_code s.trail.(i) in
      s.assign.(v) <- 0;
      s.reason.(v) <- None
    done;
    s.trail_len <- target;
    s.qhead <- target;
    s.n_decisions <- lvl
  end

(* ------------------------------------------------------------------ *)
(* Watched-literal propagation                                         *)
(* ------------------------------------------------------------------ *)

let watch s code cl = s.watches.(code) <- cl :: s.watches.(code)

(* Returns the conflicting clause, if any. *)
let propagate s : clause option =
  let conflict = ref None in
  while !conflict = None && s.qhead < s.trail_len do
    let code = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    let falsified = neg_code code in
    let old_watchers = s.watches.(falsified) in
    s.watches.(falsified) <- [];
    let rec process = function
      | [] -> ()
      | cl :: rest ->
        if cl.lits.(0) = falsified then begin
          cl.lits.(0) <- cl.lits.(1);
          cl.lits.(1) <- falsified
        end;
        if value_code s cl.lits.(0) = 1 then begin
          watch s falsified cl;
          process rest
        end
        else begin
          let n = Array.length cl.lits in
          let found = ref false in
          let i = ref 2 in
          while (not !found) && !i < n do
            if value_code s cl.lits.(!i) <> -1 then begin
              cl.lits.(1) <- cl.lits.(!i);
              cl.lits.(!i) <- falsified;
              watch s cl.lits.(1) cl;
              found := true
            end;
            incr i
          done;
          if !found then process rest
          else begin
            watch s falsified cl;
            if value_code s cl.lits.(0) = -1 then begin
              conflict := Some cl;
              s.qhead <- s.trail_len;
              List.iter (fun c -> watch s falsified c) rest
            end
            else begin
              enqueue s cl.lits.(0) (Some cl);
              process rest
            end
          end
        end
    in
    process old_watchers
  done;
  !conflict

(* ------------------------------------------------------------------ *)
(* Activities                                                          *)
(* ------------------------------------------------------------------ *)

let var_decay = 0.95

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 1 to s.nvars do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end

let decay_activities s = s.var_inc <- s.var_inc /. var_decay

(* ------------------------------------------------------------------ *)
(* Conflict analysis (first UIP)                                       *)
(* ------------------------------------------------------------------ *)

let analyze s (confl : clause) : int array * int =
  let seen = Hashtbl.create 64 in
  let learnt = ref [] in
  let counter = ref 0 in
  let cur_level = decision_level s in
  let p = ref (-1) in
  let reason_clause = ref (Some confl) in
  let index = ref (s.trail_len - 1) in
  let continue = ref true in
  while !continue do
    (match !reason_clause with
    | Some cl ->
      Array.iter
        (fun q ->
          if q <> !p then begin
            let v = var_of_code q in
            if (not (Hashtbl.mem seen v)) && s.level.(v) > 0 then begin
              Hashtbl.add seen v ();
              bump_var s v;
              if s.level.(v) >= cur_level then incr counter
              else learnt := q :: !learnt
            end
          end)
        cl.lits
    | None -> ());
    let rec next_seen i =
      if Hashtbl.mem seen (var_of_code s.trail.(i)) then i
      else next_seen (i - 1)
    in
    index := next_seen !index;
    let code = s.trail.(!index) in
    let v = var_of_code code in
    p := code;
    reason_clause := s.reason.(v);
    Hashtbl.remove seen v;
    decr counter;
    index := !index - 1;
    if !counter <= 0 then continue := false
  done;
  let uip = neg_code !p in
  let lits = Array.of_list (uip :: !learnt) in
  let blevel =
    if Array.length lits = 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to Array.length lits - 1 do
        if s.level.(var_of_code lits.(i)) > s.level.(var_of_code lits.(!max_i))
        then max_i := i
      done;
      let tmp = lits.(1) in
      lits.(1) <- lits.(!max_i);
      lits.(!max_i) <- tmp;
      s.level.(var_of_code lits.(1))
    end
  in
  (lits, blevel)

(* ------------------------------------------------------------------ *)
(* Clause addition                                                     *)
(* ------------------------------------------------------------------ *)

(** Add a clause (list of DIMACS literals).  Returns [false] when the
    clause set becomes unsatisfiable at level 0. *)
let add_clause s (lits : int list) : bool =
  if not s.ok then false
  else begin
    List.iter (fun l -> ensure_var s (abs l)) lits;
    cancel_until s 0;
    let codes = List.sort_uniq compare (List.map enc lits) in
    let tautology =
      List.exists (fun c -> List.mem (neg_code c) codes) codes
      || List.exists (fun c -> value_code s c = 1) codes
    in
    if tautology then true
    else begin
      let codes = List.filter (fun c -> value_code s c <> -1) codes in
      match codes with
      | [] ->
        s.ok <- false;
        false
      | [ c ] ->
        enqueue s c None;
        (match propagate s with
        | Some _ ->
          s.ok <- false;
          false
        | None -> true)
      | c0 :: c1 :: _ ->
        let cl = { lits = Array.of_list codes; activity = 0.0 } in
        s.n_clauses <- s.n_clauses + 1;
        watch s c0 cl;
        watch s c1 cl;
        true
    end
  end

let learn_clause s (lits : int array) =
  if Array.length lits = 1 then enqueue s lits.(0) None
  else begin
    let cl = { lits; activity = s.cla_inc } in
    s.learnts <- cl :: s.learnts;
    s.n_learnts <- s.n_learnts + 1;
    watch s lits.(0) cl;
    watch s lits.(1) cl;
    enqueue s lits.(0) (Some cl)
  end

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

let pick_branch_var s =
  let best = ref 0 and best_act = ref neg_infinity in
  for v = 1 to s.nvars do
    if s.assign.(v) = 0 && s.activity.(v) > !best_act then begin
      best := v;
      best_act := s.activity.(v)
    end
  done;
  !best

let model s =
  let m = Array.make (s.nvars + 1) false in
  for v = 1 to s.nvars do
    m.(v) <- s.assign.(v) = 1
  done;
  m

(** Solve the current clause set under optional [assumptions]. *)
let solve ?(assumptions = []) (s : t) : result =
  if not s.ok then Unsat
  else begin
    List.iter (fun l -> ensure_var s (abs l)) assumptions;
    cancel_until s 0;
    let assumption_codes = Array.of_list (List.map enc assumptions) in
    let n_assumptions = Array.length assumption_codes in
    let conflicts = ref 0 in
    let restart_limit = ref 100 in
    let result = ref None in
    while !result = None do
      (* cooperative cancellation: lets a dispatcher budget stop this
         solver without abandoning the thread *)
      Deadline.check ();
      match propagate s with
      | Some confl ->
        if decision_level s = 0 then begin
          (* a conflict with no decisions stands whatever happens next:
             without this flag a later [solve] would re-search a state
             whose falsified clause already spent its watches and could
             answer Sat *)
          s.ok <- false;
          result := Some Unsat
        end
        else begin
          incr conflicts;
          let lits, blevel = analyze s confl in
          cancel_until s blevel;
          learn_clause s lits;
          decay_activities s
        end
      | None ->
        if !conflicts >= !restart_limit then begin
          restart_limit := !restart_limit * 2;
          cancel_until s 0
        end
        else begin
          let dl = decision_level s in
          if dl < n_assumptions then begin
            (* apply the next assumption as a decision *)
            let code = assumption_codes.(dl) in
            match value_code s code with
            | 1 -> new_decision_level s (* satisfied: dummy level *)
            | -1 -> result := Some Unsat
            | _ ->
              new_decision_level s;
              enqueue s code None
          end
          else begin
            let v = pick_branch_var s in
            if v = 0 then result := Some (Sat (model s))
            else begin
              new_decision_level s;
              let code = if s.phase.(v) then 2 * v else (2 * v) + 1 in
              enqueue s code None
            end
          end
        end
    done;
    cancel_until s 0;
    match !result with Some r -> r | None -> assert false
  end

(* ------------------------------------------------------------------ *)
(* One-shot interface                                                  *)
(* ------------------------------------------------------------------ *)

(** Solve a clause list from scratch. *)
let solve_clauses ?(assumptions = []) (clauses : int list list) : result =
  let s = create () in
  let ok = List.for_all (fun c -> add_clause s c) clauses in
  if not ok then Unsat else solve ~assumptions s

(** Truth of literal [l] in a model returned by {!solve}. *)
let lit_true (m : bool array) l = if l > 0 then m.(l) else not m.(-l)

let num_learnts s = s.n_learnts
