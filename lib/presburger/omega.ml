(** The Omega test (Pugh 1991): integer feasibility of a conjunction of
    linear equalities and inequalities.

    The paper's BAPA procedure reduces to Presburger arithmetic "based on
    reduction to the Omega decision procedure"; this module is that back
    end.  Structure:

    - equality elimination by the mod-reduction substitution (exact);
    - variable elimination from inequalities by Fourier-Motzkin shadows:
      if the {e dark shadow} is satisfiable the input is satisfiable; if
      the {e real shadow} is unsatisfiable the input is unsatisfiable;
      otherwise the grey area is covered exactly by {e splinters}. *)

type verdict = Sat | Unsat

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Constraints are Linterm.t with implicit "<= 0" (ineqs) or "= 0" (eqs). *)
type system = { eqs : Linterm.t list; ineqs : Linterm.t list }

let of_pform_conj (atoms : Pform.t list) : system option =
  let rec add sys = function
    | [] -> Some sys
    | Pform.Tru :: rest -> add sys rest
    | Pform.Fls :: rest ->
      (* representable as the infeasible constant constraint 1 <= 0 *)
      add { sys with ineqs = Linterm.const 1 :: sys.ineqs } rest
    | Pform.Le t :: rest -> add { sys with ineqs = t :: sys.ineqs } rest
    | Pform.Eq t :: rest -> add { sys with eqs = t :: sys.eqs } rest
    | (Pform.Dvd _ | Pform.Not _ | Pform.And _ | Pform.Or _ | Pform.Ex _
      | Pform.All _) :: _ ->
      None (* out of the quantifier-free conjunctive fragment *)
  in
  add { eqs = []; ineqs = [] } atoms

(* symmetric ("balanced") modulus: a mod^ b in (-b/2, b/2] *)
let bmod a b =
  let m = a - (b * ((a / b) + if a mod b < 0 then -1 else 0)) in
  (* m in [0, b) now; shift to balanced range *)
  if 2 * m > b then m - b else m

exception Infeasible

(* Normalize an equality: divide by gcd; detect trivial (in)feasibility. *)
let norm_eq t =
  let g = Linterm.coeff_gcd t in
  if g = 0 then if Linterm.constant t = 0 then None else raise Infeasible
  else if Linterm.constant t mod g <> 0 then raise Infeasible
  else Some (Linterm.quotient_exact g t)

(* Eliminate one equality from the system, possibly introducing a fresh
   variable (Pugh's mod-elimination).  Returns the substitution applied to
   everything. *)
(* atomic: provers may run concurrently on separate domains *)
let fresh_counter = Atomic.make 0

let fresh_var () =
  Printf.sprintf "_omega%d" (Atomic.fetch_and_add fresh_counter 1 + 1)

let rec eliminate_equalities (sys : system) : system =
  match sys.eqs with
  | [] -> sys
  | e :: rest -> (
    match norm_eq e with
    | None -> eliminate_equalities { sys with eqs = rest }
    | Some e ->
      (* pick the variable with the smallest |coefficient| *)
      let coeffs = Linterm.coeffs e in
      let xk, ck =
        List.fold_left
          (fun (bx, bc) (x, c) -> if abs c < abs bc then (x, c) else (bx, bc))
          (List.hd coeffs) (List.tl coeffs)
      in
      if abs ck = 1 then begin
        (* solve for xk directly: xk = -sign * (rest of e) *)
        let u = Linterm.scale (-ck) (Linterm.drop xk e) in
        let sub t = Linterm.subst xk u t in
        eliminate_equalities
          { eqs = List.map sub rest; ineqs = List.map sub sys.ineqs }
      end
      else begin
        (* Pugh's mod reduction.  Orient the equality so xk's coefficient
           ak is positive; with m = ak + 1 we have ak ≡ -1 (mod m), so the
           balanced-mod congruence of the equality solves for xk:

             xk = -m*sigma + sum_{i<>k} bmod(ai, m)*xi + bmod(c, m)

           Substituting back makes every coefficient of the equality
           divisible by m; gcd normalization then shrinks it, which
           guarantees termination. *)
        let e2 = if ck > 0 then e else Linterm.neg e in
        let ak = abs ck in
        let m = ak + 1 in
        let sigma = fresh_var () in
        let others =
          List.filter_map
            (fun (x, c) -> if x = xk then None else Some (x, bmod c m))
            (Linterm.coeffs e2)
        in
        let subst_term =
          Linterm.of_list
            ((sigma, -m) :: others)
            (bmod (Linterm.constant e2) m)
        in
        let sub t = Linterm.subst xk subst_term t in
        eliminate_equalities
          { eqs = List.map sub (e2 :: rest); ineqs = List.map sub sys.ineqs }
      end)

(* choose the variable to eliminate: fewest (lower x upper) products *)
let pick_variable (ineqs : Linterm.t list) : string option =
  let vars =
    List.sort_uniq compare (List.concat_map Linterm.variables ineqs)
  in
  let cost x =
    let lowers =
      List.length (List.filter (fun t -> Linterm.coeff x t < 0) ineqs)
    in
    let uppers =
      List.length (List.filter (fun t -> Linterm.coeff x t > 0) ineqs)
    in
    (lowers * uppers) - lowers - uppers
  in
  match vars with
  | [] -> None
  | v :: rest ->
    Some
      (List.fold_left (fun best x -> if cost x < cost best then x else best) v rest)

(* Normalize an inequality t <= 0 by the coefficient gcd. *)
let norm_ineq t =
  let g = Linterm.coeff_gcd t in
  if g = 0 then
    if Linterm.constant t <= 0 then None else raise Infeasible
  else Some (Linterm.quotient_ceil g t)

let norm_ineqs ts = List.filter_map norm_ineq ts

(* Does the variable-free system hold?  (After eliminating all variables
   the remaining constraints are constants.) *)

exception Fuel_exhausted

(* canonical key for redundancy elimination *)
let ineq_key (t : Linterm.t) = (Linterm.coeffs t, Linterm.constant t)

let dedupe_ineqs (ts : Linterm.t list) : Linterm.t list =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun t ->
      let k = ineq_key t in
      (* keep only the tightest constant per coefficient vector *)
      match Hashtbl.find_opt seen (fst k) with
      | Some c when c >= snd k -> false
      | _ ->
        Hashtbl.replace seen (fst k) (snd k);
        true)
    (List.sort
       (fun a b -> compare (ineq_key b) (ineq_key a))
       ts)

let max_ineqs = 4000

let rec feasible_ineqs (fuel : int) (ineqs : Linterm.t list) : verdict =
  if fuel <= 0 then raise Fuel_exhausted
  else
    match
      (try Some (dedupe_ineqs (norm_ineqs ineqs)) with Infeasible -> None)
    with
    | None -> Unsat
    | Some ineqs when List.length ineqs > max_ineqs -> raise Fuel_exhausted
    | Some ineqs
      when List.exists
             (fun t ->
               List.exists (fun (_, c) -> abs c > 1_000_000) (Linterm.coeffs t))
             ineqs ->
      raise Fuel_exhausted
    | Some ineqs -> (
      match pick_variable ineqs with
      | None -> Sat (* all constraints were constant and satisfied *)
      | Some x ->
        let lowers =
          List.filter (fun t -> Linterm.coeff x t < 0) ineqs
        in
        let uppers = List.filter (fun t -> Linterm.coeff x t > 0) ineqs in
        let others = List.filter (fun t -> Linterm.coeff x t = 0) ineqs in
        if lowers = [] || uppers = [] then
          (* x unbounded on one side: drop all its constraints *)
          feasible_ineqs (fuel - 1) others
        else begin
          (* real shadow: for lower  b <= a*x  (written -a*x + b' <= 0)
             and upper  c*x <= d:  combine to  c*b' + a*d' <= ... ;
             concretely from  L: -a*x + tb <= 0  (a > 0)
             and          U:  c*x + tc <= 0  (c > 0)
             real shadow:  c*tb + a*tc <= 0
             dark shadow:  c*tb + a*tc <= -( (a-1)*(c-1) ) *)
          let combine dark (l, u) =
            let a = -Linterm.coeff x l in
            let c = Linterm.coeff x u in
            let tb = Linterm.drop x l and tc = Linterm.drop x u in
            let base = Linterm.add (Linterm.scale c tb) (Linterm.scale a tc) in
            if dark then Linterm.add base (Linterm.const ((a - 1) * (c - 1)))
            else base
          in
          if List.length lowers * List.length uppers > max_ineqs then
            raise Fuel_exhausted;
          let pairs =
            List.concat_map (fun l -> List.map (fun u -> (l, u)) uppers) lowers
          in
          let exact =
            List.for_all
              (fun (l, u) ->
                -Linterm.coeff x l = 1 || Linterm.coeff x u = 1)
              pairs
          in
          let real_shadow = List.map (combine false) pairs @ others in
          if exact then feasible_ineqs (fuel - 1) real_shadow
          else begin
            let dark_shadow = List.map (combine true) pairs @ others in
            match feasible_ineqs (fuel - 1) dark_shadow with
            | Sat -> Sat
            | Unsat -> (
              match feasible_ineqs (fuel - 1) real_shadow with
              | Unsat -> Unsat
              | Sat ->
                (* grey area: splinter on the largest lower-bound
                   coefficient: exists i in [0, (a*c - a - c)/c] with
                   a*x = tb + i  for some lower bound *)
                let amax =
                  List.fold_left
                    (fun acc l -> max acc (-Linterm.coeff x l))
                    1 lowers
                in
                let cmax =
                  List.fold_left
                    (fun acc u -> max acc (Linterm.coeff x u))
                    1 uppers
                in
                let bound = ((amax * cmax) - amax - cmax) / cmax in
                if bound > 16 then raise Fuel_exhausted;
                let splinters =
                  List.concat_map
                    (fun l ->
                      let a = -Linterm.coeff x l in
                      let tb = Linterm.drop x l in
                      List.init (bound + 1) (fun i ->
                          (* a*x = tb + i: substitute via equality path *)
                          Linterm.add
                            (Linterm.add (Linterm.var ~coeff:a x) (Linterm.neg tb))
                            (Linterm.const (-i))))
                    lowers
                in
                let any_splinter_sat =
                  List.exists
                    (fun eq ->
                      match
                        check_system (fuel - 1)
                          { eqs = [ eq ]; ineqs }
                      with
                      | Sat -> true
                      | Unsat -> false)
                    splinters
                in
                if any_splinter_sat then Sat else Unsat)
          end
        end)

and check_system fuel (sys : system) : verdict =
  match
    (try Some (eliminate_equalities sys) with Infeasible -> None)
  with
  | None -> Unsat
  | Some sys' -> feasible_ineqs fuel sys'.ineqs

(** Decide integer feasibility of a conjunction of [Le]/[Eq] atoms. *)
let check ?(fuel = 200) (atoms : Pform.t list) : verdict option =
  match of_pform_conj atoms with
  | None -> None (* not in the conjunctive fragment *)
  | Some sys -> (
    match check_system fuel sys with
    | v -> Some v
    | exception Fuel_exhausted -> None)

(** As {!check} but for systems given directly; may raise
    {!Fuel_exhausted}, which callers must treat as "inconclusive". *)
let check_terms ?(fuel = 200) ~(eqs : Linterm.t list)
    ~(ineqs : Linterm.t list) () : verdict =
  check_system fuel { eqs; ineqs }
