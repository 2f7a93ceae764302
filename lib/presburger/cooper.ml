(** Cooper's quantifier-elimination procedure for Presburger arithmetic.

    Decides full first-order linear integer arithmetic, the back end the
    paper uses (via the Omega test) for the BAPA decision procedure [43].
    We implement the textbook lower-bound ("B-set") variant:

    {v
      EX x. F(x)   <=>   \/_{j=1..delta} F_{-inf}[x := j]
                       \/ \/_{b in B} \/_{j=0..delta-1} F[x := b + j]
    v}

    after normalizing every occurrence of [x] to coefficient +-1. *)

open Pform

(** Raised when elimination exceeds the caller-supplied work cap: the
    B-set expansion makes [delta * (|B| + 1)] copies of the formula per
    eliminated variable, which is super-exponential in the worst case. *)
exception Fuel_exhausted

let rec gcd_int a b = if b = 0 then abs a else gcd_int b (a mod b)
let lcm a b = if a = 0 || b = 0 then 0 else abs (a / gcd_int a b * b)

let rec size f =
  match f with
  | Tru | Fls | Le _ | Eq _ | Dvd _ -> 1
  | Not g -> 1 + size g
  | And fs | Or fs -> List.fold_left (fun n g -> n + size g) 1 fs
  | Ex (_, g) | All (_, g) -> 1 + size g

(* NNF that keeps negation only on Dvd atoms; Le and Eq negations are
   expressed arithmetically. *)
let rec nnf f =
  match f with
  | Tru | Fls | Le _ | Eq _ | Dvd _ -> f
  | And fs -> mk_and (List.map nnf fs)
  | Or fs -> mk_or (List.map nnf fs)
  | Ex (x, g) -> Ex (x, nnf g)
  | All (x, g) -> All (x, nnf g)
  | Not g -> nnf_neg g

and nnf_neg f =
  match f with
  | Tru -> Fls
  | Fls -> Tru
  | Le t ->
    (* ~(t <= 0) <=> -t + 1 <= 0 *)
    mk_le (Linterm.add (Linterm.neg t) (Linterm.const 1))
  | Eq t ->
    (* ~(t = 0) <=> t <= -1 \/ -t <= -1 *)
    mk_or
      [ mk_le (Linterm.add t (Linterm.const 1));
        mk_le (Linterm.add (Linterm.neg t) (Linterm.const 1));
      ]
  | Dvd _ -> Not f
  | Not g -> nnf g
  | And fs -> mk_or (List.map nnf_neg fs)
  | Or fs -> mk_and (List.map nnf_neg fs)
  | Ex (x, g) -> All (x, nnf_neg g)
  | All (x, g) -> Ex (x, nnf_neg g)

(* Equalities are split so that only Le/Dvd atoms mention the eliminated
   variable; applied to NNF formulas. *)
let rec split_eq x f =
  match f with
  | Eq t when Linterm.mem x t ->
    mk_and [ mk_le t; mk_le (Linterm.neg t) ]
  | Not (Dvd _) | Dvd _ | Le _ | Eq _ | Tru | Fls -> f
  | Not g -> mk_not (split_eq x g)
  | And fs -> mk_and (List.map (split_eq x) fs)
  | Or fs -> mk_or (List.map (split_eq x) fs)
  | Ex (y, g) -> Ex (y, split_eq x g)
  | All (y, g) -> All (y, split_eq x g)

(* lcm of the absolute coefficients of x over all atoms *)
let rec coeff_lcm x f =
  match f with
  | Le t | Eq t | Dvd (_, t) ->
    let c = Linterm.coeff x t in
    if c = 0 then 1 else abs c
  | Not g -> coeff_lcm x g
  | And fs | Or fs -> List.fold_left (fun l g -> lcm l (coeff_lcm x g)) 1 fs
  | Tru | Fls -> 1
  | Ex _ | All _ -> invalid_arg "Cooper: nested quantifier during elimination"

(* Normalize coefficient of x to +-1 by scaling each atom up to l; the
   result is phrased in a *new* unit variable standing for l*x.  Because we
   then conjoin Dvd(l, x'), the transformation preserves satisfiability. *)
let rec normalize x l f =
  match f with
  | Le t ->
    let c = Linterm.coeff x t in
    if c = 0 then f
    else begin
      let m = l / abs c in
      let t' = Linterm.scale m t in
      (* replace coefficient +-l by +-1 *)
      let sign = if c > 0 then 1 else -1 in
      Le (Linterm.add (Linterm.var ~coeff:sign x) (Linterm.drop x t'))
    end
  | Dvd (d, t) ->
    let c = Linterm.coeff x t in
    if c = 0 then f
    else begin
      let m = l / abs c in
      let t' = Linterm.scale m t in
      let sign = if c > 0 then 1 else -1 in
      Dvd (m * d, Linterm.add (Linterm.var ~coeff:sign x) (Linterm.drop x t'))
    end
  | Not g -> mk_not (normalize x l g)
  | And fs -> mk_and (List.map (normalize x l) fs)
  | Or fs -> mk_or (List.map (normalize x l) fs)
  | Tru | Fls | Eq _ -> f
  | Ex _ | All _ -> invalid_arg "Cooper: nested quantifier during elimination"

(* divisors appearing in Dvd atoms mentioning x *)
let rec divisor_lcm x f =
  match f with
  | Dvd (d, t) -> if Linterm.mem x t then d else 1
  | Not g -> divisor_lcm x g
  | And fs | Or fs -> List.fold_left (fun l g -> lcm l (divisor_lcm x g)) 1 fs
  | Le _ | Eq _ | Tru | Fls -> 1
  | Ex _ | All _ -> invalid_arg "Cooper: nested quantifier during elimination"

(* lower-bound terms: atoms  -x + r <= 0  give  x >= r,  so B contains r *)
let rec lower_bounds x f =
  match f with
  | Le t when Linterm.coeff x t = -1 -> [ Linterm.drop x t ]
  | Le _ | Eq _ | Dvd _ | Tru | Fls -> []
  | Not g -> lower_bounds x g
  | And fs | Or fs -> List.concat_map (lower_bounds x) fs
  | Ex _ | All _ -> invalid_arg "Cooper: nested quantifier during elimination"

(* F_{-inf}: drop bound atoms for x -> -infinity *)
let rec minus_inf x f =
  match f with
  | Le t when Linterm.coeff x t = 1 -> Tru (* x + r <= 0 holds eventually *)
  | Le t when Linterm.coeff x t = -1 -> Fls (* -x + r <= 0 fails eventually *)
  | Le _ | Eq _ | Dvd _ | Tru | Fls -> f
  | Not g -> mk_not (minus_inf x g)
  | And fs -> mk_and (List.map (minus_inf x) fs)
  | Or fs -> mk_or (List.map (minus_inf x) fs)
  | Ex _ | All _ -> invalid_arg "Cooper: nested quantifier during elimination"

(* substitute x := u (with x having coefficient +-1 everywhere), counting
   every node it builds in [work] and raising {!Fuel_exhausted} once that
   passes [cap].  A conjunction stops at its first false conjunct and a
   disjunction at its first true disjunct: the smart constructors would
   absorb the rest *)
let rec subst_var ~cap work x (u : Linterm.t) f =
  incr work;
  if !work > cap then raise Fuel_exhausted;
  match f with
  | Le t -> mk_le (Linterm.subst x u t)
  | Eq t -> mk_eq (Linterm.subst x u t)
  | Dvd (d, t) -> mk_dvd d (Linterm.subst x u t)
  | Not g -> mk_not (subst_var ~cap work x u g)
  | And fs -> mk_and (subst_until ~cap work x u Fls fs)
  | Or fs -> mk_or (subst_until ~cap work x u Tru fs)
  | Tru | Fls -> f
  | Ex _ | All _ -> invalid_arg "Cooper: nested quantifier during elimination"

(* the substituted [fs], cut short at the first one equal to [absorbing] *)
and subst_until ~cap work x u absorbing fs =
  match fs with
  | [] -> []
  | g :: rest ->
    let g = subst_var ~cap work x u g in
    if g = absorbing then [ g ] else g :: subst_until ~cap work x u absorbing rest

(** Eliminate [EX x] from quantifier-free [f].  [cap] bounds the work:
    the nodes of the copies of [f] the expansion builds, counted as each
    is built, before simplification; passing it raises {!Fuel_exhausted}.
    Each copy also polls the deadline first, so an uncapped elimination
    still stops at its budget. *)
let eliminate ?(cap = max_int) x f =
  let f = split_eq x (nnf f) in
  if not (List.mem x (free_vars f)) then f
  else begin
    let l = coeff_lcm x f in
    let f = normalize x l f in
    let f = if l = 1 then f else mk_and [ f; Dvd (l, Linterm.var x) ] in
    let delta = max 1 (divisor_lcm x f) in
    let f_inf = minus_inf x f in
    let bs = lower_bounds x f in
    let work = ref 0 in
    let copy g u =
      Deadline.check ();
      subst_var ~cap work x u g
    in
    let inf_cases =
      List.init delta (fun j -> copy f_inf (Linterm.const (j + 1)))
    in
    let bound_cases =
      List.concat_map
        (fun b ->
          List.init delta (fun j -> copy f (Linterm.add b (Linterm.const j))))
        bs
    in
    mk_or (inf_cases @ bound_cases)
  end

(** Full quantifier elimination, innermost first.  [cap] is a work bound:
    any single elimination whose copies have more nodes, and any
    intermediate result larger than it, raises {!Fuel_exhausted}.  The
    default ([max_int]) never gives up. *)
let rec qelim ?(cap = max_int) f =
  (* polled beside the Fuel_exhausted size cap: the cap bounds the output
     of one elimination, the deadline bounds the whole traversal *)
  Deadline.check ();
  let guard g =
    if cap <> max_int && size g > cap then raise Fuel_exhausted;
    g
  in
  match f with
  | Tru | Fls | Le _ | Eq _ | Dvd _ -> f
  | Not g -> mk_not (qelim ~cap g)
  | And fs -> mk_and (List.map (qelim ~cap) fs)
  | Or fs -> mk_or (List.map (qelim ~cap) fs)
  | Ex (x, g) -> guard (eliminate ~cap x (qelim ~cap g))
  | All (x, g) -> guard (mk_not (eliminate ~cap x (nnf (mk_not (qelim ~cap g)))))

(** Decide a closed formula. *)
let decide ?cap f =
  let g = qelim ?cap f in
  match free_vars g with
  | [] -> eval [] g
  | _ :: _ -> invalid_arg "Cooper.decide: formula is not closed"

(** Satisfiability with free variables interpreted existentially. *)
let satisfiable ?cap f =
  let closed = List.fold_left (fun g x -> mk_ex x g) f (free_vars f) in
  decide ?cap closed

(** Validity with free variables interpreted universally. *)
let valid ?cap f = not (satisfiable ?cap (mk_not f))
