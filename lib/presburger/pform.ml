(** Presburger-arithmetic formulas: boolean combinations of linear
    (in)equalities and divisibility constraints over integer variables,
    with quantifiers.  Decided by {!Cooper}; quantifier-free conjunctions
    are also decided by {!Omega}. *)

type t =
  | Tru
  | Fls
  | Le of Linterm.t (* t <= 0 *)
  | Eq of Linterm.t (* t = 0 *)
  | Dvd of int * Linterm.t (* d | t, with d > 0 *)
  | Not of t
  | And of t list
  | Or of t list
  | Ex of string * t
  | All of string * t

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let mk_le t =
  if Linterm.is_const t then if Linterm.constant t <= 0 then Tru else Fls
  else begin
    (* normalize by the gcd of the coefficients *)
    let g = Linterm.coeff_gcd t in
    if g <= 1 then Le t else Le (Linterm.quotient_ceil g t)
  end

let mk_eq t =
  if Linterm.is_const t then if Linterm.constant t = 0 then Tru else Fls
  else begin
    let g = Linterm.coeff_gcd t in
    if g <= 1 then Eq t
    else if Linterm.constant t mod g <> 0 then Fls
    else Eq (Linterm.quotient_exact g t)
  end

let mk_dvd d t =
  let d = abs d in
  if d = 0 then mk_eq t
  else if d = 1 then Tru
  else if Linterm.is_const t then
    if Linterm.constant t mod d = 0 then Tru else Fls
  else Dvd (d, t)

let mk_not = function
  | Tru -> Fls
  | Fls -> Tru
  | Not f -> f
  | f -> Not f

let mk_and fs =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | Tru :: rest -> gather acc rest
    | Fls :: _ -> None
    | And gs :: rest -> gather acc (gs @ rest)
    | f :: rest -> gather (f :: acc) rest
  in
  match gather [] fs with
  | None -> Fls
  | Some [] -> Tru
  | Some [ f ] -> f
  | Some fs -> And fs

let mk_or fs =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | Fls :: rest -> gather acc rest
    | Tru :: _ -> None
    | Or gs :: rest -> gather acc (gs @ rest)
    | f :: rest -> gather (f :: acc) rest
  in
  match gather [] fs with
  | None -> Tru
  | Some [] -> Fls
  | Some [ f ] -> f
  | Some fs -> Or fs

let mk_impl a b = mk_or [ mk_not a; b ]
let mk_ex x f = if f = Tru || f = Fls then f else Ex (x, f)
let mk_all x f = if f = Tru || f = Fls then f else All (x, f)

(* convenience atom builders *)
let t_le a b = mk_le (Linterm.sub a b) (* a <= b *)
let t_lt a b = mk_le (Linterm.add (Linterm.sub a b) (Linterm.const 1))
let t_ge a b = t_le b a
let t_gt a b = t_lt b a
let t_eq a b = mk_eq (Linterm.sub a b)

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

let rec free_vars_acc bound acc f =
  match f with
  | Tru | Fls -> acc
  | Le t | Eq t | Dvd (_, t) ->
    List.fold_left
      (fun acc x -> if List.mem x bound then acc else x :: acc)
      acc (Linterm.variables t)
  | Not g -> free_vars_acc bound acc g
  | And gs | Or gs -> List.fold_left (free_vars_acc bound) acc gs
  | Ex (x, g) | All (x, g) -> free_vars_acc (x :: bound) acc g

let free_vars f = List.sort_uniq compare (free_vars_acc [] [] f)

let rec eval (assignment : (string * int) list) f =
  match f with
  | Tru -> true
  | Fls -> false
  | Le t -> Linterm.eval assignment t <= 0
  | Eq t -> Linterm.eval assignment t = 0
  | Dvd (d, t) -> Linterm.eval assignment t mod d = 0
  | Not g -> not (eval assignment g)
  | And gs -> List.for_all (eval assignment) gs
  | Or gs -> List.exists (eval assignment) gs
  | Ex _ | All _ -> invalid_arg "Pform.eval: quantified formula"

let rec pp ppf f =
  match f with
  | Tru -> Format.pp_print_string ppf "true"
  | Fls -> Format.pp_print_string ppf "false"
  | Le t -> Format.fprintf ppf "%a <= 0" Linterm.pp t
  | Eq t -> Format.fprintf ppf "%a = 0" Linterm.pp t
  | Dvd (d, t) -> Format.fprintf ppf "%d | %a" d Linterm.pp t
  | Not g -> Format.fprintf ppf "~(%a)" pp g
  | And gs ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " & ")
         pp)
      gs
  | Or gs ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " | ")
         pp)
      gs
  | Ex (x, g) -> Format.fprintf ppf "(EX %s. %a)" x pp g
  | All (x, g) -> Format.fprintf ppf "(ALL %s. %a)" x pp g

let to_string f = Format.asprintf "%a" pp f
