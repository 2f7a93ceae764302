(** Proof obligations and the common decision-procedure interface.

    Every reasoner in the portfolio — SMT, MONA, BAPA, the first-order
    prover — consumes a {!type:t} and produces a {!type:verdict}.  Provers
    must never guess: [Valid] claims a proof, [Invalid] claims a genuine
    countermodel, anything else is [Unknown] (the dispatcher then tries the
    next prover, mirroring the paper's multi-prover architecture). *)

type t = {
  name : string; (** where the obligation came from, e.g. "List.add: post" *)
  hyps : Form.t list;
  goal : Form.t;
}

type verdict =
  | Valid
  | Invalid of string (** description of a countermodel *)
  | Unknown of string (** why the prover gave up *)

type prover = {
  prover_name : string;
  prove : t -> verdict;
}

exception Resource_limited of string

let make ?(name = "goal") hyps goal = { name; hyps; goal }

(** The sequent as a single implication formula. *)
let to_form (s : t) : Form.t = Form.mk_impl_chain s.hyps s.goal

(** Conversely: split an implication chain into a sequent. *)
let of_form ?(name = "goal") (f : Form.t) : t =
  let hyps, goal = Form.hypotheses_and_goal f in
  { name; hyps; goal }

(* ------------------------------------------------------------------ *)
(* Canonicalization and digests (verdict-cache keys)                   *)
(* ------------------------------------------------------------------ *)

(* --- fresh-constant normalization -------------------------------- *)

(* [Form.fresh_name] mints [base__N] from a process-global counter that
   is never reset, so re-generating the same obligation later in the
   same process (a daemon re-verifying a file, Houdini re-seeding a
   loop) yields the same sequent up to the counter offset — and a
   different digest, defeating the verdict cache exactly where a
   resident server needs it.  Validity and refutability of a sequent
   are invariant under injective renaming of its free variables (models
   transport along the renaming), so the canonical form may renumber
   fresh constants: each [base__N] becomes [base__k] with [k] assigned
   per base in order of first occurrence (hypotheses in given order,
   then the goal).  The mapping is injective — same base never shares a
   [k], distinct bases never collide — and its image stays inside the
   reserved [__] namespace no parser produces, so it cannot capture a
   source-level identifier. *)

(* [base] of a fresh-style name: everything before a final "__digits";
   None for every name the renaming must not touch *)
let fresh_base (n : string) : string option =
  let len = String.length n in
  let is_digit c = c >= '0' && c <= '9' in
  let rec all_digits i = i >= len || (is_digit n.[i] && all_digits (i + 1)) in
  let rec find j =
    (* j = index of the first '_' of a candidate "__" *)
    if j < 1 then None
    else if
      n.[j] = '_' && n.[j - 1] = '_' && j + 1 < len && all_digits (j + 1)
    then Some (String.sub n 0 (j - 1))
    else find (j - 1)
  in
  find (len - 2)

(* the renaming map over every fresh-style free variable of the sequent,
   in first-occurrence order; empty for fresh-free sequents *)
let fresh_renaming (s : t) : Form.t Form.Smap.t =
  let map = ref Form.Smap.empty in
  let next : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let visit x =
    if not (Form.Smap.mem x !map) then
      match fresh_base x with
      | None -> ()
      | Some base ->
        let k = (Option.value (Hashtbl.find_opt next base) ~default:0) + 1 in
        Hashtbl.replace next base k;
        let x' = Printf.sprintf "%s__%d" base k in
        map := Form.Smap.add x (Form.Var x') !map
  in
  let rec go (f : Form.t) =
    match f with
    | Form.Var x -> visit x
    | Form.Const _ -> ()
    | Form.App (g, args) ->
      go g;
      List.iter go args
    | Form.Binder (_, _, body) -> go body
    | Form.TypedForm (g, _) -> go g
  in
  List.iter go s.hyps;
  go s.goal;
  (* identity entries would defeat [subst]'s sharing shortcuts *)
  Form.Smap.filter
    (fun x f -> match f with Form.Var y -> not (String.equal x y) | _ -> true)
    !map

(* The canonical hypotheses, each paired with its canonical printing
   (sorted and deduplicated by that printing), and the canonical goal.
   [canonicalize] keeps the trees; [digest] reuses the printings. *)
let canonical_parts (s : t) : (string * Form.t) list * Form.t =
  let ren = fresh_renaming s in
  let rename f = if Form.Smap.is_empty ren then f else Form.subst ren f in
  let keyed =
    List.map
      (fun h ->
        let h = Form.alpha_normalize ~keep_types:true (rename h) in
        (Pprint.to_canonical_string h, h))
      s.hyps
  in
  ( List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) keyed,
    Form.alpha_normalize ~keep_types:true (rename s.goal) )

(** Canonical form for caching: fresh constants ([base__N], minted by
    {!Form.fresh_name}) are renumbered by first occurrence, every
    hypothesis and the goal are alpha-normalized (bound variables renamed
    by binding depth, sorts and type annotations preserved), then the
    hypotheses are sorted and deduplicated by their canonical printing.
    Two sequents that differ only in hypothesis order, bound-variable
    names or the fresh-counter offset canonicalize identically. *)
let canonicalize (s : t) : t =
  let keyed, goal = canonical_parts s in
  { s with hyps = List.map snd keyed; goal }

(* Per-domain scratch space for [digest]: the goal's printing and the
   assembled text are written into buffers that keep their capacity
   across calls, so a digest allocates no doubling buffer and no
   concatenated copy (large strings go straight to the major heap).
   Systhreads share their domain's scratch — a budgeted prover runs on a
   helper thread — so [busy] hands the scratch to one caller at a time
   and any other caller allocates its own. *)
type scratch = {
  busy : bool Atomic.t;
  goal_buf : Buffer.t;
  mutable text : Bytes.t;
}

let new_scratch () =
  { busy = Atomic.make false; goal_buf = Buffer.create 256;
    text = Bytes.create 1024 }

let scratch_key : scratch Domain.DLS.key = Domain.DLS.new_key new_scratch

let with_scratch (f : scratch -> 'a) : 'a =
  let sc = Domain.DLS.get scratch_key in
  if Atomic.compare_and_set sc.busy false true then
    match f sc with
    | r ->
      Atomic.set sc.busy false;
      r
    | exception e ->
      Atomic.set sc.busy false;
      raise e
  else f (new_scratch ())

(** A stable key for the canonicalized sequent: the MD5 digest of its
    {e canonical} printing ({!Pprint.to_canonical_string} — the surface
    printer is ambiguous between integer and set operators, so keying on
    it could return a cached verdict for the wrong obligation): each
    hypothesis followed by a newline, then ["|-"] and the goal.  [name]
    does not participate — obligations regenerated under different labels
    still collide, which is the point. *)
let digest (s : t) : string =
  let keyed, goal = canonical_parts s in
  with_scratch (fun sc ->
      Buffer.clear sc.goal_buf;
      Pprint.canonical sc.goal_buf goal;
      let len =
        List.fold_left
          (fun n (h, _) -> n + String.length h + 1)
          (2 + Buffer.length sc.goal_buf)
          keyed
      in
      if Bytes.length sc.text < len then
        sc.text <- Bytes.create (max len (2 * Bytes.length sc.text));
      let pos =
        List.fold_left
          (fun pos (h, _) ->
            let n = String.length h in
            Bytes.blit_string h 0 sc.text pos n;
            Bytes.set sc.text (pos + n) '\n';
            pos + n + 1)
          0 keyed
      in
      Bytes.blit_string "|-" 0 sc.text pos 2;
      Buffer.blit sc.goal_buf 0 sc.text (pos + 2) (Buffer.length sc.goal_buf);
      Digest.to_hex (Digest.subbytes sc.text 0 len))

(** The sequent's refutation form, [simplify (hyps /\ ~goal)] — what the
    refutation-based front ends (smt, bapa, fol) actually translate. *)
let refutand (s : t) : Form.t =
  Simplify.simplify (Form.mk_and (s.hyps @ [ Form.mk_not s.goal ]))

let pp ppf (s : t) =
  Format.fprintf ppf "@[<v>%a@]"
    (fun ppf () ->
      List.iter (fun h -> Format.fprintf ppf "%a@," Pprint.pp h) s.hyps;
      Format.fprintf ppf "|- %a" Pprint.pp s.goal)
    ()

let verdict_to_string = function
  | Valid -> "valid"
  | Invalid m -> "invalid (" ^ m ^ ")"
  | Unknown m -> "unknown (" ^ m ^ ")"

(** Just the constructor tag, for trace attribution and stats keys. *)
let verdict_kind = function
  | Valid -> "valid"
  | Invalid _ -> "invalid"
  | Unknown _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

(** Wrap a prover so that every [prove] call becomes a trace span
    (category ["prover"], name = the prover's name) carrying the query
    size on entry and the verdict on exit.  Costs one atomic load per
    call while tracing is disabled. *)
let traced_prover (p : prover) : prover =
  { p with
    prove =
      (fun s ->
        if not (Trace.enabled ()) then p.prove s
        else begin
          let sp =
            Trace.start_span ~cat:"prover"
              ~args:(fun () ->
                [ ("size", Trace.I (Form.size (to_form s)));
                  ("hyps", Trace.I (List.length s.hyps)) ])
              p.prover_name
          in
          match p.prove s with
          | v ->
            Trace.finish_span
              ~args:(fun () -> [ ("verdict", Trace.S (verdict_kind v)) ])
              sp;
            v
          | exception (Resource_limited why as e) ->
            Trace.finish_span
              ~args:(fun () ->
                [ ("verdict", Trace.S "unknown"); ("limited", Trace.S why) ])
              sp;
            raise e
          | exception e ->
            Trace.finish_span
              ~args:(fun () -> [ ("raised", Trace.S (Printexc.to_string e)) ])
              sp;
            raise e
        end) }
