(** Differential fuzzing of incremental re-verification.

    Each iteration parses one of a few fully-verifying seed programs,
    applies one random (typed-AST) mutation, then verifies the mutant
    twice: incrementally against the base program's method records, and
    from scratch.  The two runs must agree method for method and
    obligation for obligation — any divergence means the dependency
    tracking either replayed a stale verdict (under-invalidation) or
    re-derived a different one than a cold run would (which a store must
    never do).

    Mutations are chosen to keep the mutant parseable and desugarable;
    they do {e not} have to keep it provable.  An unprovable mutant is a
    perfectly good differential input — both runs must then report the
    same failures. *)

open Javaparser

(* ------------------------------------------------------------------ *)
(* Seed programs                                                       *)
(* ------------------------------------------------------------------ *)

(* a global set container with a two-method client (cross-class
   contract dependencies) *)
let seed_buffer =
  "class Buffer {\n\
   /*: public static ghost specvar items :: objset; */\n\
   public static void clear()\n\
   /*: modifies items ensures \"items = {}\" */\n\
   { //: items := \"{}\";\n\
   }\n\
   public static void put(Object o)\n\
   /*: requires \"o ~: items & o ~= null\" modifies items\n\
   \   ensures \"items = old items Un {o}\" */\n\
   { //: items := \"items Un {o}\";\n\
   }\n\
   public static void take(Object o)\n\
   /*: requires \"o : items\" modifies items\n\
   \   ensures \"items = old items - {o}\" */\n\
   { //: items := \"items - {o}\";\n\
   }\n\
   }\n\
   class BufferClient {\n\
   /*: public static ghost specvar pending :: objset;\n\
   \   invariant \"pending <= Buffer.items\"; */\n\
   public static void submit(Object job)\n\
   /*: requires \"job ~: Buffer.items & job ~= null\"\n\
   \   modifies \"Buffer.items\", pending\n\
   \   ensures \"job : pending\" */\n\
   {\n\
   Buffer.put(job);\n\
   //: pending := \"pending Un {job}\";\n\
   }\n\
   public static void complete(Object job)\n\
   /*: requires \"job : pending\"\n\
   \   modifies \"Buffer.items\", pending\n\
   \   ensures \"job ~: pending\" */\n\
   {\n\
   //: pending := \"pending - {job}\";\n\
   Buffer.take(job);\n\
   }\n\
   }"

(* a cardinality-tracking stack: multiple invariants, BAPA obligations *)
let seed_stack =
  "class Stack {\n\
   private static int count;\n\
   /*: public static ghost specvar items :: objset;\n\
   \   public static ghost specvar size :: int;\n\
   \   invariant \"size = card items\";\n\
   \   invariant \"size >= 0\";\n\
   \   invariant \"count = size\"; */\n\
   public static void init()\n\
   /*: modifies items, size ensures \"items = {} & size = 0\" */\n\
   {\n\
   count = 0;\n\
   //: items := \"{}\";\n\
   //: size := \"0\";\n\
   }\n\
   public static void push(Object o)\n\
   /*: requires \"o ~= null & o ~: items\" modifies items, size\n\
   \   ensures \"items = old items Un {o} & size = old size + 1\" */\n\
   {\n\
   count = count + 1;\n\
   //: items := \"items Un {o}\";\n\
   //: size := \"size + 1\";\n\
   }\n\
   public static boolean isEmpty()\n\
   /*: ensures \"result = (size = 0)\" */\n\
   {\n\
   return count == 0;\n\
   }\n\
   }"

(* a defined (non-ghost) specvar: vardef unfolding inside the class,
   opacity outside it *)
let seed_counter =
  "class Counter {\n\
   private static int c;\n\
   /*: public static specvar nonneg :: bool;\n\
   \   private vardefs \"nonneg == 0 <= c\"; */\n\
   public static void reset()\n\
   /*: modifies nonneg ensures \"nonneg\" */\n\
   { c = 0; }\n\
   public static void bump()\n\
   /*: requires \"nonneg\" modifies nonneg ensures \"nonneg\" */\n\
   { c = c + 1; }\n\
   }\n\
   class CounterClient {\n\
   public static void tick()\n\
   /*: requires \"Counter.nonneg\" modifies \"Counter.nonneg\"\n\
   \   ensures \"Counter.nonneg\" */\n\
   { Counter.bump(); }\n\
   }"

let seeds = [ seed_buffer; seed_stack; seed_counter ]

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

(* a provable throwaway conjunct that [Form.mk_and] will not simplify
   away *)
let tautology () = Logic.Parser.parse "0 <= 0"

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* mutate a random class satisfying [ok], leaving the rest alone;
   [None] when no class qualifies *)
let on_some_class rng (ok : Ast.class_decl -> bool)
    (f : Ast.class_decl -> Ast.class_decl) (prog : Ast.program) :
    Ast.program option =
  match List.filteri (fun _ c -> ok c) prog with
  | [] -> None
  | candidates ->
    let victim = (pick rng candidates).Ast.c_name in
    Some
      (List.map (fun c -> if c.Ast.c_name = victim then f c else c) prog)

let has_bodied_method c =
  List.exists (fun m -> m.Ast.m_body <> None) c.Ast.c_methods

let pick_bodied rng c =
  pick rng (List.filter (fun m -> m.Ast.m_body <> None) c.Ast.c_methods)

(* each mutation returns [None] when it does not apply to the program *)
let mutations :
    (string * (Random.State.t -> Ast.program -> Ast.program option)) list =
  [
    (* the identity: nothing may be re-verified, and the runs must
       still agree *)
    ("noop", fun _ prog -> Some prog);
    ( "dup-method",
      fun rng prog ->
        on_some_class rng has_bodied_method
          (fun c ->
            let m = pick_bodied rng c in
            let copy = { m with Ast.m_name = m.Ast.m_name ^ "Copy" } in
            if Ast.find_method c copy.Ast.m_name <> None then c
            else { c with Ast.c_methods = c.Ast.c_methods @ [ copy ] })
          prog );
    ( "swap-invariants",
      fun rng prog ->
        on_some_class rng
          (fun c -> List.length c.Ast.c_invariants >= 2)
          (fun c ->
            let invs = Array.of_list c.Ast.c_invariants in
            let i = Random.State.int rng (Array.length invs) in
            let j = Random.State.int rng (Array.length invs) in
            let tmp = invs.(i) in
            invs.(i) <- invs.(j);
            invs.(j) <- tmp;
            { c with Ast.c_invariants = Array.to_list invs })
          prog );
    ( "conjoin-requires",
      fun rng prog ->
        on_some_class rng
          (fun c ->
            List.exists
              (fun m -> m.Ast.m_contract.Ast.requires <> None)
              c.Ast.c_methods)
          (fun c ->
            let withreq =
              List.filteri
                (fun _ (m : Ast.method_decl) ->
                  m.Ast.m_contract.Ast.requires <> None)
                c.Ast.c_methods
            in
            let victim = (pick rng withreq).Ast.m_name in
            { c with
              Ast.c_methods =
                List.map
                  (fun m ->
                    if m.Ast.m_name <> victim then m
                    else
                      let ct = m.Ast.m_contract in
                      { m with
                        Ast.m_contract =
                          { ct with
                            Ast.requires =
                              Option.map
                                (fun f ->
                                  Logic.Form.mk_and [ f; tautology () ])
                                ct.Ast.requires } })
                  c.Ast.c_methods })
          prog );
    ( "drop-ensures",
      fun rng prog ->
        on_some_class rng
          (fun c ->
            List.exists
              (fun m ->
                m.Ast.m_body <> None && m.Ast.m_contract.Ast.ensures <> None)
              c.Ast.c_methods)
          (fun c ->
            let cands =
              List.filter
                (fun (m : Ast.method_decl) ->
                  m.Ast.m_body <> None
                  && m.Ast.m_contract.Ast.ensures <> None)
                c.Ast.c_methods
            in
            let victim = (pick rng cands).Ast.m_name in
            { c with
              Ast.c_methods =
                List.map
                  (fun m ->
                    if m.Ast.m_name <> victim then m
                    else
                      { m with
                        Ast.m_contract =
                          { m.Ast.m_contract with Ast.ensures = None } })
                  c.Ast.c_methods })
          prog );
    ( "add-invariant",
      fun rng prog ->
        on_some_class rng has_bodied_method
          (fun c ->
            { c with Ast.c_invariants = c.Ast.c_invariants @ [ tautology () ] })
          prog );
    ( "grow-body",
      fun rng prog ->
        (* duplicate the last statement of a ghost-assignment body —
           semantics may change, provability may be lost; both runs must
           report the same thing *)
        on_some_class rng
          (fun c ->
            List.exists
              (fun m ->
                match m.Ast.m_body with
                | Some (_ :: _ as ss) -> (
                  match List.rev ss with
                  | Ast.Spec (Ast.Ghost_assign _) :: _ -> true
                  | _ -> false)
                | _ -> false)
              c.Ast.c_methods)
          (fun c ->
            let cands =
              List.filter
                (fun (m : Ast.method_decl) ->
                  match m.Ast.m_body with
                  | Some (_ :: _ as ss) -> (
                    match List.rev ss with
                    | Ast.Spec (Ast.Ghost_assign _) :: _ -> true
                    | _ -> false)
                  | _ -> false)
                c.Ast.c_methods
            in
            let victim = (pick rng cands).Ast.m_name in
            { c with
              Ast.c_methods =
                List.map
                  (fun m ->
                    if m.Ast.m_name <> victim then m
                    else
                      match m.Ast.m_body with
                      | Some ss ->
                        let last = List.nth ss (List.length ss - 1) in
                        { m with Ast.m_body = Some (ss @ [ last ]) }
                      | None -> m)
                  c.Ast.c_methods })
          prog );
  ]

(* ------------------------------------------------------------------ *)
(* The differential driver                                             *)
(* ------------------------------------------------------------------ *)

type config = { seed : int; count : int }

type divergence = {
  iteration : int;
  mutation : string;
  detail : string;
}

type report = {
  iterations : int;
  applied : (string * int) list;  (** mutation name -> times applied *)
  divergences : divergence list;
}

(* one method's observable outcome: every obligation's (name, verdict
   kind), order-independent *)
let outcome (m : Jahob_core.Jahob.method_report) : string * (string * string) list
    =
  ( m.Jahob_core.Jahob.method_name,
    List.sort compare
      (List.map
         (fun (r : Dispatch.report) ->
           ( r.Dispatch.sequent.Logic.Sequent.name,
             Logic.Sequent.verdict_kind r.Dispatch.verdict ))
         m.Jahob_core.Jahob.obligations.Dispatch.reports) )

let outcomes (r : Jahob_core.Jahob.program_report) :
    (string * (string * string) list) list =
  List.sort compare (List.map outcome r.Jahob_core.Jahob.methods)

let pp_outcome ppf (name, obs) =
  Format.fprintf ppf "%s:" name;
  List.iter (fun (o, k) -> Format.fprintf ppf " [%s = %s]" o k) obs

let run (cfg : config) : report =
  let rng = Random.State.make [| cfg.seed |] in
  let opts =
    { (Jahob_core.Jahob.default_options ()) with Jahob_core.Jahob.jobs = 1 }
  in
  let engine = Jahob_core.Jahob.create_engine opts in
  Fun.protect ~finally:(fun () -> Jahob_core.Jahob.shutdown_engine engine)
  @@ fun () ->
  let applied = Hashtbl.create 8 in
  let divergences = ref [] in
  let diverge i mutation detail =
    divergences := { iteration = i; mutation; detail } :: !divergences
  in
  for i = 1 to cfg.count do
    let base = Jparser.parse_program (pick rng seeds) in
    let name, mutate = pick rng mutations in
    match mutate rng base with
    | None -> ()
    | Some patched -> (
      Hashtbl.replace applied name
        (1 + Option.value (Hashtbl.find_opt applied name) ~default:0);
      let source = Jahob_core.Jahob.hashtbl_source () in
      match
        let r0 = Jahob_core.Jahob.verify engine ~source base in
        if not r0.Jahob_core.Jahob.ok then
          diverge i name "seed program no longer fully verifies";
        let inc = Jahob_core.Jahob.verify engine ~source patched in
        let scratch = Jahob_core.Jahob.verify engine patched in
        (outcomes inc, outcomes scratch)
      with
      | exception e ->
        diverge i name (Printf.sprintf "exception: %s" (Printexc.to_string e))
      | inc, scratch ->
        if inc <> scratch then
          diverge i name
            (Format.asprintf
               "incremental and from-scratch disagree@.  incremental: %a@.  \
                from-scratch: %a"
               (Format.pp_print_list pp_outcome)
               inc
               (Format.pp_print_list pp_outcome)
               scratch))
  done;
  { iterations = cfg.count;
    applied =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) applied []);
    divergences = List.rev !divergences }

let pp_report ppf (r : report) : unit =
  Format.fprintf ppf "incremental differential: %d iterations (" r.iterations;
  List.iteri
    (fun i (name, n) ->
      Format.fprintf ppf "%s%s %d" (if i > 0 then ", " else "") name n)
    r.applied;
  Format.fprintf ppf ")@.";
  if r.divergences = [] then Format.fprintf ppf "no divergences@."
  else
    List.iter
      (fun d ->
        Format.fprintf ppf "DIVERGENCE at iteration %d (%s): %s@." d.iteration
          d.mutation d.detail)
      r.divergences
