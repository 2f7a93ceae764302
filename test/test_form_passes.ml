(** Properties of the structural formula passes that verdict caching and
    the provers rely on: free variables and size agree with reference
    models, alpha-normalization and alpha-equivalence agree with each
    other, canonical printing is injective and independent of physical
    sharing, sequent digests ignore hypothesis order, duplicates,
    bound-variable names and labels and keep the bytes of the original
    two-pass digest, substitution only depends on the
    bindings of free variables, simplification is deterministic up to
    alpha-renaming, and all of it gives the same answers when several
    domains run it at once.  Formulas come from the fuzzer's typed
    generators, over all five prover fragments.

    The group and test names are those of the suite that checked the
    former hash-consed kernel against these same plain passes, so a
    property keeps its name across that change. *)

open Logic
module Formgen = Fuzz.Formgen
module G = QCheck.Gen

let pp_form f = Format.asprintf "%a" Pprint.pp f

let arb_form frag =
  QCheck.make ~print:pp_form (Formgen.gen_formula frag ~fuel:3)

let arb_form_pair frag =
  QCheck.make
    ~print:(fun (a, b) -> pp_form a ^ " / " ^ pp_form b)
    (G.pair (Formgen.gen_formula frag ~fuel:3) (Formgen.gen_formula frag ~fuel:3))

let arb_sequent frag =
  QCheck.make
    ~print:(fun s -> Format.asprintf "%a" Sequent.pp s)
    (Formgen.gen_sequent frag ~size:3)

let count = 150

(* a structurally identical tree with no physical sharing with [f] *)
let rec rebuild (f : Form.t) : Form.t =
  match f with
  | Form.Var x -> Form.Var x
  | Form.Const c -> Form.Const c
  | Form.App (g, args) -> Form.App (rebuild g, List.map rebuild args)
  | Form.Binder (b, vars, body) -> Form.Binder (b, List.map (fun v -> v) vars, rebuild body)
  | Form.TypedForm (g, ty) -> Form.TypedForm (rebuild g, ty)

(* an alpha-equivalent copy: every bound variable [x] becomes [x'];
   the generators never produce a name containing a quote, so no
   renamed binder can capture a free variable *)
let rename_bound (f : Form.t) : Form.t =
  let rec go env (f : Form.t) =
    match f with
    | Form.Var x -> (
      match List.assoc_opt x env with Some y -> Form.Var y | None -> f)
    | Form.Const _ -> f
    | Form.App (g, args) -> Form.App (go env g, List.map (go env) args)
    | Form.Binder (b, vars, body) ->
      let env = List.map (fun (x, _) -> (x, x ^ "'")) vars @ env in
      Form.Binder (b, List.map (fun (x, ty) -> (x ^ "'", ty)) vars, go env body)
    | Form.TypedForm (g, ty) -> Form.TypedForm (go env g, ty)
  in
  go [] f

(* an alpha-equivalent copy in which each binder reuses the name [v]
   unless that would capture, so nested binders shadow one another *)
let rename_shadowing (f : Form.t) : Form.t =
  let fresh = ref 0 in
  let rec go env (f : Form.t) =
    match f with
    | Form.Var x -> (
      match Form.Smap.find_opt x env with Some y -> Form.Var y | None -> f)
    | Form.Const _ -> f
    | Form.App (g, args) -> Form.App (go env g, List.map (go env) args)
    | Form.TypedForm (g, ty) -> Form.TypedForm (go env g, ty)
    | Form.Binder (b, vars, body) ->
      (* the names the body refers to outside this binder, as renamed *)
      let needed =
        Form.Sset.fold
          (fun x acc ->
            if List.mem_assoc x vars then acc
            else
              Form.Sset.add
                (Option.value ~default:x (Form.Smap.find_opt x env))
                acc)
          (Form.fv body) Form.Sset.empty
      in
      let v_free = ref (not (Form.Sset.mem "v" needed)) in
      let env, vars =
        List.fold_left_map
          (fun env (x, ty) ->
            let y =
              if !v_free then (
                v_free := false;
                "v")
              else (
                incr fresh;
                Printf.sprintf "w%d" !fresh)
            in
            (Form.Smap.add x y env, (y, ty)))
          env vars
      in
      Form.Binder (b, vars, go env body)
  in
  go Form.Smap.empty f

(* a copy with a type annotation around every node *)
let rec annotate (f : Form.t) : Form.t =
  let ty = Ftype.Tvar 0 in
  match f with
  | Form.Var _ | Form.Const _ -> Form.TypedForm (f, ty)
  | Form.App (g, args) ->
    Form.TypedForm (Form.App (annotate g, List.map annotate args), ty)
  | Form.Binder (b, vars, body) ->
    Form.TypedForm (Form.Binder (b, vars, annotate body), ty)
  | Form.TypedForm (g, t) -> Form.TypedForm (annotate g, t)

(* reference models of [Form.fv] and [Form.size], written out directly *)
let rec ref_fv bound (f : Form.t) : string list =
  match f with
  | Form.Var x -> if List.mem x bound then [] else [ x ]
  | Form.Const _ -> []
  | Form.App (g, args) -> ref_fv bound g @ List.concat_map (ref_fv bound) args
  | Form.Binder (_, vars, body) -> ref_fv (List.map fst vars @ bound) body
  | Form.TypedForm (g, _) -> ref_fv bound g

let rec ref_size (f : Form.t) : int =
  match f with
  | Form.Var _ | Form.Const _ -> 1
  | Form.App (g, args) ->
    List.fold_left (fun n a -> n + ref_size a) (1 + ref_size g) args
  | Form.Binder (_, _, body) -> 1 + ref_size body
  | Form.TypedForm (g, _) -> 1 + ref_size g

let for_all_fragments mk = List.map mk Formgen.all_fragments

(* ------------------------------------------------------------------ *)
(* Canonical printing identifies exactly the equal trees               *)
(* ------------------------------------------------------------------ *)

let prop_canonical_injective frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": equal tags iff equal trees")
    ~count (arb_form_pair frag)
    (fun (a, b) ->
      String.equal (Pprint.to_canonical_string a) (Pprint.to_canonical_string b)
      = (a = b))

let prop_rebuild frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": a rebuilt copy interns to the same node")
    ~count (arb_form frag)
    (fun f ->
      let g = rebuild f in
      String.equal (Pprint.to_canonical_string f) (Pprint.to_canonical_string g)
      && String.equal
           (Sequent.digest (Sequent.make [] f))
           (Sequent.digest (Sequent.make [] g)))

(* ------------------------------------------------------------------ *)
(* The passes agree with their reference models                        *)
(* ------------------------------------------------------------------ *)

let prop_fv frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized free variables = plain")
    ~count (arb_form frag)
    (fun f ->
      let fv = Form.fv f in
      Form.Sset.equal fv (Form.Sset.of_list (ref_fv [] f))
      && Form.Sset.equal fv (Form.fv (Form.alpha_normalize f))
      && Form.Sset.equal fv (Form.fv (rename_bound f)))

let prop_size frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized size = plain")
    ~count (arb_form frag)
    (fun f ->
      Form.size f = ref_size f
      && Form.size (Form.alpha_normalize ~keep_types:true f) = Form.size f)

let prop_alpha frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized alpha-normalization = plain")
    ~count (arb_form frag)
    (fun f ->
      let n = Form.alpha_normalize ~keep_types:true f in
      Form.alpha_normalize ~keep_types:true n = n
      && Form.alpha_normalize ~keep_types:true (rename_bound f) = n
      && Form.equal f n
      && Form.alpha_normalize (Form.alpha_normalize f) = Form.alpha_normalize f)

let prop_canonical frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized canonical printing = plain")
    ~count (arb_form frag)
    (fun f ->
      let canon g =
        Pprint.to_canonical_string (Form.alpha_normalize ~keep_types:true g)
      in
      String.equal (canon f) (canon (rename_bound f))
      && String.equal (canon f) (canon (rebuild f)))

let prop_digest frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized sequent digest = plain")
    ~count:60 (arb_sequent frag)
    (fun s ->
      let variant =
        Sequent.make ~name:"renamed"
          (List.rev_map rename_bound s.Sequent.hyps @ s.Sequent.hyps)
          (rename_bound s.Sequent.goal)
      in
      String.equal (Sequent.digest s) (Sequent.digest variant))

(* the digest as it was first written: the whole canonical text built in
   a growing buffer, hashed in one piece *)
let reference_digest (s : Sequent.t) : string =
  let c = Sequent.canonicalize s in
  let buf = Buffer.create 256 in
  List.iter
    (fun h ->
      Buffer.add_string buf (Pprint.to_canonical_string h);
      Buffer.add_char buf '\n')
    c.Sequent.hyps;
  Buffer.add_string buf "|-";
  Buffer.add_string buf (Pprint.to_canonical_string c.Sequent.goal);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let prop_digest_bytes frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": digest bytes = two-pass reference")
    ~count:60 (arb_sequent frag)
    (fun s -> String.equal (Sequent.digest s) (reference_digest s))

(* beta reduction mints fresh binder names, so two simplify runs agree
   only up to alpha-renaming — which is what [Form.equal] checks *)
let prop_simplify frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": memoized simplify ~ plain (alpha)")
    ~count (arb_form frag)
    (fun f ->
      let s = Simplify.simplify f in
      Form.equal s (Simplify.simplify (rebuild f))
      && Form.Sset.subset (Form.fv s) (Form.fv f))

let prop_subst frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": pruning substitution = plain")
    ~count (arb_form frag)
    (fun f ->
      (* bindings of variables absent from [f] change nothing: the map
         pruned to [fv f] gives the same tree, and a map of only absent
         variables hands [f] back physically *)
      let fv = Form.fv f in
      let pruned =
        Form.Sset.fold
          (fun x m -> Form.Smap.add x (Form.Var ("r_" ^ x)) m)
          fv Form.Smap.empty
      in
      let absent = Form.Smap.singleton "absent_from_f" (Form.Var "r") in
      let full = Form.Smap.union (fun _ a _ -> Some a) pruned absent in
      Form.subst full f = Form.subst pruned f
      && Form.subst absent f == f)

let prop_equal frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": kernel alpha-equivalence = plain")
    ~count (arb_form_pair frag)
    (fun (a, b) ->
      Form.equal a b = (Form.alpha_normalize a = Form.alpha_normalize b)
      && Form.equal a (Form.alpha_normalize a)
      && Form.equal a (rename_bound a))

(* the generators bind q0 outside q1: rebinding both around a formula
   makes its own quantifiers shadow them *)
let prop_hash frag =
  QCheck.Test.make
    ~name:(Formgen.fragment_name frag ^ ": Form.hash agrees with Form.equal")
    ~count (arb_form frag)
    (fun f ->
      let f =
        Form.mk_forall [ ("q1", Ftype.Obj) ]
          (Form.mk_forall [ ("q0", Ftype.Obj) ] f)
      in
      List.for_all
        (fun g -> Form.equal f g && Form.equal g f && Form.hash f = Form.hash g)
        [ rename_bound f; rename_shadowing f; Form.alpha_normalize f;
          annotate f; annotate (rename_shadowing f) ])

(* ------------------------------------------------------------------ *)
(* Concurrent use                                                      *)
(* ------------------------------------------------------------------ *)

(* Four domains run the passes over rebuilt (unshared) copies of the same
   formulas; every domain must get the answers the main domain computes,
   so none of the passes keeps process-wide mutable state that domains
   could race on. *)
let stress_domains () =
  let forms =
    List.concat_map
      (fun frag ->
        List.init 25 (fun n ->
            Sequent.to_form
              (Formgen.sequent_of_seed frag ~seed:42 ~size:3 n)))
      Formgen.all_fragments
  in
  let passes f =
    ( Pprint.to_canonical_string (Form.alpha_normalize ~keep_types:true f),
      Form.Sset.cardinal (Form.fv f),
      Form.size f )
  in
  let work () = List.map (fun f -> passes (rebuild f)) forms in
  let domains = List.init 4 (fun _ -> Domain.spawn work) in
  let results = List.map Domain.join domains in
  let reference = List.map passes forms in
  List.iter
    (fun r ->
      Alcotest.(check int) "one answer per formula" (List.length forms)
        (List.length r);
      List.iter2
        (fun (canon, nfv, sz) (canon', nfv', sz') ->
          Alcotest.(check string) "same canonical printing" canon' canon;
          Alcotest.(check int) "free-variable count" nfv' nfv;
          Alcotest.(check int) "size" sz' sz)
        r reference)
    results

(* Two systhreads of one domain share its digest scratch space (an
   embedder may run several); each must still get the
   reference bytes, including for sequents large enough to grow it. *)
let stress_digest_threads () =
  let sequents =
    List.concat_map
      (fun frag ->
        List.init 25 (fun n -> Formgen.sequent_of_seed frag ~seed:7 ~size:3 n))
      Formgen.all_fragments
  in
  (* every goal appended as hypotheses: large enough to grow the scratch *)
  let goals = List.map (fun (t : Sequent.t) -> t.Sequent.goal) sequents in
  let big =
    List.filteri (fun i _ -> i < 3) sequents
    |> List.map (fun (s : Sequent.t) ->
           { s with Sequent.hyps = s.Sequent.hyps @ goals })
  in
  let all = sequents @ big in
  let reference = List.map reference_digest all in
  let mismatches = Atomic.make 0 in
  let work () =
    for _ = 1 to 20 do
      List.iter2
        (fun s r ->
          if not (String.equal (Sequent.digest s) r) then
            Atomic.incr mismatches;
          Thread.yield ())
        all reference
    done
  in
  let threads = List.init 2 (fun _ -> Thread.create work ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "every digest matches the reference" 0
    (Atomic.get mismatches)

let props =
  List.concat
    [ for_all_fragments prop_canonical_injective;
      for_all_fragments prop_rebuild;
      for_all_fragments prop_fv;
      for_all_fragments prop_size;
      for_all_fragments prop_alpha;
      for_all_fragments prop_canonical;
      for_all_fragments prop_digest;
      for_all_fragments prop_digest_bytes;
      for_all_fragments prop_simplify;
      for_all_fragments prop_subst;
      for_all_fragments prop_equal;
      for_all_fragments prop_hash ]

let suite =
  [ ( "hashcons",
      List.map QCheck_alcotest.to_alcotest props
      @ [ Alcotest.test_case "4-domain concurrent consing" `Quick
            stress_domains;
          Alcotest.test_case "digest under two systhreads" `Quick
            stress_digest_threads ] ) ]
