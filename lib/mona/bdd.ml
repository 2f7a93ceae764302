(** Hash-consed reduced ordered (multi-terminal) binary decision diagrams.

    The symbolic kernel under the WS1S decision procedure: DFA transition
    rows are MTBDDs over track variables whose leaves are successor state
    ids, so a row over [w] tracks costs space proportional to the number
    of tracks the state actually inspects, never [2^w].

    Variables are global track indices and the variable order is fixed:
    track index strictly increases from root to leaf.  Leaves carry
    arbitrary ints — booleans are the leaves 0/1, transition rows use
    state ids, and the subset construction uses interned set ids (see
    {!set_singleton}).

    All nodes live in a {!manager}.  Managers are deliberately {e not}
    shared across threads: every WS1S compilation builds its own, so the
    multi-domain prover pool needs no locking here (a process-global
    table would need sharded locks to serve several domains).
    Combining nodes from two managers is a programming error; {!Sdfa}
    asserts physical manager equality at every binary operation.

    The apply caches poll {!Deadline.check} every 1024 probes, so a
    budgeted run cancels even inside one giant apply. *)

type t = { tag : int; node : node }
and node = Leaf of int | Node of { var : int; lo : t; hi : t }

type manager = {
  unique : (int * int * int, t) Hashtbl.t; (* (var, lo.tag, hi.tag) *)
  leaf_tbl : (int, t) Hashtbl.t;
  cache2 : (int * int * int, t) Hashtbl.t; (* (op, a.tag, b.tag) *)
  cache1 : (int * int * int, t) Hashtbl.t; (* (op, aux, a.tag) *)
  maxvar_memo : (int, int) Hashtbl.t;
  leaves_memo : (int, int list) Hashtbl.t;
  (* interned sorted int sets, for the subset construction: a set is a
     small int id, union is memoized, membership is a sorted array *)
  set_ids : (int array, int) Hashtbl.t;
  mutable set_arr : int array array;
  mutable set_count : int;
  set_union_tbl : (int * int, int) Hashtbl.t;
  mutable next_tag : int;
  mutable next_op : int;
  mutable lookups : int; (* computed-cache probes *)
  mutable hits : int;
  mutable polls : int;
}

(* reserved operation ids for the shared computed caches; per-call-site
   memo spaces (product leaf maps, minimization rounds) take fresh ids
   from [fresh_op] *)
let op_and = 0
let op_or = 1
let op_xor = 2
let op_not = 3
let op_restrict = 4
let op_exists_or = 5
let op_exists_union = 6
let op_rename_up = 7
let op_rename_down = 8
let op_to_singletons = 9
let op_union_mt = 10
let first_fresh_op = 11

let manager () : manager =
  {
    unique = Hashtbl.create 1024;
    leaf_tbl = Hashtbl.create 64;
    cache2 = Hashtbl.create 1024;
    cache1 = Hashtbl.create 1024;
    maxvar_memo = Hashtbl.create 256;
    leaves_memo = Hashtbl.create 256;
    set_ids = Hashtbl.create 64;
    set_arr = Array.make 16 [||];
    set_count = 0;
    set_union_tbl = Hashtbl.create 64;
    next_tag = 0;
    next_op = first_fresh_op;
    lookups = 0;
    hits = 0;
    polls = 0;
  }

let fresh_op (man : manager) : int =
  let o = man.next_op in
  man.next_op <- o + 1;
  o

let tag (t : t) : int = t.tag

let poll man =
  man.polls <- man.polls + 1;
  if man.polls land 1023 = 0 then Deadline.check ()

(* ------------------------------------------------------------------ *)
(* Node construction (hash-consing)                                    *)
(* ------------------------------------------------------------------ *)

let leaf man v =
  match Hashtbl.find_opt man.leaf_tbl v with
  | Some t -> t
  | None ->
    let t = { tag = man.next_tag; node = Leaf v } in
    man.next_tag <- man.next_tag + 1;
    Hashtbl.add man.leaf_tbl v t;
    t

(** [node man var lo hi] is the reduced node: collapses [lo == hi] and
    shares structurally equal nodes, so physical equality is semantic
    equality within one manager. *)
let node man var lo hi =
  if lo == hi then lo
  else begin
    let key = (var, lo.tag, hi.tag) in
    match Hashtbl.find_opt man.unique key with
    | Some t -> t
    | None ->
      let t = { tag = man.next_tag; node = Node { var; lo; hi } } in
      man.next_tag <- man.next_tag + 1;
      Hashtbl.add man.unique key t;
      t
  end

let bfalse man = leaf man 0
let btrue man = leaf man 1
let bvar man v = node man v (bfalse man) (btrue man)

let topvar t = match t.node with Leaf _ -> max_int | Node n -> n.var

let cofactors t v =
  match t.node with
  | Node { var; lo; hi } when var = v -> (lo, hi)
  | _ -> (t, t)

(* ------------------------------------------------------------------ *)
(* Apply                                                               *)
(* ------------------------------------------------------------------ *)

(** [apply2 man ~op f a b]: combine leaves pointwise with [f], memoized
    under operation id [op].  [f] must be deterministic for the lifetime
    of [op] (it may allocate — the product construction's leaf map mints
    fresh product-state ids). *)
let rec apply2 man ~op f a b =
  match (a.node, b.node) with
  | Leaf la, Leaf lb -> leaf man (f la lb)
  | _ ->
    poll man;
    let key = (op, a.tag, b.tag) in
    man.lookups <- man.lookups + 1;
    (match Hashtbl.find_opt man.cache2 key with
    | Some r ->
      man.hits <- man.hits + 1;
      r
    | None ->
      let v = min (topvar a) (topvar b) in
      let a0, a1 = cofactors a v and b0, b1 = cofactors b v in
      let r =
        node man v (apply2 man ~op f a0 b0) (apply2 man ~op f a1 b1)
      in
      Hashtbl.add man.cache2 key r;
      r)

(** [apply1 man ~op ~aux f a]: map leaves through [f], memoized under
    [(op, aux)]. *)
let rec apply1 man ~op ~aux f a =
  match a.node with
  | Leaf l -> leaf man (f l)
  | Node { var; lo; hi } ->
    poll man;
    let key = (op, aux, a.tag) in
    man.lookups <- man.lookups + 1;
    (match Hashtbl.find_opt man.cache1 key with
    | Some r ->
      man.hits <- man.hits + 1;
      r
    | None ->
      let r =
        node man var (apply1 man ~op ~aux f lo) (apply1 man ~op ~aux f hi)
      in
      Hashtbl.add man.cache1 key r;
      r)

(* ------------------------------------------------------------------ *)
(* Boolean algebra (leaves restricted to 0/1)                          *)
(* ------------------------------------------------------------------ *)

let band man = apply2 man ~op:op_and (fun x y -> if x <> 0 && y <> 0 then 1 else 0)
let bor man = apply2 man ~op:op_or (fun x y -> if x <> 0 || y <> 0 then 1 else 0)
let bxor man = apply2 man ~op:op_xor (fun x y -> if (x <> 0) <> (y <> 0) then 1 else 0)
let bnot man = apply1 man ~op:op_not ~aux:0 (fun x -> if x = 0 then 1 else 0)
let ite man c t e = bor man (band man c t) (band man (bnot man c) e)

(* ------------------------------------------------------------------ *)
(* Restrict / quantification                                           *)
(* ------------------------------------------------------------------ *)

(** [restrict man v b a]: fix variable [v] to [b]. *)
let rec restrict man v b a =
  match a.node with
  | Leaf _ -> a
  | Node { var; lo; hi } ->
    if var > v then a
    else if var = v then if b then hi else lo
    else begin
      poll man;
      let key = (op_restrict, (2 * v) + Bool.to_int b, a.tag) in
      man.lookups <- man.lookups + 1;
      match Hashtbl.find_opt man.cache1 key with
      | Some r ->
        man.hits <- man.hits + 1;
        r
      | None ->
        let r = node man var (restrict man v b lo) (restrict man v b hi) in
        Hashtbl.add man.cache1 key r;
        r
    end

(* existential quantification over one variable, generic in how the two
   cofactors are combined: [bor] for boolean BDDs, [union_mt] for
   transition MTBDDs whose leaves are interned set ids *)
let rec exists_gen man ~op ~combine v a =
  match a.node with
  | Leaf _ -> a
  | Node { var; lo; hi } ->
    if var > v then a
    else if var = v then combine lo hi
    else begin
      poll man;
      let key = (op, v, a.tag) in
      man.lookups <- man.lookups + 1;
      match Hashtbl.find_opt man.cache1 key with
      | Some r ->
        man.hits <- man.hits + 1;
        r
      | None ->
        let r =
          node man var
            (exists_gen man ~op ~combine v lo)
            (exists_gen man ~op ~combine v hi)
        in
        Hashtbl.add man.cache1 key r;
        r
    end

(** [exists man v a]: boolean ∃v, i.e. [restrict v 0 ∨ restrict v 1]. *)
let exists man v a = exists_gen man ~op:op_exists_or ~combine:(bor man) v a

(* ------------------------------------------------------------------ *)
(* Variable renaming (track insertion / deletion)                      *)
(* ------------------------------------------------------------------ *)

let rec max_var man a =
  match a.node with
  | Leaf _ -> -1
  | Node { var; lo; hi } ->
    (match Hashtbl.find_opt man.maxvar_memo a.tag with
    | Some m -> m
    | None ->
      let m = max var (max (max_var man lo) (max_var man hi)) in
      Hashtbl.add man.maxvar_memo a.tag m;
      m)

(** Shift every variable [>= pos] up by one — a fresh don't-care track at
    [pos].  A diagram that never looks at tracks [>= pos] is returned
    unchanged, which is what makes [Sdfa.insert_track] cheap. *)
let rec rename_up man pos a =
  if max_var man a < pos then a
  else
    match a.node with
    | Leaf _ -> a
    | Node { var; lo; hi } ->
      poll man;
      let key = (op_rename_up, pos, a.tag) in
      man.lookups <- man.lookups + 1;
      (match Hashtbl.find_opt man.cache1 key with
      | Some r ->
        man.hits <- man.hits + 1;
        r
      | None ->
        let var' = if var >= pos then var + 1 else var in
        let r =
          node man var' (rename_up man pos lo) (rename_up man pos hi)
        in
        Hashtbl.add man.cache1 key r;
        r)

(** Shift every variable [> pos] down by one.  Precondition: [pos] itself
    does not occur (it was quantified away). *)
let rec rename_down man pos a =
  if max_var man a < pos then a
  else
    match a.node with
    | Leaf _ -> a
    | Node { var; lo; hi } ->
      assert (var <> pos);
      poll man;
      let key = (op_rename_down, pos, a.tag) in
      man.lookups <- man.lookups + 1;
      (match Hashtbl.find_opt man.cache1 key with
      | Some r ->
        man.hits <- man.hits + 1;
        r
      | None ->
        let var' = if var > pos then var - 1 else var in
        let r =
          node man var' (rename_down man pos lo) (rename_down man pos hi)
        in
        Hashtbl.add man.cache1 key r;
        r)

(* ------------------------------------------------------------------ *)
(* Evaluation / inspection                                             *)
(* ------------------------------------------------------------------ *)

(** [eval a assign]: the leaf reached under the assignment. *)
let rec eval a (assign : int -> bool) : int =
  match a.node with
  | Leaf v -> v
  | Node { var; lo; hi } -> eval (if assign var then hi else lo) assign

let rec merge_sorted xs ys =
  match (xs, ys) with
  | [], zs | zs, [] -> zs
  | x :: xs', y :: ys' ->
    if x < y then x :: merge_sorted xs' ys
    else if y < x then y :: merge_sorted xs ys'
    else x :: merge_sorted xs' ys'

(** Sorted list of the distinct leaves below [a] (memoized). *)
let rec leaves man a : int list =
  match a.node with
  | Leaf v -> [ v ]
  | Node { lo; hi; _ } ->
    (match Hashtbl.find_opt man.leaves_memo a.tag with
    | Some ls -> ls
    | None ->
      let ls = merge_sorted (leaves man lo) (leaves man hi) in
      Hashtbl.add man.leaves_memo a.tag ls;
      ls)

(** [path_to_leaf a p]: some root-to-leaf path whose leaf satisfies [p],
    as [(leaf, decisions)] with [decisions] the visited [(var, value)]
    pairs; variables not listed are don't-care.  Linear in the node
    count (failed subdiagrams are marked dead). *)
let path_to_leaf (a : t) (p : int -> bool) : (int * (int * bool) list) option =
  let dead = Hashtbl.create 16 in
  let rec go a acc =
    if Hashtbl.mem dead a.tag then None
    else
      match a.node with
      | Leaf v ->
        if p v then Some (v, List.rev acc)
        else begin
          Hashtbl.add dead a.tag ();
          None
        end
      | Node { var; lo; hi } -> (
        match go lo ((var, false) :: acc) with
        | Some r -> Some r
        | None -> (
          match go hi ((var, true) :: acc) with
          | Some r -> Some r
          | None ->
            Hashtbl.add dead a.tag ();
            None))
  in
  go a []

(* ------------------------------------------------------------------ *)
(* Interned state sets (subset construction support)                   *)
(* ------------------------------------------------------------------ *)

let set_intern man (arr : int array) : int =
  match Hashtbl.find_opt man.set_ids arr with
  | Some i -> i
  | None ->
    let i = man.set_count in
    if i = Array.length man.set_arr then begin
      let bigger = Array.make (2 * (i + 1)) [||] in
      Array.blit man.set_arr 0 bigger 0 i;
      man.set_arr <- bigger
    end;
    man.set_arr.(i) <- arr;
    man.set_count <- i + 1;
    Hashtbl.add man.set_ids arr i;
    i

(** The sorted member array of an interned set.  Callers must not mutate
    it. *)
let set_of_id man i = man.set_arr.(i)

let set_singleton man q = set_intern man [| q |]

let merge_sorted_arrays (a : int array) (b : int array) : int array =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then (out.(!k) <- x; incr i)
    else if y < x then (out.(!k) <- y; incr j)
    else (out.(!k) <- x; incr i; incr j);
    incr k
  done;
  while !i < na do out.(!k) <- a.(!i); incr i; incr k done;
  while !j < nb do out.(!k) <- b.(!j); incr j; incr k done;
  if !k = na + nb then out else Array.sub out 0 !k

(** Memoized union of two interned sets. *)
let set_union man i j =
  if i = j then i
  else begin
    let key = (min i j, max i j) in
    match Hashtbl.find_opt man.set_union_tbl key with
    | Some k -> k
    | None ->
      let k =
        set_intern man (merge_sorted_arrays (set_of_id man i) (set_of_id man j))
      in
      Hashtbl.add man.set_union_tbl key k;
      k
  end

(** Leafwise union of two set-id MTBDDs. *)
let union_mt man = apply2 man ~op:op_union_mt (set_union man)

(** Map each state-id leaf [q] to the interned singleton [{q}]. *)
let to_singletons man =
  apply1 man ~op:op_to_singletons ~aux:0 (set_singleton man)

(** ∃[v] over a set-id MTBDD, combining cofactors by set union: the
    one-step NFA row of the projected automaton. *)
let exists_union man v a =
  exists_gen man ~op:op_exists_union ~combine:(union_mt man) v a

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(** Live hash-consed nodes (internal + leaves). *)
let unique_size man = Hashtbl.length man.unique + Hashtbl.length man.leaf_tbl

(** (computed-cache lookups, hits). *)
let cache_stats man = (man.lookups, man.hits)
