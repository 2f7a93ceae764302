(** Symbolic DFAs: transition rows are shared MTBDDs over track variables.

    The drop-in symbolic twin of {!Dfa}: same language semantics (total,
    trailing-zero insensitive automata over bit-track alphabets), but a
    state's outgoing behavior is a {!Bdd} whose variables are {e global}
    track indices and whose leaves are successor state ids.  A state that
    ignores a track stores no node for it, so don't-care tracks are free:
    [insert_track] is a rename (usually the identity), and the per-letter
    [2^width] enumeration of the dense engine disappears from product,
    projection and minimization alike.

    All automata in one computation must share one {!Bdd.manager}
    (asserted on binary operations).  Blowup-prone loops poll
    {!Deadline.check}. *)

type t = {
  man : Bdd.manager;
  width : int; (* number of tracks *)
  trans : Bdd.t array; (* state -> MTBDD, leaves are successor states *)
  accept : bool array;
  initial : int;
}

let num_states a = Array.length a.trans

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(** [make ~man ~width ~n ~initial ~accept ?deps f]: explicit automaton
    with [f s letter] the transition function over full-width letters.
    [deps] (sorted ascending) lists the tracks the transitions actually
    read — [f] is only sampled on assignments of those, so a predicate
    automaton touching 2 of 20 tracks costs 4 probes per state, not
    [2^20]. *)
let make ~man ~width ~n ~initial ~accept ?deps f =
  let deps =
    match deps with Some d -> d | None -> List.init width (fun i -> i)
  in
  let build s =
    let rec go ds letter =
      match ds with
      | [] -> Bdd.leaf man (f s letter)
      | v :: rest ->
        Bdd.node man v (go rest letter) (go rest (letter lor (1 lsl v)))
    in
    go deps 0
  in
  {
    man;
    width;
    trans = Array.init n build;
    accept = Array.init n accept;
    initial;
  }

let top man width =
  { man; width; trans = [| Bdd.leaf man 0 |]; accept = [| true |]; initial = 0 }

let bottom man width =
  { man; width; trans = [| Bdd.leaf man 0 |]; accept = [| false |]; initial = 0 }

(* ------------------------------------------------------------------ *)
(* Run / acceptance                                                    *)
(* ------------------------------------------------------------------ *)

let step (a : t) (s : int) (letter : int) : int =
  Bdd.eval a.trans.(s) (fun v -> letter land (1 lsl v) <> 0)

let accepts (a : t) (word : int list) : bool =
  a.accept.(List.fold_left (step a) a.initial word)

(* ------------------------------------------------------------------ *)
(* Boolean combinations                                                *)
(* ------------------------------------------------------------------ *)

let complement (a : t) : t = { a with accept = Array.map not a.accept }

(** Product over reachable pairs.  One [Bdd.apply2] per product state;
    the computed cache is shared across all state pairs of this product,
    so structurally shared rows are combined once. *)
let product (op : bool -> bool -> bool) (a : t) (b : t) : t =
  if a.man != b.man then invalid_arg "Sdfa.product: manager mismatch";
  if a.width <> b.width then invalid_arg "Sdfa.product: width mismatch";
  let man = a.man in
  let opid = Bdd.fresh_op man in
  let index = Hashtbl.create 64 in
  let queue = Queue.create () in
  let n = ref 0 in
  let get qa qb =
    match Hashtbl.find_opt index (qa, qb) with
    | Some i -> i
    | None ->
      let i = !n in
      incr n;
      Hashtbl.add index (qa, qb) i;
      Queue.add (i, qa, qb) queue;
      i
  in
  let initial = get a.initial b.initial in
  let rows = ref [] in
  while not (Queue.is_empty queue) do
    (* one poll per fresh product state: blowup happens here *)
    Deadline.check ();
    let i, sa, sb = Queue.pop queue in
    let row = Bdd.apply2 man ~op:opid get a.trans.(sa) b.trans.(sb) in
    rows := (i, row, op a.accept.(sa) b.accept.(sb)) :: !rows
  done;
  let trans = Array.make !n (Bdd.leaf man 0) in
  let accept = Array.make !n false in
  List.iter
    (fun (i, row, acc) ->
      trans.(i) <- row;
      accept.(i) <- acc)
    !rows;
  { man; width = a.width; trans; accept; initial }

let inter a b = product ( && ) a b
let union a b = product ( || ) a b

(* ------------------------------------------------------------------ *)
(* Track manipulation                                                  *)
(* ------------------------------------------------------------------ *)

(** Insert a fresh don't-care track at [pos].  Rows that never read a
    track [>= pos] — the common case when fresh tracks are appended at
    the top — are returned unchanged (physically). *)
let insert_track (a : t) (pos : int) : t =
  {
    a with
    width = a.width + 1;
    trans = Array.map (Bdd.rename_up a.man pos) a.trans;
    accept = Array.copy a.accept;
  }

(* ------------------------------------------------------------------ *)
(* Projection (existential quantification of one track)                *)
(* ------------------------------------------------------------------ *)

(** [quantify a pos]: existentially quantify track [pos] {e in place} —
    the width and the remaining tracks' indices are unchanged and the
    result simply never reads track [pos].  Subset construction over the
    projected NFA plus the trailing-zero acceptance closure.  This is
    what the symbolic WS1S compiler uses directly: with global track
    variables there is no width realignment to undo afterwards. *)
let quantify (a : t) (pos : int) : t =
  let man = a.man in
  let n = num_states a in
  (* states reaching acceptance via letters that are zero on every kept
     track (anything on track pos) *)
  let zero_accept = Array.copy a.accept in
  let changed = ref true in
  while !changed do
    changed := false;
    Deadline.check ();
    for s = 0 to n - 1 do
      if not zero_accept.(s) then begin
        let s0 = Bdd.eval a.trans.(s) (fun _ -> false) in
        let s1 = Bdd.eval a.trans.(s) (fun v -> v = pos) in
        if zero_accept.(s0) || zero_accept.(s1) then begin
          zero_accept.(s) <- true;
          changed := true
        end
      end
    done
  done;
  (* NFA rows: leaves become interned successor sets, track pos is
     summed out by set union *)
  let nrow =
    Array.map
      (fun row -> Bdd.exists_union man pos (Bdd.to_singletons man row))
      a.trans
  in
  (* subset construction over interned set ids *)
  let opid = Bdd.fresh_op man in
  let index = Hashtbl.create 64 in
  let queue = Queue.create () in
  let count = ref 0 in
  let get sid =
    match Hashtbl.find_opt index sid with
    | Some i -> i
    | None ->
      let i = !count in
      incr count;
      Hashtbl.add index sid i;
      Queue.add (i, sid) queue;
      i
  in
  let initial = get (Bdd.set_singleton man a.initial) in
  let rows = ref [] in
  while not (Queue.is_empty queue) do
    Deadline.check ();
    let i, sid = Queue.pop queue in
    let qs = Bdd.set_of_id man sid in
    let nfa_row = ref nrow.(qs.(0)) in
    for k = 1 to Array.length qs - 1 do
      nfa_row := Bdd.union_mt man !nfa_row nrow.(qs.(k))
    done;
    let row = Bdd.apply1 man ~op:opid ~aux:0 get !nfa_row in
    let acc = Array.exists (fun q -> zero_accept.(q)) qs in
    rows := (i, row, acc) :: !rows
  done;
  let trans = Array.make !count (Bdd.leaf man 0) in
  let accept = Array.make !count false in
  List.iter
    (fun (i, row, acc) ->
      trans.(i) <- row;
      accept.(i) <- acc)
    !rows;
  { man; width = a.width; trans; accept; initial }

(** [project a pos]: like {!Dfa.project} — quantify track [pos] and
    close the gap, shifting higher tracks down. *)
let project (a : t) (pos : int) : t =
  let q = quantify a pos in
  {
    q with
    width = a.width - 1;
    trans = Array.map (Bdd.rename_down a.man pos) q.trans;
  }

(* ------------------------------------------------------------------ *)
(* Minimization (Moore refinement over BDD signatures)                 *)
(* ------------------------------------------------------------------ *)

(** Moore partition refinement where a state's signature is its class
    plus the {e node id} of its class-mapped transition row — hash
    consing makes equal rows physically equal, so no per-letter arrays
    are ever materialized. *)
let minimize (a : t) : t =
  let man = a.man in
  let n = num_states a in
  let cls = Array.init n (fun s -> if a.accept.(s) then 1 else 0) in
  let count c = 1 + Array.fold_left max (-1) c in
  let rec refine cls ncls =
    Deadline.check ();
    let opid = Bdd.fresh_op man in
    let mapped =
      Array.map
        (fun row -> Bdd.apply1 man ~op:opid ~aux:0 (fun q -> cls.(q)) row)
        a.trans
    in
    let sigs = Hashtbl.create (2 * n) in
    let new_cls = Array.make n 0 in
    let next = ref 0 in
    for s = 0 to n - 1 do
      let signature = (cls.(s), Bdd.tag mapped.(s)) in
      match Hashtbl.find_opt sigs signature with
      | Some c -> new_cls.(s) <- c
      | None ->
        Hashtbl.add sigs signature !next;
        new_cls.(s) <- !next;
        incr next
    done;
    (* refinement only splits, so the partition is stable exactly when
       the class count stops growing; [mapped] leaves are then the
       quotient rows under the numbering of [cls] *)
    if !next = ncls then (cls, mapped) else refine new_cls !next
  in
  let cls, mapped = refine cls (count cls) in
  let ncls = count cls in
  let repr = Array.make ncls (-1) in
  for s = n - 1 downto 0 do
    repr.(cls.(s)) <- s
  done;
  {
    man;
    width = a.width;
    trans = Array.init ncls (fun c -> mapped.(repr.(c)));
    accept = Array.init ncls (fun c -> a.accept.(repr.(c)));
    initial = cls.(a.initial);
  }

(* ------------------------------------------------------------------ *)
(* Emptiness and witnesses                                             *)
(* ------------------------------------------------------------------ *)

(** Shortest accepted word, if any — BFS where a state's successor set
    is its row's leaf list and the letter reaching a given successor is
    read off a satisfying BDD path (don't-care tracks become 0). *)
let witness (a : t) : int list option =
  let n = num_states a in
  let pred = Array.make n None in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(a.initial) <- true;
  Queue.add a.initial queue;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    Deadline.check ();
    let s = Queue.pop queue in
    if a.accept.(s) then found := Some s
    else
      List.iter
        (fun t ->
          if not seen.(t) then begin
            seen.(t) <- true;
            let letter =
              match Bdd.path_to_leaf a.trans.(s) (fun v -> v = t) with
              | Some (_, decisions) ->
                List.fold_left
                  (fun l (v, b) -> if b then l lor (1 lsl v) else l)
                  0 decisions
              | None -> assert false (* t is a leaf of the row *)
            in
            pred.(t) <- Some (s, letter);
            Queue.add t queue
          end)
        (Bdd.leaves a.man a.trans.(s))
  done;
  match !found with
  | None -> None
  | Some s ->
    let rec build s acc =
      match pred.(s) with None -> acc | Some (p, l) -> build p (l :: acc)
    in
    Some (build s [])

let is_empty (a : t) : bool = witness a = None

(* ------------------------------------------------------------------ *)
(* Dense interop (differential testing)                                *)
(* ------------------------------------------------------------------ *)

(** Lift a dense automaton (small widths only: samples all letters). *)
let of_dense (man : Bdd.manager) (d : Dfa.t) : t =
  make ~man ~width:d.Dfa.width
    ~n:(Array.length d.Dfa.trans)
    ~initial:d.Dfa.initial
    ~accept:(fun s -> d.Dfa.accept.(s))
    (fun s l -> d.Dfa.trans.(s).(l))

(** Flatten to a dense automaton (small widths only). *)
let to_dense (a : t) : Dfa.t =
  Dfa.make ~width:a.width ~n:(num_states a) ~initial:a.initial
    ~accept:(fun s -> a.accept.(s))
    (fun s l -> step a s l)
