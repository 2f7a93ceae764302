(** Verdict cache: settle each distinct proof obligation once — even
    when identical obligations arrive on different domains at once.

    Obligations repeat heavily — [requires]/invariant re-checks across
    methods, and every round of the speculative-invariant weakening loop
    regenerates most of a method's obligations unchanged.  Sequents are
    keyed by {!Logic.Sequent.digest} (canonicalized, so hypothesis order
    and bound-variable names don't matter) and the verdict plus the name
    of the prover that settled it are stored.

    {2 Unknown verdicts}

    A cache serves one portfolio: the dispatcher that owns it
    ({!Dispatch.create}).  [Valid] and [Invalid] are facts about the
    obligation; an [Unknown] is a fact about that portfolio, and the
    dispatcher publishes one only when no attempt on it was
    resource-limited (no budget, cancellation, crash or wall-clock
    cut-off).  Every verdict is stored under the sequent's digest, so a
    deterministic Unknown is replayed exactly as a settled verdict is.
    Unknowns never leave the process: {!fold_settled} skips them.

    {2 The in-flight claim table}

    Two domains racing on the same digest would otherwise both miss and
    both pay a prover call — duplicated work, and hit/miss counters that
    change with [-j].  {!acquire} closes the window: the
    first caller {e claims} the key and proves; later callers block on
    the [settled] condvar and are served the published verdict as a hit,
    exactly as they would have been sequentially.  A claim owner must
    {!publish} its verdict or {!abandon} the claim (a resource-limited
    Unknown, a prover exception).  An abandon wakes the waiters, and the
    first to re-check claims the key afresh — so a resource-limited
    Unknown is re-attempted exactly as often as it would be at [-j 1].
    Counters are bumped once per {!acquire}, at resolution, which makes
    [hit_count]/[miss_count] deterministic across [-j]. *)

open Logic

type entry = {
  verdict : Sequent.verdict;
  prover : string option; (* which prover settled it, for reports *)
}

type slot = {
  entry : entry;
  mutable used : int; (* epoch of the last resolution touching this key *)
}

type state =
  | Done of slot
  | Inflight (* some domain holds the claim and is proving *)

type t = {
  lock : Mutex.t; (* guards everything mutable below *)
  settled : Condition.t; (* signalled on publish and abandon *)
  table : (string, state) Hashtbl.t; (* keyed by sequent digest *)
  cap : int; (* settled entries kept across batches *)
  mutable epoch : int; (* batch counter; moves only between batches *)
  mutable hits : int;
  mutable misses : int;
  mutable replayed : int; (* hits served by an Unknown entry *)
  mutable evicted : int; (* settled entries dropped by [trim] *)
}

(* the default cap: generous enough that a CLI run never trims, small
   enough that a daemon's residency is bounded (~tens of MB) *)
let default_cap = 262_144

(** [create ?cap ()] — [cap] bounds the settled entries kept across
    batch boundaries ([cap <= 0] means unbounded). *)
let create ?(cap = default_cap) () : t =
  { lock = Mutex.create ();
    settled = Condition.create ();
    table = Hashtbl.create 256;
    cap = (if cap <= 0 then max_int else cap);
    epoch = 0;
    hits = 0;
    misses = 0;
    replayed = 0;
    evicted = 0 }

(** The cache key of a sequent (see {!Logic.Sequent.digest}). *)
let key (s : Sequent.t) : string = Sequent.digest s

let is_unknown (e : entry) =
  match e.verdict with Sequent.Unknown _ -> true | _ -> false

type claim =
  | Hit of entry (* served from the cache (possibly after a wait) *)
  | Claimed (* this caller owns the key: publish or abandon it *)

(** Look the key up: a hit on its entry, or a claim on it when it has
    none.  Exactly one hit or miss is counted per call, at resolution
    time, so the counters do not depend on how claims interleave; only
    the [cache.wait] trace counter (blocked lookups) depends on the
    schedule. *)
let acquire (c : t) (k : string) : claim =
  Mutex.lock c.lock;
  let rec resolve () =
    match Hashtbl.find_opt c.table k with
    | Some (Done sl) ->
      c.hits <- c.hits + 1;
      sl.used <- c.epoch;
      let replay = is_unknown sl.entry in
      if replay then c.replayed <- c.replayed + 1;
      Mutex.unlock c.lock;
      Trace.incr "cache.hit";
      if replay then Trace.incr "cache.unknown_replayed";
      Hit sl.entry
    | Some Inflight ->
      Trace.incr "cache.wait";
      Condition.wait c.settled c.lock;
      resolve ()
    | None ->
      Hashtbl.replace c.table k Inflight;
      c.misses <- c.misses + 1;
      Mutex.unlock c.lock;
      Trace.incr "cache.miss";
      Claimed
  in
  resolve ()

(** Publish the verdict for a key (normally one this caller claimed),
    Unknown or not, and wake any waiters. *)
let publish (c : t) (k : string) (e : entry) : unit =
  Mutex.protect c.lock (fun () ->
      Hashtbl.replace c.table k (Done { entry = e; used = c.epoch });
      Condition.broadcast c.settled)

(** Give a claim up without caching anything (resource-limited Unknowns,
    prover exceptions).  The first waiter to wake re-claims the key. *)
let abandon (c : t) (k : string) : unit =
  Mutex.protect c.lock (fun () ->
      (match Hashtbl.find_opt c.table k with
       | Some Inflight -> Hashtbl.remove c.table k
       | Some (Done _) | None -> ());
      Condition.broadcast c.settled)

(* ------------------------------------------------------------------ *)
(* Batch boundaries: epochs, trimming, persistence hooks               *)
(* ------------------------------------------------------------------ *)

(** Open a new recency epoch.  Call at a batch boundary (the start of a
    daemon request or a [verify] run); entries resolved from now on are
    stamped with the new epoch. *)
let new_epoch (c : t) : unit =
  Mutex.protect c.lock (fun () -> c.epoch <- c.epoch + 1)

(** Evict settled entries past the cap, least-recently-used epoch first
    (ties broken by key, so eviction is deterministic given the batch
    sequence).  Must be called between batches — it assumes no
    concurrent proving; [Inflight] claims are never evicted.  Returns
    how many entries were dropped. *)
let trim (c : t) : int =
  let dropped =
    Mutex.protect c.lock (fun () ->
        let victims =
          Hashtbl.fold
            (fun k st acc ->
              match st with Done sl -> (sl.used, k) :: acc | Inflight -> acc)
            c.table []
        in
        let excess = List.length victims - c.cap in
        if excess <= 0 then 0
        else begin
          List.sort compare victims
          |> List.iteri (fun i (_, k) ->
                 if i < excess then Hashtbl.remove c.table k);
          c.evicted <- c.evicted + excess;
          excess
        end)
  in
  if dropped > 0 then Trace.add "cache.evicted" dropped;
  dropped

(** Insert settled verdicts wholesale (a persistent store warming the
    cache).  Existing entries and in-flight claims are left untouched;
    preloaded entries are stamped with the current epoch. *)
let preload (c : t) (kvs : (string * entry) list) : unit =
  Mutex.protect c.lock (fun () ->
      List.iter
        (fun (k, e) ->
          if not (Hashtbl.mem c.table k) then
            Hashtbl.replace c.table k (Done { entry = e; used = c.epoch }))
        kvs)

(** Fold over the settled entries in deterministic (key-sorted) order —
    how a persistent store writes the cache to disk after a batch.
    Unknown entries are skipped: they hold only for this process's
    portfolio.  Call between batches. *)
let fold_settled (c : t) (f : 'a -> string -> entry -> 'a) (init : 'a) : 'a =
  let kvs =
    Mutex.protect c.lock (fun () ->
        Hashtbl.fold
          (fun k st acc ->
            match st with
            | Done sl when not (is_unknown sl.entry) -> (k, sl.entry) :: acc
            | Done _ | Inflight -> acc)
          c.table [])
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.fold_left (fun acc (k, e) -> f acc k e) init kvs

(** The settled-entry cap — also what bounds a persistent store's file. *)
let cap (c : t) : int = c.cap

(** Lookups that missed so far.  Unlike {!counters} this does not walk
    the table, so a store can ask after every batch whether anything new
    may have settled. *)
let misses (c : t) : int = Mutex.protect c.lock (fun () -> c.misses)

type counters = {
  hit_count : int;
  miss_count : int;
  entries : int; (* every stored verdict, Unknown entries included *)
  unknown_entries : int;
  unknown_replayed : int; (* hits served by an Unknown entry *)
  evicted_count : int;
}

let counters (c : t) : counters =
  Mutex.protect c.lock (fun () ->
      let entries, unknowns =
        Hashtbl.fold
          (fun _ st (n, u) ->
            match st with
            | Done sl -> (n + 1, if is_unknown sl.entry then u + 1 else u)
            | Inflight -> (n, u))
          c.table (0, 0)
      in
      { hit_count = c.hits;
        miss_count = c.misses;
        entries;
        unknown_entries = unknowns;
        unknown_replayed = c.replayed;
        evicted_count = c.evicted })

(** Hit rate over all lookups so far; 0 when nothing was looked up. *)
let hit_rate (c : t) : float =
  let k = counters c in
  let total = k.hit_count + k.miss_count in
  if total = 0 then 0. else float_of_int k.hit_count /. float_of_int total
