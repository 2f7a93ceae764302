(** Verdict cache: settle each distinct proof obligation once — even
    when identical obligations arrive on different domains at once.

    Obligations repeat heavily — [requires]/invariant re-checks across
    methods, and every round of the speculative-invariant weakening loop
    regenerates most of a method's obligations unchanged.  Sequents are
    keyed by {!Logic.Sequent.digest} (canonicalized, so hypothesis order
    and bound-variable names don't matter) and the verdict plus the name
    of the prover that settled it are stored.

    {2 Unknown verdicts}

    [Valid] and [Invalid] are facts about the obligation, so they are
    stored under the bare digest and answer every dispatcher.  An
    [Unknown] is a fact about the portfolio that tried: the dispatcher
    publishes one only when no attempt on it was resource-limited (no
    budget, cancellation, crash or wall-clock cut-off), and it is stored
    under the digest {e qualified by that portfolio}, so it is replayed
    only to a dispatcher that would have tried the same provers the same
    way — never, say, to the full portfolio from shape inference's
    smt+fol dispatcher sharing this cache.  Such entries never leave the
    process: {!fold_settled} skips them.

    {2 Sharding}

    The table is split into 64 independent shards selected by the key's
    hash, so two domains contend only when their digests land in the
    same shard, rather than every lookup serializing on one lock; each
    shard carries its own lock, condvar and counters.  A portfolio's
    unknown entry lives in the shard of its bare digest.

    {2 The in-flight claim table}

    Two domains racing on the same digest would otherwise both miss and
    both pay a prover call — duplicated work, and hit/miss counters that
    change with [-j].  {!acquire} closes the window: the
    first caller {e claims} the key and proves; later callers block on
    the shard's condvar and are served the published verdict as a hit,
    exactly as they would have been sequentially.  A claim owner must
    {!publish} its verdict or {!abandon} the claim (a resource-limited
    Unknown, a prover exception).  Publishing an Unknown stores the
    qualified entry and releases the claim in one step, so waiters of
    the same portfolio replay it; an abandon wakes the waiters, and the
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

type shard = {
  lock : Mutex.t;
  settled : Condition.t; (* signalled on publish and abandon *)
  table : (string, state) Hashtbl.t;
      (* bare digests, and the portfolio-qualified keys of Unknowns *)
  mutable hits : int;
  mutable misses : int;
  mutable replayed : int; (* hits served by an Unknown entry *)
  mutable waits : int; (* lookups that blocked on an in-flight claim *)
  mutable evicted : int; (* settled entries dropped by [trim] *)
}

type t = {
  shards : shard array;
  mask : int;
  epoch : int Atomic.t; (* batch counter; moves only between batches *)
  shard_cap : int; (* settled entries a shard may keep across batches *)
}

let shard_count = 64

(* the default total cap: generous enough that a CLI run never trims,
   small enough that a daemon's residency is bounded (~tens of MB) *)
let default_cap = 262_144

(** [create ?cap ()] — [cap] bounds the settled entries kept across
    batch boundaries (split evenly over the shards, so the bound is
    enforced per shard; [cap <= 0] means unbounded). *)
let create ?(cap = default_cap) () : t =
  { shards =
      Array.init shard_count (fun _ ->
          { lock = Mutex.create ();
            settled = Condition.create ();
            table = Hashtbl.create 16;
            hits = 0;
            misses = 0;
            replayed = 0;
            waits = 0;
            evicted = 0 });
    mask = shard_count - 1;
    epoch = Atomic.make 0;
    shard_cap =
      (if cap <= 0 then max_int
       else max 1 ((cap + shard_count - 1) / shard_count)) }

(** The cache key of a sequent (see {!Logic.Sequent.digest}). *)
let key (s : Sequent.t) : string = Sequent.digest s

let shard_of (c : t) (k : string) : shard =
  c.shards.(Hashtbl.hash k land c.mask)

(* where [portfolio]'s Unknown for bare key [k] is stored (in [k]'s
   shard); digests are hex, so no bare key contains the separator *)
let unknown_key (k : string) (portfolio : string) : string =
  k ^ "?" ^ portfolio

let is_unknown (e : entry) =
  match e.verdict with Sequent.Unknown _ -> true | _ -> false

type claim =
  | Hit of entry (* served from the cache (possibly after a wait) *)
  | Claimed (* this caller owns the key: publish or abandon it *)

(** Look the key up, claiming it if absent.  With [portfolio], a settled
    verdict is preferred and that portfolio's Unknown is replayed
    otherwise.  Exactly one hit or miss is counted per call, at
    resolution time, so the counters do not depend on how claims
    interleave.  [waits] counts blocked lookups and is the only
    schedule-dependent counter. *)
let acquire ?portfolio (c : t) (k : string) : claim =
  let sh = shard_of c k in
  let hit sl =
    sh.hits <- sh.hits + 1;
    sl.used <- Atomic.get c.epoch;
    let replay = is_unknown sl.entry in
    if replay then sh.replayed <- sh.replayed + 1;
    Mutex.unlock sh.lock;
    Trace.incr "cache.hit";
    if replay then Trace.incr "cache.unknown_replayed";
    Hit sl.entry
  in
  Mutex.lock sh.lock;
  let rec resolve () =
    match Hashtbl.find_opt sh.table k with
    | Some (Done sl) -> hit sl
    | Some Inflight ->
      sh.waits <- sh.waits + 1;
      Trace.incr "cache.wait";
      Condition.wait sh.settled sh.lock;
      resolve ()
    | None -> (
      let replay =
        match portfolio with
        | Some p -> Hashtbl.find_opt sh.table (unknown_key k p)
        | None -> None
      in
      match replay with
      | Some (Done sl) -> hit sl
      | Some Inflight | None ->
        Hashtbl.replace sh.table k Inflight;
        sh.misses <- sh.misses + 1;
        Mutex.unlock sh.lock;
        Trace.incr "cache.miss";
        Claimed)
  in
  resolve ()

(* drop an in-flight claim on [k]; the caller holds the shard lock *)
let release_claim (sh : shard) (k : string) : unit =
  match Hashtbl.find_opt sh.table k with
  | Some Inflight -> Hashtbl.remove sh.table k
  | Some (Done _) | None -> ()

(** Publish the verdict for a key (normally one this caller claimed) and
    wake any waiters.  A settled verdict is stored under [k].  An Unknown
    is stored under [k] qualified by [portfolio] — not at all without
    one — and the claim on [k] is released in the same critical section,
    so waiters of that portfolio find the entry when they wake. *)
let publish ?portfolio (c : t) (k : string) (e : entry) : unit =
  let sh = shard_of c k in
  Mutex.lock sh.lock;
  let slot = Done { entry = e; used = Atomic.get c.epoch } in
  if not (is_unknown e) then Hashtbl.replace sh.table k slot
  else begin
    Option.iter
      (fun p -> Hashtbl.replace sh.table (unknown_key k p) slot)
      portfolio;
    release_claim sh k
  end;
  Condition.broadcast sh.settled;
  Mutex.unlock sh.lock

(** Give a claim up without caching anything (resource-limited Unknowns,
    prover exceptions).  The first waiter to wake re-claims the key. *)
let abandon (c : t) (k : string) : unit =
  let sh = shard_of c k in
  Mutex.lock sh.lock;
  release_claim sh k;
  Condition.broadcast sh.settled;
  Mutex.unlock sh.lock

(** Non-claiming lookup of a settled verdict; does not touch counters
    and does not wait on in-flight claims. *)
let peek (c : t) (k : string) : entry option =
  let sh = shard_of c k in
  Mutex.lock sh.lock;
  let r =
    match Hashtbl.find_opt sh.table k with
    | Some (Done sl) -> Some sl.entry
    | Some Inflight | None -> None
  in
  Mutex.unlock sh.lock;
  r

(* ------------------------------------------------------------------ *)
(* Batch boundaries: epochs, trimming, persistence hooks               *)
(* ------------------------------------------------------------------ *)

(** Open a new recency epoch.  Call at a batch boundary (the start of a
    daemon request or a [verify] run); entries resolved from now on are
    stamped with the new epoch. *)
let new_epoch (c : t) : unit = Atomic.incr c.epoch

(** Evict settled entries past the per-shard cap, least-recently-used
    epoch first (ties broken by key, so eviction is deterministic given
    the batch sequence).  Must be called between batches — it assumes no
    concurrent proving; [Inflight] claims are never evicted.  Returns
    how many entries were dropped. *)
let trim (c : t) : int =
  let dropped = ref 0 in
  Array.iter
    (fun sh ->
      Mutex.lock sh.lock;
      let settled_count =
        Hashtbl.fold
          (fun _ st n -> match st with Done _ -> n + 1 | Inflight -> n)
          sh.table 0
      in
      let excess = settled_count - c.shard_cap in
      if excess > 0 then begin
        let victims =
          Hashtbl.fold
            (fun k st acc ->
              match st with Done sl -> (sl.used, k) :: acc | Inflight -> acc)
            sh.table []
          |> List.sort compare
        in
        List.iteri
          (fun i (_, k) ->
            if i < excess then begin
              Hashtbl.remove sh.table k;
              sh.evicted <- sh.evicted + 1;
              incr dropped
            end)
          victims
      end;
      Mutex.unlock sh.lock)
    c.shards;
  if !dropped > 0 then Trace.add "cache.evicted" !dropped;
  !dropped

(** Insert settled verdicts wholesale (a persistent store warming the
    cache).  Existing entries and in-flight claims are left untouched;
    preloaded entries are stamped with the current epoch. *)
let preload (c : t) (kvs : (string * entry) list) : unit =
  List.iter
    (fun (k, e) ->
      let sh = shard_of c k in
      Mutex.lock sh.lock;
      (match Hashtbl.find_opt sh.table k with
      | Some _ -> ()
      | None ->
        Hashtbl.replace sh.table k
          (Done { entry = e; used = Atomic.get c.epoch }));
      Mutex.unlock sh.lock)
    kvs

(** Fold over the settled entries in deterministic (key-sorted) order —
    how a persistent store drains the cache after a batch.  Unknown
    entries are skipped: they hold only for this process's portfolios.
    Takes the shard locks one at a time; call between batches. *)
let fold_settled (c : t) (f : 'a -> string -> entry -> 'a) (init : 'a) : 'a =
  let kvs =
    Array.fold_left
      (fun acc sh ->
        Mutex.lock sh.lock;
        let acc =
          Hashtbl.fold
            (fun k st acc ->
              match st with
              | Done sl when not (is_unknown sl.entry) -> (k, sl.entry) :: acc
              | Done _ | Inflight -> acc)
            sh.table acc
        in
        Mutex.unlock sh.lock;
        acc)
      [] c.shards
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.fold_left (fun acc (k, e) -> f acc k e) init kvs

type counters = {
  hit_count : int;
  miss_count : int;
  wait_count : int;
  entries : int; (* every stored verdict, Unknown entries included *)
  unknown_entries : int;
  unknown_replayed : int; (* hits served by an Unknown entry *)
  evicted_count : int;
}

let counters (c : t) : counters =
  Array.fold_left
    (fun acc sh ->
      Mutex.lock sh.lock;
      let entries, unknowns =
        Hashtbl.fold
          (fun _ st (n, u) ->
            match st with
            | Done sl -> (n + 1, if is_unknown sl.entry then u + 1 else u)
            | Inflight -> (n, u))
          sh.table (0, 0)
      in
      let r =
        { hit_count = acc.hit_count + sh.hits;
          miss_count = acc.miss_count + sh.misses;
          wait_count = acc.wait_count + sh.waits;
          entries = acc.entries + entries;
          unknown_entries = acc.unknown_entries + unknowns;
          unknown_replayed = acc.unknown_replayed + sh.replayed;
          evicted_count = acc.evicted_count + sh.evicted }
      in
      Mutex.unlock sh.lock;
      r)
    { hit_count = 0; miss_count = 0; wait_count = 0; entries = 0;
      unknown_entries = 0; unknown_replayed = 0; evicted_count = 0 }
    c.shards

(** Hit rate over all lookups so far; 0 when nothing was looked up. *)
let hit_rate (c : t) : float =
  let k = counters c in
  let total = k.hit_count + k.miss_count in
  if total = 0 then 0. else float_of_int k.hit_count /. float_of_int total
