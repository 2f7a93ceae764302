(** A fixed-size pool of OCaml 5 domains with per-domain work-stealing
    deques (Chase–Lev style).

    The previous pool pushed every task through one mutex+condvar shared
    queue: each task paid two global lock round-trips (claim and
    completion) and every publication broadcast woke every worker, so
    more time went to the pool lock than to proving as [-j] grew.  Here
    each domain owns a deque: the owner pushes and pops whole batches at
    the bottom with no lock at all, idle workers steal single tasks from
    the top of a victim's deque with one CAS, and the pool mutex survives
    only on cold paths — parking an idle worker, submissions from foreign
    domains, and shutdown.

    {2 Nesting and deadlock freedom}

    Nesting is safe on a single pool.  The caller of [map] pushes its
    batch onto its own deque and then {e helps}: it pops and runs its own
    batch's tasks before blocking.  A task of an {e enclosing} batch
    found beneath them is pushed back and left to thieves — a helper
    never executes work it did not submit, so a task that blocks on
    shared state (e.g. the verdict cache's in-flight claim table) can
    never find itself executing, and deadlocking on, an unrelated
    obligation beneath the claim it holds.  A thread only parks when
    every unfinished task of its batch is running on some other domain,
    so the waits-for graph between batches stays acyclic and some domain
    always makes progress.

    {2 Memory-model notes}

    [top] and [bottom] are OCaml [Atomic]s (sequentially consistent);
    the deque buffer travels as one immutable record behind an [Atomic]
    so a thief always observes a consistent array/mask pair whose
    contents were published before the pointer.  The store never
    shrinks, and a slot in the live range [top, bottom) is never
    overwritten, so a thief's read of a slot it later CASes for is
    always the element that was there when [top] still permitted the
    steal. *)

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(** Work-stealing deque.  [push]/[pop] are owner-only (one designated
    thread); [steal] and [size] may be called from any thread. *)
module Deque = struct
  type 'a buf = { arr : 'a option array; mask : int }

  type 'a t = {
    top : int Atomic.t;    (* next index a thief takes; only grows *)
    bottom : int Atomic.t; (* next index the owner pushes *)
    buffer : 'a buf Atomic.t;
  }

  let create ?(capacity = 64) () : 'a t =
    let cap = round_pow2 (max 2 capacity) in
    { top = Atomic.make 0;
      bottom = Atomic.make 0;
      buffer = Atomic.make { arr = Array.make cap None; mask = cap - 1 } }

  (* approximate; exact when no operation is in flight *)
  let size (d : 'a t) : int =
    let b = Atomic.get d.bottom and t = Atomic.get d.top in
    if b > t then b - t else 0

  let grow (d : 'a t) b t =
    let old = Atomic.get d.buffer in
    let cap = 2 * (old.mask + 1) in
    let arr = Array.make cap None in
    for i = t to b - 1 do
      arr.(i land (cap - 1)) <- old.arr.(i land old.mask)
    done;
    Atomic.set d.buffer { arr; mask = cap - 1 }

  let push (d : 'a t) (x : 'a) : unit =
    let b = Atomic.get d.bottom and t = Atomic.get d.top in
    if b - t > (Atomic.get d.buffer).mask then grow d b t;
    let buf = Atomic.get d.buffer in
    buf.arr.(b land buf.mask) <- Some x;
    Atomic.set d.bottom (b + 1)

  let pop (d : 'a t) : 'a option =
    let b = Atomic.get d.bottom - 1 in
    Atomic.set d.bottom b;
    let t = Atomic.get d.top in
    if t > b then begin
      (* already empty: restore *)
      Atomic.set d.bottom t;
      None
    end
    else begin
      let buf = Atomic.get d.buffer in
      let i = b land buf.mask in
      let x = buf.arr.(i) in
      if t < b then begin
        buf.arr.(i) <- None;
        x
      end
      else begin
        (* last element: race thieves for it *)
        let won = Atomic.compare_and_set d.top t (t + 1) in
        Atomic.set d.bottom (t + 1);
        if won then begin
          buf.arr.(i) <- None;
          x
        end
        else None
      end
    end

  let rec steal (d : 'a t) : 'a option =
    let t = Atomic.get d.top in
    let b = Atomic.get d.bottom in
    if t >= b then None
    else begin
      let buf = Atomic.get d.buffer in
      let x = buf.arr.(t land buf.mask) in
      if Atomic.compare_and_set d.top t (t + 1) then x
      else begin
        (* lost the race; the deque may still hold work *)
        Domain.cpu_relax ();
        steal d
      end
    end
end

type task = {
  tag : int; (* batch id: helpers run only their own batch's tasks *)
  run : unit -> unit;
}

type t = {
  uid : int;
  jobs : int;
  deques : task Deque.t array; (* slot 0 = creator, 1.. = workers *)
  lock : Mutex.t; (* guards [injected], [sleepers] and both condvars *)
  work_cond : Condition.t; (* idle workers park here *)
  done_cond : Condition.t; (* [map] callers park here *)
  mutable injected : task list; (* submissions from slot-less domains *)
  mutable sleepers : int;
  stop : bool Atomic.t;
  mutable workers : unit Domain.t list;
}

let jobs (p : t) = p.jobs

let pool_uids = Atomic.make 0
let batch_tags = Atomic.make 0

(* Which pools this domain owns a deque slot in.  Entries are never
   removed; a process creates few pools and each entry is two ints. *)
let slots_key : (int * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let register_slot (p : t) (slot : int) : unit =
  let r = Domain.DLS.get slots_key in
  r := (p.uid, slot) :: !r

let my_slot (p : t) : int option =
  List.assoc_opt p.uid !(Domain.DLS.get slots_key)

(* call with [p.lock] held *)
let have_work_locked (p : t) : bool =
  p.injected <> []
  || Array.exists (fun d -> Deque.size d > 0) p.deques

let take_injected_locked (p : t) : task option =
  match p.injected with
  | [] -> None
  | t :: rest ->
    p.injected <- rest;
    Some t

(* Claim one task from anywhere: own deque first (LIFO, cache-warm),
   then steal round-robin from the other deques, then the injector. *)
let next_task (p : t) ~(slot : int option) : task option =
  let own =
    match slot with Some i -> Deque.pop p.deques.(i) | None -> None
  in
  match own with
  | Some _ -> own
  | None ->
    let me = match slot with Some i -> i | None -> -1 in
    let n = Array.length p.deques in
    let rec scan k =
      if k >= n then None
      else
        let v = (me + 1 + k + n) mod n in
        if v = me then scan (k + 1)
        else
          match Deque.steal p.deques.(v) with
          | Some _ as r ->
            Trace.incr "pool.steal";
            r
          | None -> scan (k + 1)
    in
    (match scan 0 with
    | Some _ as r -> r
    | None ->
      if p.injected == [] then None
      else begin
        Mutex.lock p.lock;
        let r = take_injected_locked p in
        Mutex.unlock p.lock;
        (match r with Some _ -> Trace.incr "pool.inject" | None -> ());
        r
      end)

let rec worker_loop (p : t) (slot : int) : unit =
  let rec drain () =
    match next_task p ~slot:(Some slot) with
    | Some t ->
      t.run ();
      drain ()
    | None -> ()
  in
  drain ();
  if Atomic.get p.stop then ()
  else begin
    Mutex.lock p.lock;
    (* re-check under the lock: publishers broadcast under it, so a task
       pushed before we got here is either visible now or its broadcast
       is still pending on this mutex — no lost wakeup *)
    if (not (have_work_locked p)) && not (Atomic.get p.stop) then begin
      p.sleepers <- p.sleepers + 1;
      Trace.incr "pool.park";
      Condition.wait p.work_cond p.lock;
      p.sleepers <- p.sleepers - 1
    end;
    Mutex.unlock p.lock;
    worker_loop p slot
  end

(** [create ~jobs] spawns [jobs - 1] worker domains; the creating domain
    owns deque slot 0 and participates in its own [map] calls. *)
let create ~jobs : t =
  let jobs = max 1 jobs in
  let p =
    { uid = Atomic.fetch_and_add pool_uids 1;
      jobs;
      deques = Array.init jobs (fun _ -> Deque.create ());
      lock = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      injected = [];
      sleepers = 0;
      stop = Atomic.make false;
      workers = [] }
  in
  register_slot p 0;
  p.workers <-
    List.init (jobs - 1) (fun i ->
        let slot = i + 1 in
        Domain.spawn (fun () ->
            register_slot p slot;
            worker_loop p slot));
  p

let shutdown (p : t) =
  Atomic.set p.stop true;
  Mutex.lock p.lock;
  Condition.broadcast p.work_cond;
  Condition.broadcast p.done_cond;
  Mutex.unlock p.lock;
  List.iter Domain.join p.workers;
  p.workers <- []

(* wake parked workers after publishing work; cheap when nobody sleeps *)
let wake_workers (p : t) =
  Mutex.lock p.lock;
  if p.sleepers > 0 then Condition.broadcast p.work_cond;
  Mutex.unlock p.lock

(** Parallel [List.map] preserving order.  The first exception raised by
    [f] (in input order) is re-raised in the caller once the whole batch
    has settled. *)
let map (p : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  if p.jobs <= 1 || List.compare_length_with xs 2 < 0 then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results : ('b, exn) result option array = Array.make n None in
    let remaining = Atomic.make n in
    let tag = Atomic.fetch_and_add batch_tags 1 in
    let published = Trace.now_s () in
    let run i () =
      let r =
        if not (Trace.enabled ()) then (try Ok (f arr.(i)) with e -> Error e)
        else begin
          (* time from batch publication to a domain picking the task
             up: queue pressure under the pool *)
          let wait_s = Trace.now_s () -. published in
          Trace.observe "pool.queue_wait_s" wait_s;
          Trace.with_span ~cat:"pool"
            ~args:(fun () ->
              [ ("index", Trace.I i); ("queue_wait_s", Trace.F wait_s) ])
            "task"
            (fun () -> try Ok (f arr.(i)) with e -> Error e)
        end
      in
      results.(i) <- Some r;
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        (* last task of the batch: wake the batch's caller *)
        Mutex.lock p.lock;
        Condition.broadcast p.done_cond;
        Mutex.unlock p.lock
      end
    in
    let slot = my_slot p in
    (match slot with
    | Some s ->
      let dq = p.deques.(s) in
      for i = 0 to n - 1 do
        Deque.push dq { tag; run = run i }
      done
    | None ->
      (* a domain with no deque here (not the creator, not a worker):
         hand the batch to the workers through the injector *)
      Mutex.lock p.lock;
      let ts = ref [] in
      for i = n - 1 downto 0 do
        ts := { tag; run = run i } :: !ts
      done;
      p.injected <- p.injected @ !ts;
      Mutex.unlock p.lock);
    wake_workers p;
    (* help with our own batch before blocking: pop our deque, run our
       tasks, push an enclosing batch's task back for thieves *)
    let rec help () =
      if Atomic.get remaining > 0 then begin
        let mine =
          match slot with
          | None -> None
          | Some s -> (
            let dq = p.deques.(s) in
            match Deque.pop dq with
            | Some t when t.tag = tag -> Some t
            | Some t ->
              (* a task of an enclosing batch surfaced: all of ours are
                 claimed.  Put it back and park below. *)
              Deque.push dq t;
              Trace.incr "pool.pushback";
              None
            | None -> None)
        in
        match mine with
        | Some t ->
          t.run ();
          help ()
        | None ->
          (* every unfinished task of this batch is running on some
             other domain; park until one completes *)
          Mutex.lock p.lock;
          if Atomic.get remaining > 0 then
            Condition.wait p.done_cond p.lock;
          Mutex.unlock p.lock;
          help ()
      end
    in
    help ();
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false)
  end

(** [map] on an optional pool: [None] means run sequentially. *)
let map_opt (p : t option) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  match p with None -> List.map f xs | Some p -> map p f xs
