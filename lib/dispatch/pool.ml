(** A fixed-size pool of OCaml 5 domains fed from one shared queue.

    One mutex guards a FIFO of batches; each [map] call publishes one
    batch and its tasks are claimed by index under that lock.  Idle
    workers park on [work]; [map] callers waiting for their batch to
    settle park on [settled].

    {2 Nesting and deadlock freedom}

    Nesting is safe on a single pool.  The caller of [map] {e helps}: it
    claims and runs unclaimed indices of its own batch, and never a task
    of any other batch, so a task that blocks on shared state (e.g. the
    verdict cache's in-flight claim table) can never find itself
    executing, and deadlocking on, an unrelated obligation beneath the
    claim it holds.  A caller parks only when every index of its batch is
    claimed, i.e. every unfinished task is running on some other domain,
    so the waits-for graph between batches stays acyclic and some domain
    always makes progress. *)

type batch = {
  size : int;
  run : int -> unit; (* must not raise *)
  mutable next : int; (* next unclaimed index *)
  mutable remaining : int; (* tasks not yet finished *)
}

type t = {
  jobs : int;
  lock : Mutex.t; (* guards everything below and both condvars *)
  work : Condition.t; (* idle workers park here *)
  settled : Condition.t; (* [map] callers park here *)
  batches : batch Queue.t; (* exhausted batches are dropped lazily *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* call with [p.lock] held: claim an index of the oldest batch that has
   one left *)
let rec claim_locked (p : t) : (batch * int) option =
  match Queue.peek_opt p.batches with
  | None -> None
  | Some b when b.next >= b.size ->
    ignore (Queue.pop p.batches);
    claim_locked p
  | Some b ->
    let i = b.next in
    b.next <- i + 1;
    Some (b, i)

(* run a claimed task outside the lock; returns with [p.lock] held *)
let run_claimed (p : t) (b : batch) (i : int) : unit =
  Mutex.unlock p.lock;
  b.run i;
  Mutex.lock p.lock;
  b.remaining <- b.remaining - 1;
  if b.remaining = 0 then Condition.broadcast p.settled

let worker_loop (p : t) : unit =
  Mutex.lock p.lock;
  let rec loop () =
    match claim_locked p with
    | Some (b, i) ->
      run_claimed p b i;
      loop ()
    | None when p.stop -> ()
    | None ->
      Condition.wait p.work p.lock;
      loop ()
  in
  loop ();
  Mutex.unlock p.lock

(** [create ~jobs] spawns [jobs - 1] worker domains; the calling domain
    of each [map] runs tasks of its own batch too. *)
let create ~jobs : t =
  let p =
    { jobs = max 1 jobs;
      lock = Mutex.create ();
      work = Condition.create ();
      settled = Condition.create ();
      batches = Queue.create ();
      stop = false;
      workers = [] }
  in
  p.workers <-
    List.init (p.jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop p));
  p

let shutdown (p : t) =
  Mutex.lock p.lock;
  p.stop <- true;
  Condition.broadcast p.work;
  Mutex.unlock p.lock;
  List.iter Domain.join p.workers;
  p.workers <- []

(** Parallel [List.map] preserving order.  The first exception raised by
    [f] (in input order) is re-raised in the caller once the whole batch
    has settled. *)
let map (p : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  if p.jobs <= 1 || List.compare_length_with xs 2 < 0 then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results : ('b, exn) result option array = Array.make n None in
    let published = Trace.now_s () in
    let run i =
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
      results.(i) <- Some r
    in
    let b = { size = n; run; next = 0; remaining = n } in
    Mutex.lock p.lock;
    Queue.push b p.batches;
    Condition.broadcast p.work;
    (* help with our own batch; park once all of it is claimed *)
    let rec help () =
      if b.remaining > 0 then begin
        if b.next < b.size then begin
          let i = b.next in
          b.next <- i + 1;
          run_claimed p b i
        end
        else Condition.wait p.settled p.lock;
        help ()
      end
    in
    help ();
    Mutex.unlock p.lock;
    Array.to_list results
    |> List.map (function
         | Some (Ok v) -> v
         | Some (Error e) -> raise e
         | None -> assert false)
  end

(** [map] on an optional pool: [None] means run sequentially. *)
let map_opt (p : t option) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  match p with None -> List.map f xs | Some p -> map p f xs
