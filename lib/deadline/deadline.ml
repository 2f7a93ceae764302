(** Cooperative deadlines and cancellation for long-running provers.

    OCaml cannot interrupt pure computation from the outside, so every
    search loop in the portfolio (DPLL decisions, resolution iterations,
    Cooper elimination steps, automata product construction) polls
    {!check} at its loop head.  A caller that wants to bound or abort the
    computation binds a {!type:token} around it with {!with_token}; once
    the token's deadline passes — or someone calls {!cancel}, e.g. a
    budget waiter that has already answered — the next {!check} in that
    thread raises {!Expired} and the search unwinds.

    Tokens nest: a child token created with [?parent] expires as soon as
    any ancestor does, so cancelling an enclosing token reaches through
    the budget wrapper's helper thread.

    Cost model: {!check} is a single atomic load while no token is bound
    anywhere in the process (the common, un-budgeted case), and one
    mutex-protected table lookup plus a clock read otherwise.  The clock
    read is throttled — only every [clock_stride] polls — because some
    loops checkpoint every few hundred nanoseconds. *)

exception Expired

type t = {
  deadline : float; (* absolute, monotonic [Clock.now] basis; [infinity] = none *)
  cancelled : bool Atomic.t;
  parent : t option;
  checkpoints : int Atomic.t; (* polls observed under this token *)
  skew : int Atomic.t; (* polls since the last clock read *)
}

let make ?deadline_in ?parent () : t =
  let deadline =
    match deadline_in with
    | None -> infinity
    | Some d -> Clock.now () +. d
  in
  { deadline;
    cancelled = Atomic.make false;
    parent;
    checkpoints = Atomic.make 0;
    skew = Atomic.make 0 }

let cancel (t : t) : unit = Atomic.set t.cancelled true

(** How many times {!check} ran under this token — lets tests observe
    that a cancelled prover genuinely stopped checkpointing. *)
let checkpoints (t : t) : int = Atomic.get t.checkpoints

let rec cancel_requested (t : t) : bool =
  Atomic.get t.cancelled
  || (match t.parent with Some p -> cancel_requested p | None -> false)

(* the earliest deadline along the parent chain *)
let rec horizon (t : t) : float =
  match t.parent with
  | None -> t.deadline
  | Some p -> Float.min t.deadline (horizon p)

(* ------------------------------------------------------------------ *)
(* Thread binding                                                      *)
(* ------------------------------------------------------------------ *)

(* Tokens are bound per systhread (pool domains and budget helper
   threads are distinct threads, each with its own binding).  [active]
   counts live bindings process-wide so that [check] costs one atomic
   load when nothing anywhere is budgeted. *)
let active : int Atomic.t = Atomic.make 0
let registry : (int, t) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let self_id () = Thread.id (Thread.self ())

(** The token bound to the calling thread, if any. *)
let current () : t option =
  if Atomic.get active = 0 then None
  else begin
    let id = self_id () in
    Mutex.lock registry_mutex;
    let r = Hashtbl.find_opt registry id in
    Mutex.unlock registry_mutex;
    r
  end

(** Run [f] with [t] bound as the calling thread's token.  Restores the
    previous binding (if any) on exit, so bindings nest. *)
let with_token (t : t) (f : unit -> 'a) : 'a =
  let id = self_id () in
  Mutex.lock registry_mutex;
  let previous = Hashtbl.find_opt registry id in
  Hashtbl.replace registry id t;
  Mutex.unlock registry_mutex;
  Atomic.incr active;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr active;
      Mutex.lock registry_mutex;
      (match previous with
      | None -> Hashtbl.remove registry id
      | Some p -> Hashtbl.replace registry id p);
      Mutex.unlock registry_mutex)
    f

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

(* Read the clock only every [clock_stride] polls per token: cancel
   flags are atomics and stay responsive on every poll, the absolute
   deadline is allowed to overshoot by a stride's worth of loop
   iterations. *)
let clock_stride = 32

let probe (t : t) : bool =
  Atomic.incr t.checkpoints;
  if cancel_requested t then true
  else begin
    let h = horizon t in
    if h = infinity then false
    else begin
      let s = Atomic.fetch_and_add t.skew 1 in
      if s mod clock_stride <> 0 then false
      else Clock.now () >= h
    end
  end

(** Poll the calling thread's token: raises {!Expired} when the token
    (or any ancestor) is cancelled or past its deadline.  A no-op when
    the thread has no token. *)
let check () : unit =
  if Atomic.get active <> 0 then
    match current () with
    | None -> ()
    | Some t -> if probe t then raise Expired

(** [expired t] without raising — for callers that want to poll a token
    they hold directly (e.g. a dispatcher waiting on a helper). *)
let expired (t : t) : bool =
  cancel_requested t
  || (let h = horizon t in
      h < infinity && Clock.now () >= h)
