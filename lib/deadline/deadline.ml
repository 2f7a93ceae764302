(** Cooperative deadlines and cancellation for long-running provers.

    OCaml cannot interrupt pure computation from the outside, so every
    search loop in the portfolio (DPLL decisions, resolution iterations,
    Cooper elimination steps, automata product construction) polls
    {!check} at its loop head.  A caller that wants to bound or abort the
    computation binds a {!type:token} around it with {!with_token}; once
    the token's deadline passes — or someone calls {!cancel} — the next
    {!check} under that binding raises {!Expired} and the search unwinds
    back to the caller.  Nothing runs on another thread: a budget is
    noticed at the next checkpoint, on the thread that asked for it.

    Tokens nest: a child token created with [?parent] expires as soon as
    any ancestor does, so cancelling an enclosing token reaches through
    a budget bound inside it.

    Cost model: a token is bound to the calling domain through one
    [Domain.DLS] slot, so {!check} takes no lock: one slot read when no
    token is bound, otherwise an atomic increment, the cancel flags along
    the parent chain and, every [clock_stride] polls, a clock read —
    some loops checkpoint every few hundred nanoseconds.  Systhreads of
    one domain share its slot. *)

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
(* Domain binding                                                      *)
(* ------------------------------------------------------------------ *)

let slot : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(** The token bound to the calling domain, if any. *)
let current () : t option = Domain.DLS.get slot

(** Run [f] with [t] bound as the calling domain's token.  Restores the
    previous binding (if any) on exit, so bindings nest. *)
let with_token (t : t) (f : unit -> 'a) : 'a =
  let previous = Domain.DLS.get slot in
  Domain.DLS.set slot (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set slot previous) f

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

(** Poll the calling domain's token: raises {!Expired} when the token
    (or any ancestor) is cancelled or past its deadline.  A no-op when
    no token is bound. *)
let check () : unit =
  match Domain.DLS.get slot with
  | None -> ()
  | Some t -> if probe t then raise Expired
