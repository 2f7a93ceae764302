(** The one clock helper: monotonic time for measuring and scheduling.

    Deadlines, prover budgets and trace timestamps all need to measure
    {e elapsed} time.  They used to read
    [Unix.gettimeofday], which measures the {e wall clock} — a clock
    that steps backwards and forwards under NTP corrections and
    suspend/resume.  In a one-shot CLI run that is a rare nuisance; in a
    resident daemon it is a guarantee: a wall-clock step cancels every
    running prover early (or never), and a negative step records
    negative span durations in the trace.

    {!now} is therefore CLOCK_MONOTONIC (via the bechamel clock stub —
    the [unix] library of OCaml 5.1 does not expose [clock_gettime]):
    seconds against an arbitrary origin, strictly unaffected by wall
    time.  Only durations and comparisons of {!now} values are
    meaningful; anything user-facing that needs a date uses {!wall}.

    {!wall} additionally applies a test-only offset ({!set_wall_offset})
    so the deadline regression tests can simulate an NTP/suspend step
    and assert that deadlines and budgets no longer care. *)

(* CLOCK_MONOTONIC in nanoseconds; noalloc C stub, safe from any domain *)
let now_ns () : int64 = Monotonic_clock.now ()

(** Monotonic seconds since an arbitrary origin.  Never steps, never
    goes backwards.  Use for every deadline, budget, latency sample and
    trace timestamp. *)
let now () : float = Int64.to_float (now_ns ()) *. 1e-9

(* test-only simulated wall-clock step, in seconds *)
let wall_offset : float Atomic.t = Atomic.make 0.

(** The wall clock — calendar time, for display and file timestamps
    only.  Scheduling or measuring with this is a bug; that is what the
    deadline regression tests enforce by stepping it. *)
let wall () : float = Unix.gettimeofday () +. Atomic.get wall_offset

(** Simulate a wall-clock step (NTP correction, suspend/resume) of
    [seconds].  Affects {!wall} only: a correct caller of {!now} must be
    untouched by any offset, which is exactly what the deadline
    regression tests assert. *)
let set_wall_offset (seconds : float) : unit = Atomic.set wall_offset seconds
