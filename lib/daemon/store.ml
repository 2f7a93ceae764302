(** The persistent on-disk verdict store.

    A verdict cache dies with its process; the store is what makes
    verification answers survive it.  It is a marshalled table from
    canonical sequent digests ({!Logic.Sequent.digest} — the same keys
    the in-memory {!Dispatch.Cache} uses) to settled verdicts, with
    three properties the daemon architecture needs:

    {ul
    {- {b Self-invalidation.}  The file carries a {e digest-scheme
       fingerprint}: the MD5 of the canonical printings and digests of a
       battery of probe sequents that exercise every ambiguity the
       canonical printer disambiguates (Le vs Subseteq, Lt vs Subset,
       Minus vs Diff, binder sorts, lambdas, comprehensions).  Any
       change to the printer or the binder-sort conventions changes the
       fingerprint, and a store written under the old scheme is refused
       with a {e logged cold start} — never silently consulted, because
       its keys may now collide with different obligations.}
    {- {b Crash atomicity.}  {!save} marshals to a temporary file in the
       store's directory and [rename]s it over the target.  A crash
       (power cut, [kill -9]) at any point leaves either the old store
       or the new one, never a torn hybrid; a load that does find a
       truncated or corrupt file (e.g. from a pre-rename crash of some
       other writer) recovers with a logged cold start, never an
       exception.}
    {- {b Bounded size.}  Entries carry a logical-clock recency stamp
       (bumped on lookup and insertion); past the configurable entry cap
       the least recently used entries are evicted at {!save} time.}}

    Concurrent writers (two CLI clients sharing one store path) are
    handled by merging: {!save} re-reads the file it is about to replace
    and unions the other writer's fresh entries into its own before
    renaming.  Verdicts are semantic facts keyed by canonical digests,
    so a union can never replace a verdict with a contradictory one —
    the race only decides whose recency stamps win. *)

open Logic
open Jahob_core

type entry = {
  verdict : Sequent.verdict; (* Valid or Invalid only; never Unknown *)
  prover : string option;
  mutable used : int; (* logical clock of the last lookup/insertion *)
}

(** How opening the store went — surfaced so the daemon can log it and
    the tests can assert on it. *)
type status =
  | Fresh (** no file at the path: empty store, first run *)
  | Warm of int (** loaded this many settled verdicts from disk *)
  | Cold of string (** file refused (corrupt/stale scheme): reason *)

let status_to_string = function
  | Fresh -> "fresh (no store file)"
  | Warm n -> Printf.sprintf "warm (%d verdicts)" n
  | Cold why -> Printf.sprintf "cold start (%s)" why

type t = {
  path : string;
  cap : int;
  log : string -> unit;
  mutable clock : int;
  table : (string, entry) Hashtbl.t;
  methods : (string, Jahob.stored_method) Hashtbl.t;
      (* the dependency index (schema v2): per-method structural digest,
         context digest, dependency digests and settled verdicts — what
         incremental re-verification consults before regenerating VCs *)
  mutable status : status;
  mutable dirty : bool; (* entries added since the last save *)
  lock : Mutex.t;
}

let default_cap = 100_000

(* ------------------------------------------------------------------ *)
(* The digest-scheme fingerprint                                       *)
(* ------------------------------------------------------------------ *)

(* bump when the persisted layout itself changes *)
let format_version = "jahob-store/4"

(* every probe pokes at a convention the canonical printer encodes:
   integer vs set comparison tokens, set difference vs minus, binder
   sorts, lambda bodies, comprehensions, cardinalities, heap reads *)
let probe_texts =
  [ "x <= y";
    "A <= B";
    "x < y";
    "A < B";
    "x - y = 0";
    "card (A - B) = 0";
    "ALL x. x..f = x";
    "EX x. x : A";
    "rtrancl_pt (% u v. u..next = v) h x";
    "card {z. z : A} = 1";
  ]

(* computed once per process; a racing second computation yields the
   same string *)
let fingerprint_memo : string option ref = ref None

(** The fingerprint of the digest scheme in force in this binary. *)
let fingerprint () : string =
  match !fingerprint_memo with
  | Some fp -> fp
  | None ->
    let buf = Buffer.create 512 in
    Buffer.add_string buf format_version;
    List.iter
      (fun text ->
        match Parser.parse_opt text with
        | Some f ->
          let s = Sequent.make [] f in
          Buffer.add_char buf '\n';
          Buffer.add_string buf
            (Pprint.to_canonical_string
               (Form.alpha_normalize ~keep_types:true f));
          Buffer.add_char buf '|';
          Buffer.add_string buf (Sequent.digest s)
        | None ->
          (* a probe the parser no longer accepts is itself a scheme
             change: fold the failure into the fingerprint *)
          Buffer.add_string buf ("\nunparseable:" ^ text))
      probe_texts;
    let fp = Digest.to_hex (Digest.string (Buffer.contents buf)) in
    fingerprint_memo := Some fp;
    fp

(* ------------------------------------------------------------------ *)
(* Disk format                                                         *)
(* ------------------------------------------------------------------ *)

(* magic line first, so `head -1` identifies the file and a truncated
   or foreign file fails before Marshal ever runs.  Older magics are
   recognized only to be refused with a precise reason — running
   Marshal against an old payload with the current type would be
   undefined behavior, so the version check must happen on raw bytes. *)
let magic = "jahob-verdict-store/4\n"

let old_magics =
  [ ("jahob-verdict-store/3\n", "v3 (WS1S-engine key in method records)");
    ("jahob-verdict-store/2\n", "v2 (older method-record layout)");
    ("jahob-verdict-store\n", "v1 (no dependency index)") ]

type persisted = {
  p_fingerprint : string;
  p_clock : int;
  p_entries : (string * Sequent.verdict * string option * int) array;
  p_methods : Jahob.stored_method array;
}

(* Read a store file into a [persisted], or say why not.  Any exception
   (truncation, bad magic, Marshal version skew) becomes [Error]. *)
let read_file (path : string) : (persisted, string) result =
  match open_in_bin path with
  | exception Sys_error e -> Error ("unreadable: " ^ e)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          let n = min (in_channel_length ic) (String.length magic) in
          let m = really_input_string ic n in
          if m = magic then begin
            let (p : persisted) = Marshal.from_channel ic in
            Ok p
          end
          else
            match
              List.find_opt
                (fun (old, _) -> String.starts_with ~prefix:old m)
                old_magics
            with
            | Some (_, what) ->
              Error
                ("version skew: store format " ^ what ^ ", this binary \
                  writes v4")
            | None -> Error "bad magic (not a verdict store)"
        with
        | End_of_file -> Error "truncated store file"
        | Failure e -> Error ("corrupt store file: " ^ e)
        | e -> Error ("corrupt store file: " ^ Printexc.to_string e))

let default_log msg = Printf.eprintf "[store] %s\n%!" msg

(** Open the store at [path].  A missing file is a {!Fresh} start;
    an unreadable, truncated or wrong-fingerprint file is a {e logged}
    {!Cold} start (the bad file is left in place until the next
    {!save} replaces it atomically). *)
let load ?(cap = default_cap) ?(log = default_log) (path : string) : t =
  let t =
    { path; cap = (if cap <= 0 then max_int else cap); log; clock = 0;
      table = Hashtbl.create 256; methods = Hashtbl.create 64;
      status = Fresh; dirty = false; lock = Mutex.create () }
  in
  (if Sys.file_exists path then
     match read_file path with
     | Error why ->
       t.status <- Cold why;
       log (Printf.sprintf "%s: cold start — %s" path why)
     | Ok p ->
       if p.p_fingerprint <> fingerprint () then begin
         t.status <-
           Cold
             (Printf.sprintf
                "digest-scheme fingerprint mismatch (store %s, binary %s)"
                (String.sub p.p_fingerprint 0 8)
                (String.sub (fingerprint ()) 0 8));
         log
           (Printf.sprintf
              "%s: cold start — digest scheme changed (store fingerprint \
               %s, this binary %s); stale verdicts will not be served"
              path
              (String.sub p.p_fingerprint 0 8)
              (String.sub (fingerprint ()) 0 8))
       end
       else begin
         Array.iter
           (fun (k, verdict, prover, used) ->
             Hashtbl.replace t.table k { verdict; prover; used })
           p.p_entries;
         Array.iter
           (fun (sm : Jahob.stored_method) ->
             Hashtbl.replace t.methods sm.Jahob.sm_name sm)
           p.p_methods;
         t.clock <- p.p_clock;
         t.status <- Warm (Hashtbl.length t.table);
         log
           (Printf.sprintf "%s: warm start — %d verdicts, %d method \
                            records on disk" path
              (Hashtbl.length t.table) (Hashtbl.length t.methods))
       end);
  t

let status (t : t) : status = t.status
let path (t : t) : string = t.path

let entries (t : t) : int =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

(* ------------------------------------------------------------------ *)
(* Lookup and insertion                                                *)
(* ------------------------------------------------------------------ *)

let find (t : t) (digest : string) : (Sequent.verdict * string option) option =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.table digest with
    | None -> None
    | Some e ->
      t.clock <- t.clock + 1;
      e.used <- t.clock;
      Some (e.verdict, e.prover)
  in
  Mutex.unlock t.lock;
  (match r with
  | Some _ -> Trace.incr "store.hit"
  | None -> Trace.incr "store.miss");
  r

(** Record a settled verdict.  [Unknown] is rejected: the in-memory
    cache keeps one only for the portfolio that produced it in this
    process, while the store is keyed by the bare digest and outlives
    the process. *)
let add (t : t) (digest : string) (verdict : Sequent.verdict)
    (prover : string option) : unit =
  match verdict with
  | Sequent.Unknown _ -> ()
  | Sequent.Valid | Sequent.Invalid _ ->
    Mutex.lock t.lock;
    t.clock <- t.clock + 1;
    (match Hashtbl.find_opt t.table digest with
    | Some e -> e.used <- t.clock
    | None ->
      Hashtbl.replace t.table digest { verdict; prover; used = t.clock };
      t.dirty <- true);
    Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* The method/dependency index (schema v2)                             *)
(* ------------------------------------------------------------------ *)

let find_method (t : t) (name : string) : Jahob.stored_method option =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.methods name in
  Mutex.unlock t.lock;
  (match r with
  | Some _ -> Trace.incr "store.method_hit"
  | None -> Trace.incr "store.method_miss");
  r

let record_method (t : t) (sm : Jahob.stored_method) : unit =
  Mutex.lock t.lock;
  Hashtbl.replace t.methods sm.Jahob.sm_name sm;
  t.dirty <- true;
  Mutex.unlock t.lock

let remove_method (t : t) (name : string) : unit =
  Mutex.lock t.lock;
  if Hashtbl.mem t.methods name then begin
    Hashtbl.remove t.methods name;
    t.dirty <- true
  end;
  Mutex.unlock t.lock

let list_methods (t : t) : string list =
  Mutex.lock t.lock;
  let r = Hashtbl.fold (fun n _ acc -> n :: acc) t.methods [] in
  Mutex.unlock t.lock;
  List.sort compare r

let method_count (t : t) : int =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.methods in
  Mutex.unlock t.lock;
  n

(** The store as a {!Jahob.method_source} — what
    {!Jahob.verify_program_inc} reads and writes.  Thread-safe: every
    operation takes the store lock. *)
let source (t : t) : Jahob.method_source =
  { Jahob.find_method = find_method t;
    record_method = record_method t;
    remove_method = remove_method t;
    list_methods = (fun () -> list_methods t) }

(* ------------------------------------------------------------------ *)
(* Cache integration                                                   *)
(* ------------------------------------------------------------------ *)

(** Every settled on-disk verdict, ready for {!Dispatch.Cache.preload}. *)
let to_preload (t : t) : (string * Dispatch.Cache.entry) list =
  Mutex.lock t.lock;
  let r =
    Hashtbl.fold
      (fun k (e : entry) acc ->
        (k, { Dispatch.Cache.verdict = e.verdict; prover = e.prover }) :: acc)
      t.table []
  in
  Mutex.unlock t.lock;
  r

(** Pull every settled verdict out of [cache] into the store.  Returns
    how many were new. *)
let absorb_cache (t : t) (cache : Dispatch.Cache.t) : int =
  let before =
    Mutex.lock t.lock;
    let n = Hashtbl.length t.table in
    Mutex.unlock t.lock;
    n
  in
  Dispatch.Cache.fold_settled cache
    (fun () k (e : Dispatch.Cache.entry) ->
      add t k e.Dispatch.Cache.verdict e.Dispatch.Cache.prover)
    ();
  entries t - before

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

(* evict least-recently-used entries until [table] is within [cap] *)
let trim_locked (t : t) : int =
  let excess = Hashtbl.length t.table - t.cap in
  if excess <= 0 then 0
  else begin
    let victims =
      Hashtbl.fold (fun k e acc -> (e.used, k) :: acc) t.table []
      |> List.sort compare
    in
    List.iteri
      (fun i (_, k) -> if i < excess then Hashtbl.remove t.table k)
      victims;
    excess
  end

(** Write the store to disk: merge in whatever a concurrent writer put
    at the path since we loaded it, evict LRU past the cap, marshal to a
    temp file and atomically rename it into place.  A crash at any
    point leaves the previous file intact. *)
let save (t : t) : unit =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      (* union a concurrent writer's entries (same fingerprint only);
         our own stamps win on conflict, which is all the race decides *)
      (if Sys.file_exists t.path then
         match read_file t.path with
         | Ok p when p.p_fingerprint = fingerprint () ->
           Array.iter
             (fun (k, verdict, prover, used) ->
               if not (Hashtbl.mem t.table k) then
                 Hashtbl.replace t.table k { verdict; prover; used })
             p.p_entries;
           Array.iter
             (fun (sm : Jahob.stored_method) ->
               if not (Hashtbl.mem t.methods sm.Jahob.sm_name) then
                 Hashtbl.replace t.methods sm.Jahob.sm_name sm)
             p.p_methods
         | Ok _ | Error _ -> ());
      let evicted = trim_locked t in
      if evicted > 0 then
        t.log
          (Printf.sprintf "%s: evicted %d least-recently-used entries \
                           (cap %d)" t.path evicted t.cap);
      let p =
        { p_fingerprint = fingerprint ();
          p_clock = t.clock;
          p_entries =
            Hashtbl.fold
              (fun k (e : entry) acc ->
                (k, e.verdict, e.prover, e.used) :: acc)
              t.table []
            |> List.sort compare |> Array.of_list;
          p_methods =
            Hashtbl.fold (fun _ sm acc -> sm :: acc) t.methods []
            |> List.sort compare |> Array.of_list }
      in
      let dir = Filename.dirname t.path in
      let tmp =
        Filename.temp_file ~temp_dir:dir
          (Filename.basename t.path ^ ".tmp.") ""
      in
      let oc = open_out_bin tmp in
      (try
         output_string oc magic;
         Marshal.to_channel oc p [];
         close_out oc
       with e ->
         close_out_noerr oc;
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      (* the atomic commit point: rename never exposes a torn file *)
      Unix.rename tmp t.path;
      t.dirty <- false;
      Trace.incr "store.saved")

let dirty (t : t) : bool = t.dirty

(** [sync t] — save only if something changed since the last save. *)
let sync (t : t) : unit = if t.dirty then save t
