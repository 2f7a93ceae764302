(** The persistent on-disk verdict store.

    A verdict cache dies with its process; the store is what makes
    verification answers survive it.  It is the file format of one
    {!Dispatch.Cache}: the cache's settled verdicts, keyed by canonical
    sequent digests ({!Logic.Sequent.digest}), plus the per-method
    records incremental re-verification reads.  {!load} preloads the
    cache from the file and {!save} writes the cache back; the store
    itself holds no verdicts, so a settled obligation lives in one
    table.  Four properties the daemon architecture needs:

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
    {- {b Framing.}  After the magic line come the payload's length and
       MD5; both are checked before [Marshal] runs, so a torn, truncated
       or bit-flipped file is a logged cold start, never an exception or
       a crash.}
    {- {b Crash atomicity.}  {!save} writes a temporary file in the
       store's directory and [rename]s it over the target.  A crash
       (power cut, [kill -9]) at any point leaves either the old store
       or the new one, never a torn hybrid.}
    {- {b Bounded size.}  The file holds what the cache holds, so the
       cache's cap ([--cache-cap]) and its least-recently-used epochs
       bound the file too.}}

    Concurrent writers (two CLI clients sharing one store path) are
    handled by merging: {!save} re-reads the file it is about to replace
    and keeps the other writer's verdicts and method records that its own
    cache lacks, while the file stays within the cache's cap — except the
    method records this process removed since its last load or save.  Verdicts
    are semantic facts keyed by canonical digests, so a union can never
    replace a verdict with a contradictory one. *)

open Logic
open Jahob_core

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
  cache : Dispatch.Cache.t option; (* the verdict table the file persists *)
  methods : (string, Jahob.stored_method) Hashtbl.t;
      (* the dependency index: per-method structural digest, context
         digest, dependency digests and settled verdicts — what
         incremental re-verification consults before regenerating VCs *)
  removed : (string, unit) Hashtbl.t;
      (* method records removed since the last load or save: the merge
         in {!save} must not bring them back from the file *)
  mutable status : status;
  mutable entries : int; (* verdicts in the file at the last load or save *)
  mutable methods_changed : bool; (* since the last load or save *)
  mutable saved_misses : int; (* the cache's misses at the last load or save *)
  lock : Mutex.t;
}

(* ------------------------------------------------------------------ *)
(* The digest-scheme fingerprint                                       *)
(* ------------------------------------------------------------------ *)

(* bump when the persisted layout itself changes *)
let format_version = "jahob-store/6"

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

(* magic line first, so `head -1` identifies the file and a foreign file
   fails before Marshal ever runs.  Older magics are recognized only to
   be refused with a precise reason — running Marshal against an old
   payload with the current type would be undefined behavior, so the
   version check must happen on raw bytes. *)
let magic = "jahob-verdict-store/6\n"

let old_magics =
  [ ( "jahob-verdict-store/5\n",
      "v5 (may hold an invalid that a hypothesis filter made)" );
    ("jahob-verdict-store/4\n", "v4 (own verdict table, no checksum)");
    ("jahob-verdict-store/3\n", "v3 (WS1S-engine key in method records)");
    ("jahob-verdict-store/2\n", "v2 (older method-record layout)");
    ("jahob-verdict-store\n", "v1 (no dependency index)") ]

type persisted = {
  p_fingerprint : string;
  p_entries : (string * Dispatch.Cache.entry) array; (* settled, key-sorted *)
  p_methods : Jahob.stored_method array;
}

(* the line between the magic and the payload: its length and MD5 *)
let frame (payload : string) : string =
  Printf.sprintf "%d %s\n" (String.length payload)
    (Digest.to_hex (Digest.string payload))

(* the payload of a v6 file's [body] (everything after the magic line),
   once its length and checksum match the frame *)
let unframe (body : string) : (string, string) result =
  let header n md5 off = (n, md5, off) in
  match Scanf.sscanf_opt body "%d %32[0-9a-f]\n%n" header with
  | None -> Error "corrupt store file: bad frame"
  | Some (n, md5, off) ->
    if String.length body - off <> n then Error "truncated store file"
    else
      let payload = String.sub body off n in
      if Digest.to_hex (Digest.string payload) <> md5 then
        Error "corrupt store file: checksum mismatch"
      else Ok payload

(* Read a store file written by this binary's digest scheme, or say why
   not.  Any exception (I/O, Marshal) becomes [Error]. *)
let read_file (path : string) : (persisted, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error ("unreadable: " ^ e)
  | data -> (
    let m = String.length magic in
    if String.starts_with ~prefix:magic data then
      match unframe (String.sub data m (String.length data - m)) with
      | Error _ as e -> e
      | Ok payload -> (
        match (Marshal.from_string payload 0 : persisted) with
        | exception e -> Error ("corrupt store file: " ^ Printexc.to_string e)
        | p when p.p_fingerprint <> fingerprint () ->
          Error
            (Printf.sprintf
               "digest-scheme fingerprint mismatch (store %s, binary %s); \
                stale verdicts will not be served"
               (String.sub p.p_fingerprint 0 8)
               (String.sub (fingerprint ()) 0 8))
        | p -> Ok p)
    else
      match
        List.find_opt
          (fun (old, _) -> String.starts_with ~prefix:old data)
          old_magics
      with
      | Some (_, what) ->
        Error ("version skew: store format " ^ what ^ ", this binary writes v6")
      | None -> Error "bad magic (not a verdict store)")

let default_log msg = Printf.eprintf "[store] %s\n%!" msg

let cache_misses = Option.fold ~none:0 ~some:Dispatch.Cache.misses

(** Open the store at [path] for [cache] (none under [--no-cache]) and
    preload the cache with the file's verdicts.  A missing file is a
    {!Fresh} start; an unreadable, truncated, corrupt or
    wrong-fingerprint file is a {e logged} {!Cold} start (the bad file
    is left in place until the next {!save} replaces it atomically). *)
let load ?(log = default_log) ~(cache : Dispatch.Cache.t option)
    (path : string) : t =
  let t =
    { path; cache; methods = Hashtbl.create 64; removed = Hashtbl.create 8;
      status = Fresh;
      entries = 0; methods_changed = false;
      saved_misses = cache_misses cache; lock = Mutex.create () }
  in
  (if Sys.file_exists path then
     match read_file path with
     | Error why ->
       t.status <- Cold why;
       log (Printf.sprintf "%s: cold start — %s" path why)
     | Ok p ->
       Option.iter
         (fun c -> Dispatch.Cache.preload c (Array.to_list p.p_entries))
         cache;
       Array.iter
         (fun (sm : Jahob.stored_method) ->
           Hashtbl.replace t.methods sm.Jahob.sm_name sm)
         p.p_methods;
       t.entries <- Array.length p.p_entries;
       t.status <- Warm t.entries;
       log
         (Printf.sprintf "%s: warm start — %d verdicts, %d method records \
                          on disk" path t.entries (Hashtbl.length t.methods)));
  t

let status (t : t) : status = t.status
let path (t : t) : string = t.path

(** The verdicts in the file at the last {!load} or {!save}. *)
let entries (t : t) : int = Mutex.protect t.lock (fun () -> t.entries)

(* ------------------------------------------------------------------ *)
(* The method/dependency index                                         *)
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
  Hashtbl.remove t.removed sm.Jahob.sm_name;
  t.methods_changed <- true;
  Mutex.unlock t.lock

let remove_method (t : t) (name : string) : unit =
  Mutex.lock t.lock;
  if Hashtbl.mem t.methods name then begin
    Hashtbl.remove t.methods name;
    Hashtbl.replace t.removed name ();
    t.methods_changed <- true
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
    {!Jahob.verify} reads and writes when incremental.  Thread-safe: every
    operation takes the store lock. *)
let source (t : t) : Jahob.method_source =
  { Jahob.find_method = find_method t;
    record_method = record_method t;
    remove_method = remove_method t;
    list_methods = (fun () -> list_methods t) }

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

(** Write the cache's settled verdicts and the method records to disk:
    merge in what a concurrent writer put at the path since we loaded it
    (while the file stays within the cache's cap, and leaving out the
    method records removed here since), write a temp file and
    atomically rename it into place.  Without a cache the file's verdicts
    carry over unchanged.  A crash at any point leaves the previous file
    intact. *)
let save (t : t) : unit =
  Mutex.protect t.lock (fun () ->
      let misses = cache_misses t.cache in
      let disk =
        match read_file t.path with
        | Ok p -> p
        | Error _ -> { p_fingerprint = ""; p_entries = [||]; p_methods = [||] }
      in
      let entries =
        match t.cache with
        | None -> disk.p_entries
        | Some c ->
          let table = Hashtbl.create 256 in
          Dispatch.Cache.fold_settled c
            (fun () k e -> Hashtbl.replace table k e)
            ();
          Array.iter
            (fun (k, e) ->
              if Hashtbl.length table < Dispatch.Cache.cap c
                 && not (Hashtbl.mem table k)
              then Hashtbl.replace table k e)
            disk.p_entries;
          Hashtbl.fold (fun k e acc -> (k, e) :: acc) table []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          |> Array.of_list
      in
      Array.iter
        (fun (sm : Jahob.stored_method) ->
          let n = sm.Jahob.sm_name in
          if not (Hashtbl.mem t.methods n || Hashtbl.mem t.removed n) then
            Hashtbl.replace t.methods n sm)
        disk.p_methods;
      let payload =
        Marshal.to_string
          { p_fingerprint = fingerprint ();
            p_entries = entries;
            p_methods =
              Hashtbl.fold (fun _ sm acc -> sm :: acc) t.methods []
              |> List.sort compare |> Array.of_list }
          []
      in
      let tmp =
        Filename.temp_file ~temp_dir:(Filename.dirname t.path)
          (Filename.basename t.path ^ ".tmp.") ""
      in
      (try
         Out_channel.with_open_bin tmp (fun oc ->
             output_string oc magic;
             output_string oc (frame payload);
             output_string oc payload)
       with e ->
         (try Sys.remove tmp with Sys_error _ -> ());
         raise e);
      (* the atomic commit point: rename never exposes a torn file *)
      Unix.rename tmp t.path;
      t.entries <- Array.length entries;
      Hashtbl.reset t.removed;
      t.methods_changed <- false;
      t.saved_misses <- misses;
      Trace.incr "store.saved")

(** Whether a {!save} could write anything new: the cache took a miss
    (so may have settled a verdict) or a method record changed since the
    last load or save. *)
let dirty (t : t) : bool =
  Mutex.protect t.lock (fun () ->
      t.methods_changed || cache_misses t.cache <> t.saved_misses)

(** [sync t] — save only if {!dirty}. *)
let sync (t : t) : unit = if dirty t then save t
