(* The end-to-end benchmark program: verifies the seven examples/ groups
   through the public Jahob and Daemon.Server entry points, in one
   process, at -j 1, with one closed-loop client (each request waits for
   the previous reply).  See README.md for the workloads and metrics.

   Everything the program under test sees is generated from --seed under
   a per-run work directory: a copy of the corpus, the request lines, the
   group orders and the edit script.  Layer attribution in the traced run
   comes from outside lib/: prover wrappers passed in options.provers,
   spans around Server.handle, and the span/counter stream lib/trace
   already emits, read back from a JSONL sink.  End-to-end times are
   reported at a reference host speed (see Host-speed calibration). *)

open Jahob_core
module Server = Daemon.Server
module Store = Daemon.Store
module Json = Trace.Json
module Sequent = Logic.Sequent

let groups =
  [ "arrays"; "assoc"; "game"; "global"; "list"; "list_annotated"; "stack" ]

let prover_names = [ "smt"; "bapa"; "mona"; "fol" ]

(* cold_corpus's set-up is a millisecond long, so it is repeated this often
   and the median reported; a daemon's set-up is a full verification pass *)
let cold_setups = 61

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let now = Clock.now

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The smallest sample with more than a share [p] of the samples at or
   below it: always an observed latency, and for p = 0.5 and an even
   count the upper middle one.  cold_corpus's middle groups (arrays and
   stack) take about the same time, and the lower middle sample flips
   between them from run to run. *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (int_of_float (p *. float n)))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                              *)
(* ------------------------------------------------------------------ *)

(* A shared host's speed drifts by up to half from one second to the
   next, for all code alike: a process's CPU time drifts with its wall
   time, so neither measures the program alone.  Each timed step is
   therefore bracketed by bursts of a fixed calibration kernel, and its
   time is also reported at reference speed: the wall time of each of its
   segments times [calib_ref_s] over the mean of the bursts at the
   segment's ends.  The kernel is short-lived allocation, tree building
   and sorting, like the verifier's symbolic work, and keeps nothing
   alive, so it does not depend on the program's heap or code. *)

let calib_ref_s = 0.004

type node = Leaf of int | Node of node * node

let rec build d k =
  if d = 0 then Leaf k else Node (build (d - 1) ((k * 3) + 1), build (d - 1) ((k * 5) + 2))

let rec fold = function
  | Leaf k -> k land 1023
  | Node (a, b) -> ((fold a * 31) + fold b) land max_int

module Smap = Map.Make (String)

let kernel () =
  let acc = ref 0 in
  for i = 1 to 400 do
    let l = List.init 64 (fun j -> ((j * 7919) + i) land 255) in
    acc := !acc + fold (build 8 i) + List.fold_left ( + ) 0 (List.sort compare l)
  done;
  for r = 1 to 2 do
    let m = ref Smap.empty in
    for i = 1 to 1500 do
      m := Smap.add (string_of_int ((i * 7919 * r) mod 10007)) i !m
    done;
    acc := !acc + Smap.cardinal !m
  done;
  !acc

(* false in the traced replay, whose times are not reported end to end *)
let calibrating = ref true
let last_burst : float option ref = ref None
let bursts : float list ref = ref []
let burst_total = ref 0.

let burst () =
  let t0 = now () in
  ignore (Sys.opaque_identity (kernel ()));
  let dt = now () -. t0 in
  bursts := dt :: !bursts;
  burst_total := !burst_total +. dt;
  last_burst := Some dt;
  dt

(* the next step is not preceded by a burst: work ran since the last one *)
let unbracket () = last_burst := None

(* The step being measured: wall and reference-speed time of its closed
   segments, and the start and opening burst of the open one.  A step
   of seconds is split at prover calls into segments of about
   [segment_s], so that each is timed against the speed of its own
   moment. *)
type step = {
  mutable wall : float;
  mutable norm : float;
  mutable start : float;
  mutable opening : float;
}

let segment_s = 0.25
let current : step option ref = ref None

let close_segment st =
  let d = now () -. st.start in
  let b = burst () in
  st.wall <- st.wall +. d;
  st.norm <- st.norm +. (d *. calib_ref_s *. 2. /. (st.opening +. b));
  st.opening <- b;
  st.start <- now ()

let checkpoint () =
  match !current with
  | Some st when now () -. st.start > segment_s -> close_segment st
  | _ -> ()

(* [f ()], with its wall time and its time at reference speed, bursts
   left out of both; the burst that ends one step begins the next *)
let measured (f : unit -> 'a) : 'a * float * float =
  if not !calibrating then begin
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    (v, dt, dt)
  end
  else begin
    let opening = match !last_burst with Some b -> b | None -> burst () in
    let st = { wall = 0.; norm = 0.; start = now (); opening } in
    current := Some st;
    let v = Fun.protect ~finally:(fun () -> current := None) f in
    close_segment st;
    (v, st.wall, st.norm)
  end

(* ------------------------------------------------------------------ *)
(* Prover wrappers                                                     *)
(* ------------------------------------------------------------------ *)

(* per-prover attempt statistics, over every call: the dispatcher's
   cascade and shape inference's smt/fol checks go through the same
   wrapped provers *)
type pstat = {
  mutable attempts : int;
  mutable settled : int;
  mutable unknown_s : float;
  mutable max_s : float;
}

let pstats : (string, pstat) Hashtbl.t = Hashtbl.create 4

let pstat name =
  match Hashtbl.find_opt pstats name with
  | Some s -> s
  | None ->
    let s = { attempts = 0; settled = 0; unknown_s = 0.; max_s = 0. } in
    Hashtbl.replace pstats name s;
    s

(* same prover_name, so admission and scheduling are unchanged *)
let wrap (p : Sequent.prover) : Sequent.prover =
  { p with
    Sequent.prove =
      (fun s ->
        checkpoint ();
        let t0 = now () in
        let record settled =
          let dt = now () -. t0 in
          let st = pstat p.Sequent.prover_name in
          st.attempts <- st.attempts + 1;
          if settled then st.settled <- st.settled + 1
          else st.unknown_s <- st.unknown_s +. dt;
          st.max_s <- Float.max st.max_s dt
        in
        match p.Sequent.prove s with
        | v ->
          record (match v with Sequent.Unknown _ -> false | _ -> true);
          v
        | exception e ->
          record false;
          raise e) }

let bench_opts () =
  { (Jahob.default_options ()) with
    Jahob.jobs = 1;
    provers = List.map wrap (Jahob.default_provers ()) }

(* ------------------------------------------------------------------ *)
(* The generated corpus and its source-text states                     *)
(* ------------------------------------------------------------------ *)

let source_files g =
  let dir = Filename.concat "examples" g in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".java")
  |> sorted
  |> List.map (Filename.concat dir)

(* a group's source text: (basename, contents) per file *)
type text = (string * string) list

let originals : (string * text) list Lazy.t =
  lazy
    (List.map
       (fun g ->
         (g, List.map (fun p -> (Filename.basename p, read_file p)) (source_files g)))
       groups)

let write_text dir (t : text) : string list =
  mkdir_p dir;
  List.map
    (fun (base, contents) ->
      let p = Filename.concat dir base in
      write_file p contents;
      p)
    t

(* Offsets just past the '{' of each method body: a brace at class-body
   depth whose last significant character (comments and literals
   skipped) is the ')' of a signature. *)
let method_body_sites (src : string) : int list =
  let n = String.length src in
  let rec skip_to i stop =
    if i >= n then n
    else if String.sub src i (min (String.length stop) (n - i)) = stop then
      i + String.length stop
    else skip_to (i + 1) stop
  in
  let rec skip_lit i q =
    if i >= n then n
    else if src.[i] = '\\' then skip_lit (i + 2) q
    else if src.[i] = q then i + 1
    else skip_lit (i + 1) q
  in
  let rec go i depth last acc =
    if i >= n then List.rev acc
    else
      match src.[i] with
      | '/' when i + 1 < n && src.[i + 1] = '/' -> go (skip_to i "\n") depth last acc
      | '/' when i + 1 < n && src.[i + 1] = '*' -> go (skip_to (i + 2) "*/") depth last acc
      | ('"' | '\'') as q -> go (skip_lit (i + 1) q) depth q acc
      | '{' ->
        let acc = if depth = 1 && last = ')' then (i + 1) :: acc else acc in
        go (i + 1) (depth + 1) '{' acc
      | '}' -> go (i + 1) (depth - 1) '}' acc
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) depth last acc
      | c -> go (i + 1) depth c acc
  in
  go 0 0 ' ' []

(* [text] with [line] inserted at offset [off] of file [base] *)
let insert (t : text) (base, off) line : text =
  List.map
    (fun (b, contents) ->
      if b <> base then (b, contents)
      else
        ( b,
          String.sub contents 0 off ^ line
          ^ String.sub contents off (String.length contents - off) ))
    t

(* The texts one group's edits walk through, once per pass: for each
   method body, in a seeded order, insert the assert at its top, revert,
   make a comment-only edit at the top of the group's first file, revert.
   Every pass makes the same edits, so the mix of requests does not depend
   on the seed, and the set of texts checked against a fresh verification
   is the same in every run. *)
let edit_cycle rng (t : text) : text list =
  let sites =
    List.concat_map
      (fun (base, contents) -> List.map (fun o -> (base, o)) (method_body_sites contents))
      t
  in
  let comment = insert t (fst (List.hd t), 0) "// comment-only edit\n" in
  List.concat_map
    (fun site -> [ insert t site "\n//: assert \"0 <= 0\";\n"; t; comment; t ])
    (shuffle rng sites)

(* ------------------------------------------------------------------ *)
(* Verdicts, responses and the fresh reference                         *)
(* ------------------------------------------------------------------ *)

(* (method, obligation, verdict kind), sorted: what parity compares *)
type verdicts = (string * string * string) list

let report_verdicts (r : Jahob.program_report) : verdicts =
  List.concat_map
    (fun (m : Jahob.method_report) ->
      List.map
        (fun (rep : Dispatch.report) ->
          ( m.Jahob.method_name,
            rep.Dispatch.sequent.Sequent.name,
            Sequent.verdict_kind rep.Dispatch.verdict ))
        m.Jahob.obligations.Dispatch.reports)
    r.Jahob.methods
  |> sorted

(* what a request keeps of its response: the run holds every request *)
type outcome = {
  digest : string; (* of the sorted verdicts *)
  decided : int; (* obligations answered valid or invalid *)
  total : int;
  invalid : int;
  reverified : int; (* methods verified rather than replayed *)
  unchanged : int;
}

let verdicts_digest (v : verdicts) =
  Digest.string (String.concat "\n" (List.map (fun (m, o, k) -> String.concat "\000" [ m; o; k ]) v))

let outcome (v : verdicts) ~reverified ~unchanged : outcome =
  let count k = List.length (List.filter (fun (_, _, k') -> k' = k) v) in
  { digest = verdicts_digest v; decided = count "valid" + count "invalid";
    total = List.length v; invalid = count "invalid"; reverified; unchanged }

let outcome_of_report (r : Jahob.program_report) : outcome =
  outcome (report_verdicts r) ~reverified:(List.length r.Jahob.methods) ~unchanged:0

let parse_response (line : string) : (outcome, string) result =
  let str k v = match Json.member k v with Some (Json.Str s) -> s | _ -> "" in
  match Json.parse_opt line with
  | None -> Error "malformed response line"
  | Some v -> (
    match (Json.member "error" v, Json.member "methods" v) with
    | Some e, _ -> Error (match e with Json.Str s -> s | _ -> "error response")
    | None, Some (Json.Arr ms) ->
      let verdicts =
        List.concat_map
          (fun m ->
            match Json.member "obligations" m with
            | Some (Json.Arr os) ->
              List.map (fun o -> (str "method" m, str "name" o, str "verdict" o)) os
            | _ -> [])
          ms
      in
      let unchanged =
        List.length
          (List.filter (fun m -> Json.member "changed" m = Some (Json.Bool false)) ms)
      in
      Ok (outcome (sorted verdicts) ~reverified:(List.length ms - unchanged) ~unchanged)
    | None, _ -> Error "response without \"methods\"")

let work_root = ".e2ebench_work"
let refs_dir = Filename.concat work_root "refs"

(* Results that are a function of a binary and a source text, memoized
   on disk across the runs in one checkout: fresh verifications of the
   list groups take seconds each. *)
let disk_memo (key_parts : string list) (compute : unit -> 'a) : 'a =
  let path =
    Filename.concat refs_dir (Digest.to_hex (Digest.string (String.concat "\000" key_parts)))
  in
  match In_channel.with_open_bin path Marshal.from_channel with
  | v -> v
  | exception _ ->
    let v = compute () in
    mkdir_p refs_dir;
    let tmp = path ^ ".tmp" in
    Out_channel.with_open_bin tmp (fun oc -> Marshal.to_channel oc v []);
    Sys.rename tmp path;
    v

let text_parts (t : text) = List.concat_map (fun (b, c) -> [ b; c ]) t

let program_digest = lazy (Digest.to_hex (Digest.file Sys.executable_name))
let fresh_digests : (text, string) Hashtbl.t = Hashtbl.create 64

(* the verdict digest of a fresh Jahob.verify_files of [t] *)
let fresh_digest ~(scratch : string) (t : text) : string =
  match Hashtbl.find_opt fresh_digests t with
  | Some d -> d
  | None ->
    let v =
      disk_memo ("fresh" :: Lazy.force program_digest :: text_parts t) (fun () ->
          let files = write_text (Filename.concat scratch "fresh") t in
          Logic.Form.clear_memos ();
          report_verdicts
            (Jahob.verify_files ~opts:{ (Jahob.default_options ()) with Jahob.jobs = 1 } files))
    in
    let d = verdicts_digest v in
    Hashtbl.replace fresh_digests t d;
    d

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type request = {
  group : string;
  text : text; (* the source text the request saw *)
  latency : float; (* wall time *)
  norm : float; (* at reference speed *)
  timed : bool; (* false for set-up requests *)
  result : (outcome, string) result Lazy.t;
      (* a daemon response is decoded after the timed phase, so decoding
         garbage does not fall on the next request's collections *)
}

let verify_line ~id ~incremental files =
  let files = String.concat "," (List.map (Printf.sprintf "%S") files) in
  Printf.sprintf "{\"id\":%d,\"cmd\":\"verify\",\"files\":[%s]%s}" id files
    (if incremental then ",\"incremental\":true" else "")

let next_id = ref 0

(* one daemon request through Server.handle *)
let daemon_request srv ~incremental ~timed group text files : request =
  incr next_id;
  let line = verify_line ~id:!next_id ~incremental files in
  let (resp, _), latency, norm =
    measured (fun () -> Trace.with_span ~cat:"bench" "handle" (fun () -> Server.handle srv line))
  in
  { group; text; latency; norm; timed; result = lazy (parse_response resp) }

(* one cold request: a fresh engine, as one CLI run per group *)
let cold_request group text files : request =
  Logic.Form.clear_memos ();
  let r, latency, norm =
    measured (fun () ->
        Trace.with_span ~cat:"bench" "verify" (fun () ->
            match Jahob.verify_files ~opts:(bench_opts ()) files with
            | r -> Ok r
            | exception e -> Error (Printexc.to_string e)))
  in
  { group; text; latency; norm; timed = true;
    result = Lazy.from_val (Result.map outcome_of_report r) }

(* The correctness gate, outside the timed region: a request fails if it
   raised or returned an error, reported an obligation invalid, or its
   verdicts differ from a fresh verification of the same text. *)
let check ~scratch (r : request) : string option =
  match Lazy.force r.result with
  | Error e -> Some ("error: " ^ e)
  | Ok o ->
    if o.invalid > 0 then Some "an obligation is invalid"
    else if o.digest <> fresh_digest ~scratch r.text then
      Some "verdicts differ from a fresh verification of the same text"
    else None

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type env = {
  rng : Random.State.t;
  dir : string; (* this run's work directory *)
  seconds : float;
  traced : bool;
}

type pass = float * request list (* wall time without bursts, requests *)

type outcome_of_run = {
  setups : float list;
  setup_reqs : request list;
  passes : pass list; (* the timed phase, tracing off *)
  replayed : pass list; (* the passes the traced run repeats *)
  traced : pass list; (* those requests again, traced; [] untraced *)
  store : Store.t option; (* the store of the last daemon used *)
  corpus : (string * (text * string list)) list; (* group -> original text, files *)
}

let trace_file env = Filename.concat env.dir "trace.jsonl"

let one_pass (pass : int -> request list) i : pass =
  unbracket ();
  let t0 = now () and b0 = !burst_total in
  let reqs = Trace.with_span ~cat:"bench" "pass" (fun () -> pass i) in
  (now () -. t0 -. (!burst_total -. b0), reqs)

(* a pass's time at reference speed: its requests' *)
let pass_norm ((_, reqs) : pass) = List.fold_left (fun a r -> a +. r.norm) 0. reqs

(* repeat [pass] until [seconds] have elapsed at reference speed, at
   least once: how much work a run does depends on the program, not on
   the host's speed, and so does what grows with it, such as the peak
   resident set *)
let timed_passes seconds (pass : int -> request list) : pass list =
  let rec go i elapsed acc =
    let p = one_pass pass i in
    let elapsed = elapsed +. pass_norm p in
    if elapsed < seconds then go (i + 1) elapsed (p :: acc) else List.rev (p :: acc)
  in
  go 0 0. []

(* the traced replay of [n] passes: tracing on, events to a JSONL sink,
   aggregates and prover statistics counted from zero *)
let traced_passes env n (pass : int -> request list) : pass list =
  calibrating := false;
  Trace.reset ();
  Hashtbl.reset pstats;
  Trace.open_sink (trace_file env);
  Trace.start_collecting ();
  Fun.protect ~finally:Trace.stop (fun () -> List.init n (one_pass pass))

(* a per-pass seeded group order, drawn once so a replay repeats it *)
let seeded_orders rng =
  let tbl = Hashtbl.create 16 in
  fun i ->
    match Hashtbl.find_opt tbl i with
    | Some o -> o
    | None ->
      let o = shuffle rng groups in
      Hashtbl.replace tbl i o;
      o

let write_corpus dir : (string * (text * string list)) list =
  List.map
    (fun (g, t) -> (g, (t, write_text (Filename.concat dir g) t)))
    (Lazy.force originals)

(* ---- cold_corpus ---- *)

let cold_corpus env : outcome_of_run =
  let dir = Filename.concat env.dir "corpus" in
  (* set-up: write the corpus copy and build an engine *)
  let setups =
    List.init cold_setups (fun _ ->
        let (), _, norm =
          measured (fun () ->
              rm_rf dir;
              ignore (write_corpus dir);
              Jahob.shutdown_engine (Jahob.create_engine (bench_opts ())))
        in
        norm)
  in
  let files = write_corpus dir in
  let order = seeded_orders env.rng in
  let pass i =
    List.map
      (fun g ->
        let t, fs = List.assoc g files in
        cold_request g t fs)
      (order i)
  in
  let passes = timed_passes env.seconds pass in
  let traced =
    if env.traced then traced_passes env (List.length passes) pass else []
  in
  { setups; setup_reqs = []; passes; replayed = passes; traced; store = None;
    corpus = files }

(* ---- the daemon workloads ---- *)

(* Server.create on an empty on-disk store plus the pass that fills it,
   with requests of the kind the workload times *)
let daemon_setup env ~incremental tag files : float * Server.t * request list =
  let cfg =
    { (Server.default_config ()) with
      Server.opts = bench_opts ();
      store_path = Some (Filename.concat env.dir (tag ^ ".jstore"));
      log = ignore }
  in
  Logic.Form.clear_memos ();
  unbracket ();
  let srv, _, norm = measured (fun () -> Server.create cfg) in
  let reqs =
    List.map
      (fun g ->
        let t, fs = List.assoc g files in
        daemon_request srv ~incremental ~timed:false g t fs)
      (shuffle env.rng groups)
  in
  (List.fold_left (fun a r -> a +. r.norm) norm reqs, srv, reqs)

(* A pass resubmits the seven unchanged groups, in a seeded order, as
   plain verify requests to the daemon the set-up filled.  Every pass
   finds the same store and caches, so passes repeat until --seconds
   have elapsed, and a traced run replays them on the same daemon. *)
let warm_resubmit env : outcome_of_run =
  let files = write_corpus (Filename.concat env.dir "corpus") in
  let setup, srv, setup_reqs = daemon_setup env ~incremental:false "store" files in
  let order = seeded_orders env.rng in
  let pass i =
    List.map
      (fun g ->
        let t, fs = List.assoc g files in
        daemon_request srv ~incremental:false ~timed:true g t fs)
      (order i)
  in
  let passes = timed_passes env.seconds pass in
  let traced =
    if env.traced then traced_passes env (List.length passes) pass else []
  in
  Server.shutdown srv;
  { setups = [ setup ]; setup_reqs; passes; replayed = passes; traced;
    store = Server.store srv; corpus = [] }

(* A pass walks every group through its edit cycle, interleaved: round r
   edits, in a seeded order, each group whose cycle has an r-th edit, and
   sends an incremental verify for it.  A pass starts and ends with every
   file at its original text.

   The daemon is set up on a fresh corpus copy and an empty store, and one
   timed pass follows, which takes longer than --seconds asks for: a
   second pass on the same daemon would find the edited methods' verdicts
   cached.  A traced run then sets up once more and replays the pass
   traced. *)
let edit_stream env : outcome_of_run =
  let cycles = List.map (fun (g, t) -> (g, edit_cycle env.rng t)) (Lazy.force originals) in
  let rounds =
    List.init
      (List.fold_left (fun n (_, c) -> max n (List.length c)) 0 cycles)
      (fun r ->
        List.filter_map
          (fun g -> Option.map (fun text -> (g, text)) (List.nth_opt (List.assoc g cycles) r))
          (shuffle env.rng groups))
  in
  let pass srv files _ =
    List.concat_map
      (List.map (fun (g, text) ->
           let _, fs = List.assoc g files in
           List.iter2 (fun f (_, contents) -> write_file f contents) fs text;
           daemon_request srv ~incremental:true ~timed:true g text fs))
      rounds
  in
  let share tag (timed : (int -> request list) -> pass list) =
    let files = write_corpus (Filename.concat env.dir ("corpus-" ^ tag)) in
    let dt, srv, reqs = daemon_setup env ~incremental:true ("store-" ^ tag) files in
    let passes = timed (pass srv files) in
    Server.shutdown srv;
    (dt, srv, reqs, passes)
  in
  let setup, srv, setup_reqs, passes = share "timed" (fun p -> [ one_pass p 0 ]) in
  if not env.traced then
    { setups = [ setup ]; setup_reqs; passes; replayed = []; traced = [];
      store = Server.store srv; corpus = [] }
  else begin
    (* the traced replay's set-up is not reported either *)
    calibrating := false;
    let _, srv, reqs, traced = share "traced" (traced_passes env 1) in
    { setups = [ setup ]; setup_reqs = setup_reqs @ reqs; passes; replayed = passes;
      traced; store = Server.store srv; corpus = [] }
  end

let workloads =
  [ ("cold_corpus", cold_corpus); ("warm_resubmit", warm_resubmit); ("edit_stream", edit_stream) ]

(* ------------------------------------------------------------------ *)
(* Cross-check against the CLI                                         *)
(* ------------------------------------------------------------------ *)

(* decided and attempted obligations of [jahob verify -j 1 FILES], summed
   over its "<m>: N obligations: v valid, i invalid, u unknown" lines *)
let cli_counts cli (t : text) files : int * int =
  disk_memo ("cli" :: Digest.to_hex (Digest.file cli) :: text_parts t) @@ fun () ->
  let ic = Unix.open_process_args_in cli (Array.of_list (cli :: "verify" :: "-j" :: "1" :: files)) in
  let out = In_channel.input_all ic in
  ignore (Unix.close_process_in ic);
  List.fold_left
    (fun (d, t) line ->
      match String.index_opt line ':' with
      | Some i when not (String.starts_with ~prefix:" " line) -> (
        let rest = String.sub line (i + 1) (String.length line - i - 1) in
        try
          Scanf.sscanf rest " %d obligations: %d valid, %d invalid, %d unknown"
            (fun n v inv _ -> (d + v + inv, t + n))
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> (d, t))
      | _ -> (d, t))
    (0, 0)
    (String.split_on_char '\n' out)

(* ------------------------------------------------------------------ *)
(* Trace analysis                                                      *)
(* ------------------------------------------------------------------ *)

type spans = {
  self : (string, float) Hashtbl.t; (* key -> self time *)
  outer : (string, float) Hashtbl.t; (* key -> time of outermost spans *)
  count : (string, int) Hashtbl.t;
  mutable wall : float; (* total of the top-level bench:pass spans *)
}

(* Self time from the B/E nesting: a span's duration minus what its child
   spans cover.  prover:* and obligation:prove nest inside vcgen:wp
   during invariant inference, so per-name totals would double-count. *)
let analyse_trace path : spans =
  let sp =
    { self = Hashtbl.create 32; outer = Hashtbl.create 32;
      count = Hashtbl.create 32; wall = 0. }
  in
  let bump tbl k x =
    Hashtbl.replace tbl k (x +. Option.value ~default:0. (Hashtbl.find_opt tbl k))
  in
  (* per thread: (key, start, time covered by children) *)
  let stacks : (int, (string * float * float ref) list) Hashtbl.t = Hashtbl.create 4 in
  In_channel.with_open_text path (fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match Json.parse_opt line with
          | None -> ()
          | Some v ->
            let str k = match Json.member k v with Some (Json.Str s) -> s | _ -> "" in
            let num k = match Json.member k v with Some (Json.Num x) -> x | _ -> 0. in
            let tid = int_of_float (num "tid") and ts = num "ts" in
            let key = if str "cat" = "" then str "name" else str "cat" ^ ":" ^ str "name" in
            let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
            match str "ph" with
            | "B" -> Hashtbl.replace stacks tid ((key, ts, ref 0.) :: stack)
            | "E" -> (
              match stack with
              | (k, t0, kids) :: rest ->
                let dur = ts -. t0 in
                bump sp.self k (dur -. !kids);
                Hashtbl.replace sp.count k
                  (1 + Option.value ~default:0 (Hashtbl.find_opt sp.count k));
                if not (List.exists (fun (k', _, _) -> k' = k) rest) then
                  bump sp.outer k dur;
                (match rest with
                | (_, _, parent_kids) :: _ -> parent_kids := !parent_kids +. dur
                | [] -> if k = "bench:pass" then sp.wall <- sp.wall +. dur);
                Hashtbl.replace stacks tid rest
              | [] -> ())
            | _ -> ());
          loop ()
      in
      loop ());
  sp

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let ratio a b = if b = 0. then 0. else a /. b

let requests_of passes = List.concat_map snd passes

let decided_total reqs =
  List.fold_left
    (fun (d, t) r ->
      match Lazy.force r.result with
      | Ok o -> (d + o.decided, t + o.total)
      | Error _ -> (d, t))
    (0, 0) reqs

let group_median_s reqs g =
  median (List.filter_map (fun r -> if r.group = g then Some r.norm else None) reqs)

(* times are at reference speed; the notes give the wall times beside them *)
let end_to_end (o : outcome_of_run) ~attempted ~failed ~rss : metric list * string list =
  let reqs = requests_of o.passes in
  let norm_ms = List.map (fun r -> 1000. *. r.norm) reqs in
  let wall_ms = List.map (fun r -> 1000. *. r.latency) reqs in
  let n = List.length norm_ms in
  let d, t = decided_total reqs in
  let beyond p = n - 1 - min (n - 1) (int_of_float (p *. float n)) in
  ( [ m "setup_s" "s" (median o.setups);
      m "pass_s" "s" (median (List.map pass_norm o.passes));
      m "request_ms_p50" "ms" (percentile 0.5 norm_ms);
      m "request_ms_p90" "ms" (percentile 0.9 norm_ms);
      m "decided_ratio" "ratio" (ratio (float d) (float t));
      m "ok_ratio" "ratio" (1. -. ratio (float failed) (float attempted));
      m "peak_rss_mb" "MB" rss ],
    [ Printf.sprintf "calibration: median burst %.3f ms over %d bursts, reference %.3f ms"
        (1000. *. median !bursts) (List.length !bursts) (1000. *. calib_ref_s);
      Printf.sprintf "setup_s: median of %d set-ups" (List.length o.setups);
      Printf.sprintf "pass_s: median of %d passes; wall time %.6f s" (List.length o.passes)
        (median (List.map fst o.passes));
      Printf.sprintf "request_ms_p50: %d samples, %d beyond; wall time %.6f ms" n (beyond 0.5)
        (percentile 0.5 wall_ms);
      Printf.sprintf "request_ms_p90: %d samples, %d beyond; wall time %.6f ms" n (beyond 0.9)
        (percentile 0.9 wall_ms);
      Printf.sprintf "decided_ratio: %d/%d obligations" d t ] )

let per_layer env (o : outcome_of_run) : metric list =
  let sp = analyse_trace (trace_file env) in
  let self k = Option.value ~default:0. (Hashtbl.find_opt sp.self k) in
  let count k = float (Option.value ~default:0 (Hashtbl.find_opt sp.count k)) in
  let counters = Trace.counter_list () in
  let ctr k = float (Option.value ~default:0 (List.assoc_opt k counters)) in
  (* self times that partition the traced wall time, with unattributed_s *)
  let layers =
    [ m "javaparser.parse_s" "s" (self "frontend:parse");
      m "gcl.desugar_s" "s" (self "frontend:desugar");
      m "vcgen.wp_s" "s" (self "vcgen:wp");
      m "vcgen.split_s" "s" (self "vcgen:split");
      m "core.self_s" "s"
        (self "verify:method" +. self "verify:round" +. self "frontend:ctx-digest");
      m "dispatch.overhead_s" "s" (self "obligation:prove");
      m "dispatch.simplify_s" "s" (self "dispatch:simplify");
      m "dispatch.saturate_s" "s" (self "dispatch:saturate") ]
    @ List.map (fun p -> m (p ^ ".time_s") "s" (self ("prover:" ^ p))) prover_names
    @ [ m "daemon.handle_s" "s" (self "bench:handle") ]
  in
  let attributed = List.fold_left (fun a x -> a +. x.value) 0. layers in
  let traced_reqs = requests_of o.traced in
  let reverified, unchanged =
    List.fold_left
      (fun (rv, un) r ->
        match Lazy.force r.result with
        | Ok x -> (rv + x.reverified, un + x.unchanged)
        | Error _ -> (rv, un))
      (0, 0) traced_reqs
  in
  let untraced_wall = List.fold_left (fun a (w, _) -> a +. w) 0. o.replayed in
  let hits = ctr "cache.hit" and misses = ctr "cache.miss" in
  let prover p =
    let s = pstat p in
    [ m (p ^ ".attempts") "count" (float s.attempts);
      m (p ^ ".settled") "count" (float s.settled);
      m (p ^ ".settle_ratio") "ratio" (ratio (float s.settled) (float s.attempts));
      m (p ^ ".unknown_s") "s" s.unknown_s;
      m (p ^ ".max_attempt_s") "s" s.max_s ]
  in
  let store_bytes =
    match o.store with
    | Some s when Sys.file_exists (Store.path s) ->
      float (Unix.stat (Store.path s)).Unix.st_size
    | _ -> 0.
  in
  layers
  @ [ m "unattributed_s" "s" (sp.wall -. attributed);
      m "trace.wall_s" "s" sp.wall;
      m "trace.overhead_ratio" "ratio" (ratio sp.wall untraced_wall);
      m "vcgen.wp_calls" "count" (count "vcgen:wp");
      m "vcgen.obligations" "count" (ctr "vcgen.obligations");
      m "shape.memo_hits" "count" (ctr "shape.memo_hit");
      m "core.rounds" "count" (count "verify:round");
      m "core.drop_memo_hits" "count" (ctr "jahob.drop_memo_hit");
      m "core.reverified_methods" "count" (float reverified);
      m "core.unchanged_methods" "count" (float unchanged);
      m "core.reverify_ratio" "ratio" (ratio (float reverified) (float (reverified + unchanged)));
      m "dispatch.prove_s" "s" (Option.value ~default:0. (Hashtbl.find_opt sp.outer "obligation:prove"));
      m "dispatch.cache_hits" "count" hits;
      m "dispatch.cache_misses" "count" misses;
      m "dispatch.cache_hit_ratio" "ratio" (ratio hits (hits +. misses));
      m "dispatch.unknown_not_cached" "count" (ctr "cache.unknown_not_cached") ]
  @ List.map (fun p -> m ("dispatch.sched_skipped." ^ p) "count" (ctr ("sched.skipped." ^ p))) prover_names
  @ List.concat_map prover prover_names
  @ [ m "fol.index_scanned" "count" (ctr "fol.index.scanned");
      m "fol.index_retrieved" "count" (ctr "fol.index.retrieved");
      m "daemon.store_entries" "count"
        (match o.store with Some s -> float (Store.entries s) | None -> 0.);
      m "daemon.store_method_records" "count"
        (match o.store with Some s -> float (Store.method_count s) | None -> 0.);
      m "daemon.store_bytes" "bytes" store_bytes ]
  @ List.map (fun g -> m ("group." ^ g ^ "_s") "s" (group_median_s (requests_of o.passes) g)) groups

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* Compute, once per build, every reference answer a run can check against:
   the fresh verdicts of each text the workloads send, and the CLI's counts
   on the original groups.  Runs then only read them, so a run's duration
   and peak memory do not depend on whether it is the first. *)
let prepare ~dir ~cli =
  let scratch = Filename.concat dir "fresh" in
  List.iter
    (fun (g, t) ->
      List.iter
        (fun text -> ignore (fresh_digest ~scratch text))
        (t :: edit_cycle (Random.State.make [| 0 |]) t);
      if cli <> "" then
        ignore (cli_counts cli t (write_text (Filename.concat (Filename.concat dir "cli") g) t)))
    (Lazy.force originals)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let cli = ref "" and prepare_only = ref false in
  Arg.parse
    [ ("--prepare", Arg.Set prepare_only, " compute the reference answers and exit");
      ("--workload", Arg.Set_string workload, " cold_corpus | warm_resubmit | edit_stream");
      ("--seed", Arg.Set_int seed, " seed for every generated input");
      ("--seconds", Arg.Set_int seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1: traced replay, print per-layer metrics");
      ("--cli", Arg.Set_string cli, " jahob binary for the cold_corpus cross-check") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e --workload W --seed N --seconds S --trace 0|1 [--cli JAHOB] | e2e --prepare [--cli JAHOB]";
  let dir = Filename.concat work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  if !prepare_only then begin
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> prepare ~dir ~cli:!cli);
    exit 0
  end;
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      rm_rf dir;
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let env =
    { rng = Random.State.make [| !seed |]; dir; seconds = float !seconds;
      traced = !trace = 1 }
  in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let o = run env in
  let rss = peak_rss_mb () in
  (* the correctness gate, after the clock *)
  let scratch = Filename.concat dir "fresh" in
  let all_reqs = o.setup_reqs @ requests_of o.passes @ requests_of o.traced in
  let failures =
    List.filter_map
      (fun r -> Option.map (fun why -> (r, why)) (check ~scratch r))
      all_reqs
  in
  let cross =
    if !cli = "" || !workload <> "cold_corpus" then []
    else
      let first = match o.passes with (_, rs) :: _ -> rs | [] -> [] in
      List.filter_map
        (fun (g, (text, fs)) ->
          let d, t = cli_counts !cli text fs in
          let bd, bt = decided_total (List.filter (fun r -> r.group = g) first) in
          if (d, t) = (bd, bt) then None
          else
            Some
              (Printf.sprintf "cross-check %s: jahob verify -j 1 decided %d/%d, benchmark %d/%d"
                 g d t bd bt))
        o.corpus
  in
  let attempted = List.length all_reqs in
  let failed = min attempted (List.length failures + List.length cross) in
  Printf.printf "workload %s, seed %d, %d s, trace %d\n" !workload !seed !seconds !trace;
  List.iter
    (fun (r, why) ->
      Printf.printf "FAILED %s request on %s: %s\n"
        (if r.timed then "timed" else "set-up") r.group why)
    failures;
  List.iter (fun s -> Printf.printf "FAILED %s\n" s) cross;
  Printf.printf "error_ratio: %d/%d requests\n" failed attempted;
  (match o.store with
  | Some s -> Printf.printf "daemon.store_method_records: %d at end of run\n" (Store.method_count s)
  | None -> ());
  let metrics =
    if env.traced then per_layer env o
    else begin
      let ms, notes = end_to_end o ~attempted ~failed ~rss in
      List.iter print_endline notes;
      ms
    end
  in
  List.iter (fun x -> Printf.printf "%-34s %16.6f %s\n" x.name x.value x.unit_) metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (json_number x.value) x.unit_)
          metrics))
