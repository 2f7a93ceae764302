(** Daemon tests: the persistent verdict store (round-trips, crash
    survival, fingerprint self-invalidation, concurrent-writer merging,
    LRU eviction), the JSONL server (protocol round-trips, restart with
    identical verdicts), the monotonic-clock deadline regression, the
    bounded verdict cache's determinism under eviction, and the JSON
    [\uXXXX] decoding the protocol relies on. *)

open Logic

(* a scratch path that does not exist yet *)
let fresh_path () =
  let p = Filename.temp_file "jahob-store-test" ".jstore" in
  Sys.remove p;
  p

let quiet = ignore (* store logger for tests that don't assert on logs *)

let digest_of (hyps, goal) =
  Sequent.digest (Sequent.make (List.map Parser.parse hyps) (Parser.parse goal))

let d1 = digest_of ([ "x = 1" ], "x = 1")
let d2 = digest_of ([ "x <= y"; "y <= z" ], "x <= z")
let d3 = digest_of ([ "card A = 0" ], "A = emptyset")

let has_substring (hay : string) (sub : string) : bool =
  let n = String.length hay and m = String.length sub in
  let rec go i = i + m <= n && (String.sub hay i m = sub || go (i + 1)) in
  go 0

(* [cache] with [k] settled to [verdict], as a verify run leaves it *)
let settle (cache : Dispatch.Cache.t) k verdict prover =
  match Dispatch.Cache.acquire cache k with
  | Dispatch.Cache.Claimed ->
    Dispatch.Cache.publish cache k
      { Dispatch.Cache.verdict; prover }
  | Dispatch.Cache.Hit _ -> ()

(* what [cache] answers for [k], if anything *)
let lookup (cache : Dispatch.Cache.t) k =
  match Dispatch.Cache.acquire cache k with
  | Dispatch.Cache.Hit e ->
    Some (e.Dispatch.Cache.verdict, e.Dispatch.Cache.prover)
  | Dispatch.Cache.Claimed ->
    Dispatch.Cache.abandon cache k;
    None

(* open the store at [p] for a fresh cache *)
let load_fresh ?(log = quiet) ?cap p =
  let cache = Dispatch.Cache.create ?cap () in
  (cache, Daemon.Store.load ~log ~cache:(Some cache) p)

let expect_cold what s =
  match Daemon.Store.status s with
  | Daemon.Store.Cold why -> why
  | st ->
    Alcotest.failf "%s: expected cold start, got %s" what
      (Daemon.Store.status_to_string st)

(* ------------------------------------------------------------------ *)
(* Store: round-trips                                                  *)
(* ------------------------------------------------------------------ *)

let test_store_fresh () =
  let p = fresh_path () in
  let _, s = load_fresh p in
  Alcotest.(check bool) "fresh" true (Daemon.Store.status s = Daemon.Store.Fresh);
  Alcotest.(check int) "empty" 0 (Daemon.Store.entries s)

let test_store_round_trip () =
  let p = fresh_path () in
  let c, s = load_fresh p in
  Alcotest.(check bool) "clean after load" false (Daemon.Store.dirty s);
  settle c d1 Sequent.Valid (Some "smt");
  settle c d2 (Sequent.Invalid "cm") None;
  Alcotest.(check bool) "dirty after a miss" true (Daemon.Store.dirty s);
  Daemon.Store.save s;
  Alcotest.(check bool) "clean after save" false (Daemon.Store.dirty s);
  ignore (lookup c d1);
  Alcotest.(check bool) "a hit leaves it clean" false (Daemon.Store.dirty s);
  let c', s' = load_fresh p in
  Alcotest.(check bool) "warm" true
    (Daemon.Store.status s' = Daemon.Store.Warm 2);
  Alcotest.(check bool) "d1 verdict preloaded" true
    (lookup c' d1 = Some (Sequent.Valid, Some "smt"));
  Alcotest.(check bool) "d2 verdict preloaded" true
    (lookup c' d2 = Some (Sequent.Invalid "cm", None));
  Alcotest.(check bool) "absent key" true (lookup c' d3 = None);
  Sys.remove p

let test_store_rejects_unknown () =
  (* the cache replays an Unknown to the portfolio that produced it; the
     file, outliving the process, never holds one *)
  let p = fresh_path () in
  let c, s = load_fresh p in
  settle c d1 (Sequent.Unknown "gave up") None;
  Alcotest.(check bool) "the cache replays it" true
    (match Dispatch.Cache.acquire c d1 with
    | Dispatch.Cache.Hit _ -> true
    | Dispatch.Cache.Claimed -> false);
  Daemon.Store.save s;
  Alcotest.(check int) "unknown not persisted" 0 (Daemon.Store.entries s);
  let c', s' = load_fresh p in
  Alcotest.(check bool) "reloads empty" true
    (Daemon.Store.status s' = Daemon.Store.Warm 0);
  Alcotest.(check bool) "nothing replayed after reload" true
    (match Dispatch.Cache.acquire c' d1 with
    | Dispatch.Cache.Hit _ -> false
    | Dispatch.Cache.Claimed -> true);
  Sys.remove p

let test_store_drain_skips_unknown () =
  (* the in-memory cache keeps deterministic Unknowns for its own
     portfolio; writing it to the file carries only settled ones *)
  let p = fresh_path () in
  let cache, s = load_fresh p in
  let unknown =
    Dispatch.create ~cache
      [ { Sequent.prover_name = "giveup";
          prove = (fun _ -> Sequent.Unknown "out of fragment") } ]
  in
  let valid =
    Dispatch.create ~cache
      [ { Sequent.prover_name = "yes"; prove = (fun _ -> Sequent.Valid) } ]
  in
  let obligation hyps goal =
    Sequent.make (List.map Parser.parse hyps) (Parser.parse goal)
  in
  ignore (Dispatch.prove_sequent unknown (obligation [ "x < y" ] "p..g = q"));
  ignore (Dispatch.prove_sequent unknown (obligation [ "y < z" ] "p..h = q"));
  ignore (Dispatch.prove_sequent valid (obligation [ "x < z" ] "p..g = q"));
  let k = Dispatch.Cache.counters cache in
  Alcotest.(check int) "cache holds two unknowns" 2
    k.Dispatch.Cache.unknown_entries;
  Alcotest.(check int) "and one settled verdict" 3 k.Dispatch.Cache.entries;
  Daemon.Store.sync s;
  Alcotest.(check int) "only the settled verdict written" 1
    (Daemon.Store.entries s);
  let cache', s' = load_fresh p in
  Alcotest.(check bool) "reloads one verdict" true
    (Daemon.Store.status s' = Daemon.Store.Warm 1);
  let k' = Dispatch.Cache.counters cache' in
  Alcotest.(check (pair int int)) "no unknown preloaded" (1, 0)
    (k'.Dispatch.Cache.entries, k'.Dispatch.Cache.unknown_entries);
  Sys.remove p

(* ------------------------------------------------------------------ *)
(* Store: robustness                                                   *)
(* ------------------------------------------------------------------ *)

let write_store p =
  let c, s = load_fresh p in
  settle c d1 Sequent.Valid None;
  settle c d2 Sequent.Valid None;
  Daemon.Store.save s;
  In_channel.with_open_bin p In_channel.input_all

let test_store_truncated () =
  let p = fresh_path () in
  let full = write_store p in
  (* a torn write from a crashed pre-rename writer, and a file of the
     right length with one payload byte flipped *)
  let flipped =
    let b = Bytes.of_string full in
    let i = Bytes.length b - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  in
  List.iter
    (fun (what, bad) ->
      Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc bad);
      let logged = ref [] in
      let c, s =
        load_fresh ~log:(fun m -> logged := m :: !logged) p
      in
      ignore (expect_cold what s);
      Alcotest.(check int) (what ^ ": empty after cold start") 0
        (Daemon.Store.entries s);
      Alcotest.(check bool) (what ^ ": cold start logged") true
        (!logged <> []);
      (* the daemon can still write a good store over the bad one *)
      settle c d3 Sequent.Valid None;
      Daemon.Store.save s;
      Alcotest.(check bool) (what ^ ": recovered") true
        (Daemon.Store.status (snd (load_fresh p)) = Daemon.Store.Warm 1))
    [ ("truncated", String.sub full 0 (String.length full / 2));
      ("one byte flipped", flipped) ];
  Sys.remove p

let test_store_bad_magic () =
  let p = fresh_path () in
  let full = write_store p in
  List.iter
    (fun (what, bad) ->
      Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc bad);
      let why = expect_cold what (snd (load_fresh p)) in
      Alcotest.(check bool) (what ^ ": reason mentions magic") true
        (has_substring why "magic"))
    [ ("not a store", "not a store at all");
      ("magic byte flipped",
       "J" ^ String.sub full 1 (String.length full - 1)) ];
  Sys.remove p

(* replicate the on-disk layout with a foreign fingerprint: Marshal is
   structural, so an identically-shaped record round-trips *)
type fake_persisted = {
  f_fingerprint : string;
  f_entries : (string * Dispatch.Cache.entry) array;
  f_methods : Jahob_core.Jahob.stored_method array;
}

let test_store_fingerprint_mismatch () =
  let p = fresh_path () in
  let payload =
    Marshal.to_string
      { f_fingerprint = "0123456789abcdef0123456789abcdef";
        f_entries =
          [| (d1, { Dispatch.Cache.verdict = Sequent.Valid; prover = None }) |];
        f_methods = [||] }
      []
  in
  Out_channel.with_open_bin p (fun oc ->
      Printf.fprintf oc "jahob-verdict-store/6\n%d %s\n%s"
        (String.length payload)
        (Digest.to_hex (Digest.string payload))
        payload);
  let logged = ref [] in
  let c, s = load_fresh ~log:(fun m -> logged := m :: !logged) p in
  let why = expect_cold "fingerprint" s in
  Alcotest.(check bool) "reason names the fingerprint" true
    (has_substring why "fingerprint");
  Alcotest.(check bool) "mismatch logged" true (!logged <> []);
  Alcotest.(check int) "stale entries refused" 0 (Daemon.Store.entries s);
  Alcotest.(check bool) "stale verdict not preloaded" true (lookup c d1 = None);
  Sys.remove p

(* a v1 store (the pre-method-index format) must trigger a logged cold
   start with a version-skew reason — never a crash, and never a Marshal
   read of the old payload with the new record type *)
let test_store_v1_version_skew () =
  let p = fresh_path () in
  Out_channel.with_open_bin p (fun oc ->
      Out_channel.output_string oc "jahob-verdict-store\n";
      Out_channel.output_string oc "opaque v1 payload, never unmarshalled");
  let logged = ref [] in
  let c, s = load_fresh ~log:(fun m -> logged := m :: !logged) p in
  Alcotest.(check bool) "reason names the version skew" true
    (has_substring (expect_cold "v1" s) "version skew");
  Alcotest.(check bool) "skew logged" true (!logged <> []);
  Alcotest.(check int) "v1 entries refused" 0 (Daemon.Store.entries s);
  Alcotest.(check int) "v1 method records refused" 0
    (Daemon.Store.method_count s);
  (* the cold store is fully usable and rewrites the file as v6 *)
  settle c d1 Sequent.Valid None;
  Daemon.Store.save s;
  Alcotest.(check bool) "rewritten as v6" true
    (Daemon.Store.status (snd (load_fresh p)) = Daemon.Store.Warm 1);
  Sys.remove p

(* v2 to v5 stores carry Marshal payloads of older layouts or verdicts
   this binary does not trust (v5 may hold an [invalid] settled on a
   sequent whose unconnected hypotheses were dropped, v4 had the store's
   own verdict table and no checksum, v3 a WS1S-engine key, v2 predates
   it); each must be refused on its raw magic line with a version-skew
   reason naming the version, never unmarshalled *)
let test_store_v2_version_skew () =
  List.iter
    (fun v ->
      let p = fresh_path () in
      Out_channel.with_open_bin p (fun oc ->
          Out_channel.output_string oc ("jahob-verdict-store/" ^ v ^ "\n");
          Out_channel.output_string oc "opaque payload, never unmarshalled");
      let logged = ref [] in
      let _, s = load_fresh ~log:(fun m -> logged := m :: !logged) p in
      let why = expect_cold ("v" ^ v) s in
      Alcotest.(check bool) "reason names the version skew" true
        (has_substring why "version skew");
      Alcotest.(check bool) ("reason names v" ^ v) true
        (has_substring why ("v" ^ v));
      Alcotest.(check bool) "skew logged" true (!logged <> []);
      Alcotest.(check int) "old entries refused" 0 (Daemon.Store.entries s);
      Sys.remove p)
    [ "2"; "3"; "4"; "5" ]

(* the method/dependency index survives save/load, and so does a
   removal; without a cache (--no-cache) the file's verdicts carry over
   unchanged *)
let test_store_method_records () =
  let p = fresh_path () in
  ignore (write_store p);
  let s = Daemon.Store.load ~log:quiet ~cache:None p in
  let src = Daemon.Store.source s in
  let m1 =
    { Jahob_core.Jahob.sm_name = "C.m";
      sm_digest = "dg";
      sm_ctx = "ctx";
      sm_infer = true;
      sm_deps = [ ("ct:C.n", "d1"); ("inv:C", "d0") ];
      sm_verdicts = [ ("postcondition of m", "valid", "smt") ] }
  in
  src.Jahob_core.Jahob.record_method m1;
  src.Jahob_core.Jahob.record_method
    { m1 with Jahob_core.Jahob.sm_name = "C.n" };
  Alcotest.(check bool) "dirty after record" true (Daemon.Store.dirty s);
  Daemon.Store.save s;
  let s' = Daemon.Store.load ~log:quiet ~cache:None p in
  Alcotest.(check bool) "verdicts carried over" true
    (Daemon.Store.status s' = Daemon.Store.Warm 2);
  let src' = Daemon.Store.source s' in
  Alcotest.(check int) "two records on disk" 2 (Daemon.Store.method_count s');
  (match src'.Jahob_core.Jahob.find_method "C.m" with
  | Some m when m = m1 -> ()
  | Some _ -> Alcotest.fail "C.m record mutated across save/load"
  | None -> Alcotest.fail "C.m record lost");
  Alcotest.(check (list string)) "listing sorted" [ "C.m"; "C.n" ]
    (src'.Jahob_core.Jahob.list_methods ());
  src'.Jahob_core.Jahob.remove_method "C.m";
  Alcotest.(check bool) "removed" true
    (src'.Jahob_core.Jahob.find_method "C.m" = None);
  Alcotest.(check (list string)) "listing after removal" [ "C.n" ]
    (src'.Jahob_core.Jahob.list_methods ());
  (* the merge with the file must not bring the removed record back *)
  Daemon.Store.save s';
  Alcotest.(check (list string)) "removal survives the save" [ "C.n" ]
    (src'.Jahob_core.Jahob.list_methods ());
  let s'' = Daemon.Store.load ~log:quiet ~cache:None p in
  Alcotest.(check (list string)) "removal survives a reload" [ "C.n" ]
    (Daemon.Store.list_methods s'');
  Sys.remove p

let test_store_kill9_mid_write () =
  let p = fresh_path () in
  let c, s = load_fresh p in
  settle c d1 Sequent.Valid None;
  Daemon.Store.save s;
  (* a writer killed before its rename leaves only a stale temp file in
     the directory; the committed store must be untouched by it *)
  let tmp = p ^ ".tmp.killed" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc "jahob-verdict-store/6\ngarbage");
  let c', s' = load_fresh p in
  Alcotest.(check bool) "survives stale temp" true
    (Daemon.Store.status s' = Daemon.Store.Warm 1);
  Alcotest.(check bool) "verdict kept" true
    (lookup c' d1 = Some (Sequent.Valid, None));
  Sys.remove tmp;
  Sys.remove p

let test_store_concurrent_clients () =
  let p = fresh_path () in
  (* two clients share the path; each cache learns a different verdict *)
  let ca, a = load_fresh p in
  let cb, b = load_fresh p in
  settle ca d1 Sequent.Valid (Some "smt");
  settle cb d2 Sequent.Valid (Some "bapa");
  Daemon.Store.save a;
  Daemon.Store.save b;
  (* b's save merged a's entry instead of clobbering it *)
  let c, s = load_fresh p in
  Alcotest.(check bool) "union of both clients" true
    (Daemon.Store.status s = Daemon.Store.Warm 2);
  Alcotest.(check bool) "a's verdict survived" true
    (lookup c d1 = Some (Sequent.Valid, Some "smt"));
  Alcotest.(check bool) "b's verdict survived" true
    (lookup c d2 = Some (Sequent.Valid, Some "bapa"));
  Sys.remove p

let test_store_lru_eviction () =
  (* the file holds what the cache holds: a cache cap of 2 leaves the 2
     most recently used verdicts on disk, and the merge with the file
     being replaced does not bring the evicted one back *)
  let p = fresh_path () in
  let c, s = load_fresh ~cap:2 p in
  Dispatch.Cache.new_epoch c;
  settle c d1 Sequent.Valid None;
  settle c d2 Sequent.Valid None;
  ignore (Dispatch.Cache.trim c);
  Daemon.Store.save s;
  Alcotest.(check int) "both on disk" 2 (Daemon.Store.entries s);
  Dispatch.Cache.new_epoch c;
  settle c d3 Sequent.Valid None;
  ignore (lookup c d1);
  Alcotest.(check int) "the cap bit" 1 (Dispatch.Cache.trim c);
  Daemon.Store.save s;
  let c', s' = load_fresh p in
  Alcotest.(check bool) "capped" true
    (Daemon.Store.status s' = Daemon.Store.Warm 2);
  Alcotest.(check bool) "recently-used survived" true
    (lookup c' d1 <> None && lookup c' d3 <> None);
  Alcotest.(check bool) "LRU evicted" true (lookup c' d2 = None);
  Sys.remove p

(* ------------------------------------------------------------------ *)
(* Server: protocol round-trips                                        *)
(* ------------------------------------------------------------------ *)

let server ?store_path () =
  let opts =
    { (Jahob_core.Jahob.default_options ()) with Jahob_core.Jahob.jobs = 1 }
  in
  Daemon.Server.create
    { (Daemon.Server.default_config ()) with
      Daemon.Server.opts; store_path; log = ignore }

(* a JSON string literal via the writer the protocol uses *)
let jstr (s : string) : string =
  let b = Buffer.create (String.length s + 2) in
  Trace.Json.add_string b s;
  Buffer.contents b

let json_of (resp : string) : Trace.Json.t =
  match Trace.Json.parse_opt resp with
  | Some v -> v
  | None -> Alcotest.failf "response is not JSON: %s" resp

let member k v =
  match Trace.Json.member k v with
  | Some x -> x
  | None -> Alcotest.failf "response lacks %S" k

let test_server_ping_and_stats () =
  let t = server () in
  let resp, flow = Daemon.Server.handle t {|{"id":7,"cmd":"ping"}|} in
  Alcotest.(check bool) "continue" true (flow = `Continue);
  let v = json_of resp in
  Alcotest.(check bool) "id echoed" true (member "id" v = Trace.Json.Num 7.);
  Alcotest.(check bool) "pong" true (member "pong" v = Trace.Json.Str "jahob");
  let resp, _ = Daemon.Server.handle t {|{"id":8,"cmd":"stats"}|} in
  let v = json_of resp in
  Alcotest.(check bool) "requests counted" true
    (match member "requests" v with Trace.Json.Num n -> n >= 2. | _ -> false);
  Daemon.Server.shutdown t

let test_server_malformed () =
  let t = server () in
  let resp, flow = Daemon.Server.handle t {|{"id":1,"cmd":"nonsense"}|} in
  Alcotest.(check bool) "continue on error" true (flow = `Continue);
  let v = json_of resp in
  Alcotest.(check bool) "id echoed on error" true
    (member "id" v = Trace.Json.Num 1.);
  Alcotest.(check bool) "error reported" true
    (match member "error" v with Trace.Json.Str _ -> true | _ -> false);
  let resp, flow = Daemon.Server.handle t "this is not json" in
  Alcotest.(check bool) "continue on parse error" true (flow = `Continue);
  Alcotest.(check bool) "parse error reported" true
    (match member "error" (json_of resp) with
    | Trace.Json.Str _ -> true
    | _ -> false);
  Daemon.Server.shutdown t

(* [f ()] and the number of store writes it made *)
let with_saves f =
  Trace.reset ();
  Trace.start_collecting ();
  let r = Fun.protect ~finally:Trace.stop f in
  let n = Trace.counter_value "store.saved" in
  Trace.reset ();
  (r, n)

let test_server_prove_and_cache () =
  let p = fresh_path () in
  let t = server ~store_path:p () in
  let req = {|{"id":1,"cmd":"prove","hyps":["x <= y","y <= z"],"goal":"x <= z"}|} in
  let (resp, _), saves = with_saves (fun () -> Daemon.Server.handle t req) in
  let v = json_of resp in
  Alcotest.(check bool) "valid" true
    (member "verdict" v = Trace.Json.Str "valid");
  Alcotest.(check bool) "first proof not cached" true
    (member "cached" v = Trace.Json.Bool false);
  Alcotest.(check int) "the miss is saved" 1 saves;
  (* a request answered from the cache, changing no method record,
     writes nothing *)
  let (resp, _), saves = with_saves (fun () -> Daemon.Server.handle t req) in
  Alcotest.(check bool) "second proof cached" true
    (member "cached" (json_of resp) = Trace.Json.Bool true);
  Alcotest.(check int) "the hit is not" 0 saves;
  Daemon.Server.shutdown t;
  Sys.remove p

let test_server_unknown_replayed () =
  (* outside every prover's fragment, and no resource limit involved:
     the second request replays the Unknown, stats count it, and the
     store never receives it *)
  let p = fresh_path () in
  let t = server ~store_path:p () in
  let req = {|{"id":1,"cmd":"prove","hyps":[],"goal":"x * y = y * x"}|} in
  let v1 = json_of (fst (Daemon.Server.handle t req)) in
  let v2 = json_of (fst (Daemon.Server.handle t req)) in
  List.iter
    (fun v ->
      Alcotest.(check bool) "unknown" true
        (member "verdict" v = Trace.Json.Str "unknown"))
    [ v1; v2 ];
  Alcotest.(check bool) "first attempt proved" true
    (member "cached" v1 = Trace.Json.Bool false);
  Alcotest.(check bool) "second replayed" true
    (member "cached" v2 = Trace.Json.Bool true);
  let stats = json_of (fst (Daemon.Server.handle t {|{"cmd":"stats"}|})) in
  Alcotest.(check bool) "one unknown entry" true
    (member "cache_unknown_entries" stats = Trace.Json.Num 1.);
  Alcotest.(check bool) "one replay" true
    (member "cache_unknown_replayed" stats = Trace.Json.Num 1.);
  Daemon.Server.shutdown t;
  let _, s = load_fresh p in
  Alcotest.(check int) "store holds no Unknown" 0 (Daemon.Store.entries s);
  if Sys.file_exists p then Sys.remove p

(* the fully-verified example groups small enough for a unit test: every
   obligation settles, so every verdict reaches the store *)
let small_groups =
  [ [ "global/Buffer.java" ];
    [ "assoc/AssocClient.java"; "assoc/Assoc.java" ];
    [ "game/Game.java" ];
    [ "arrays/ArrayOps.java" ];
    [ "stack/Stack.java" ] ]

let test_server_restart_identical () =
  let p = fresh_path () in
  let reqs =
    List.mapi
      (fun i files ->
        Printf.sprintf {|{"id":%d,"cmd":"verify","files":[%s]}|} i
          (String.concat ","
             (List.map (fun f -> jstr (Fixtures.examples ^ "/" ^ f)) files)))
      small_groups
  in
  let t = server ~store_path:p () in
  let resps1 = List.map (fun req -> fst (Daemon.Server.handle t req)) reqs in
  Daemon.Server.shutdown t;
  (* the restarted daemon re-serves the same verdicts from disk *)
  let t2 = server ~store_path:p () in
  (match Option.map Daemon.Store.status (Daemon.Server.store t2) with
  | Some (Daemon.Store.Warm n) when n > 0 -> ()
  | st ->
    Alcotest.failf "expected warm store after restart, got %s"
      (match st with
      | Some s -> Daemon.Store.status_to_string s
      | None -> "no store"));
  let resps2 = List.map (fun req -> fst (Daemon.Server.handle t2 req)) reqs in
  Daemon.Server.shutdown t2;
  (* byte-identical verdicts: only the cached flags may differ (the
     first run proved, the restart re-served from disk) *)
  let normalize s =
    let b = Buffer.create (String.length s) in
    let pat = {|"cached":false|} and rep = {|"cached":true|} in
    let n = String.length s and m = String.length pat in
    let i = ref 0 in
    while !i < n do
      if !i + m <= n && String.sub s !i m = pat then begin
        Buffer.add_string b rep;
        i := !i + m
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  List.iter2
    (fun resp1 resp2 ->
      Alcotest.(check string) "restart verdicts identical" (normalize resp1)
        (normalize resp2);
      let v = json_of resp2 in
      Alcotest.(check bool) "verification ok" true
        (member "ok" v = Trace.Json.Bool true);
      (* and they came from the store, not from fresh prover runs *)
      let all_cached =
        match member "methods" v with
        | Trace.Json.Arr ms ->
          List.for_all
            (fun m ->
              match member "obligations" m with
              | Trace.Json.Arr obs ->
                List.for_all
                  (fun o -> member "cached" o = Trace.Json.Bool true)
                  obs
              | _ -> false)
            ms
        | _ -> false
      in
      Alcotest.(check bool) "all obligations cached after restart" true
        all_cached)
    resps1 resps2;
  Sys.remove p

(* the verify protocol's incremental mode: first request re-verifies
   everything as new, the second answers every method from the index *)
let test_server_incremental_protocol () =
  let file = Fixtures.examples ^ "/global/Buffer.java" in
  let req =
    Printf.sprintf {|{"id":1,"cmd":"verify","files":[%s],"incremental":true}|}
      (jstr file)
  in
  let t = server () in
  let methods_of v =
    match member "methods" v with
    | Trace.Json.Arr ms -> ms
    | _ -> Alcotest.fail "methods is not an array"
  in
  let num k v =
    match member k v with
    | Trace.Json.Num n -> int_of_float n
    | _ -> Alcotest.failf "%S is not a number" k
  in
  let resp1, _ = Daemon.Server.handle t req in
  let v1 = json_of resp1 in
  Alcotest.(check bool) "flagged incremental" true
    (member "incremental" v1 = Trace.Json.Bool true);
  Alcotest.(check int) "cold run answers nothing from the index" 0
    (num "unchanged" v1);
  Alcotest.(check int) "cold run re-verifies everything"
    (List.length (methods_of v1))
    (num "reverified" v1);
  List.iter
    (fun m ->
      Alcotest.(check bool) "cold method changed" true
        (member "changed" m = Trace.Json.Bool true);
      match member "invalidated_by" m with
      | Trace.Json.Arr [ Trace.Json.Str "new" ] -> ()
      | _ -> Alcotest.fail "cold method not invalidated by \"new\"")
    (methods_of v1);
  let resp2, _ = Daemon.Server.handle t req in
  let v2 = json_of resp2 in
  Alcotest.(check bool) "still ok" true (member "ok" v2 = Trace.Json.Bool true);
  Alcotest.(check int) "warm run re-verifies nothing" 0 (num "reverified" v2);
  Alcotest.(check int) "warm run all unchanged"
    (List.length (methods_of v2))
    (num "unchanged" v2);
  List.iter
    (fun m ->
      Alcotest.(check bool) "warm method unchanged" true
        (member "changed" m = Trace.Json.Bool false))
    (methods_of v2);
  Daemon.Server.shutdown t

(* a store-less daemon keeps its method records for the daemon's life:
   verifying another program in between must not sweep them *)
let test_server_incremental_two_programs () =
  let req id group =
    let dir = Fixtures.examples ^ "/" ^ group in
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".java")
      |> List.sort compare
      |> List.map (fun f -> jstr (dir ^ "/" ^ f))
    in
    Printf.sprintf {|{"id":%d,"cmd":"verify","files":[%s],"incremental":true}|}
      id (String.concat "," files)
  in
  let num k v =
    match member k v with
    | Trace.Json.Num n -> int_of_float n
    | _ -> Alcotest.failf "%S is not a number" k
  in
  let t = server () in
  let run r = json_of (fst (Daemon.Server.handle t r)) in
  let first = run (req 1 "stack") in
  ignore (run (req 2 "game"));
  let again = run (req 3 "stack") in
  Daemon.Server.shutdown t;
  Alcotest.(check bool) "stack has methods" true (num "reverified" first > 0);
  Alcotest.(check int) "nothing re-verified" 0 (num "reverified" again);
  Alcotest.(check int) "every stack method unchanged"
    (num "reverified" first) (num "unchanged" again)

(* every verify request parses under one frontend:parse span, the
   incremental one included; only the incremental one digests the
   desugaring context *)
let test_server_verify_spans () =
  let file = Fixtures.examples ^ "/global/Buffer.java" in
  let spans incremental =
    let t = server () in
    Trace.reset ();
    Trace.start_collecting ();
    let resp, _ =
      Daemon.Server.handle t
        (Printf.sprintf {|{"id":1,"cmd":"verify","files":[%s],"incremental":%b}|}
           (jstr file) incremental)
    in
    Trace.stop ();
    Daemon.Server.shutdown t;
    Alcotest.(check bool) "verified" true
      (member "ok" (json_of resp) = Trace.Json.Bool true);
    let count k =
      match List.assoc_opt k (Trace.span_stats ()) with
      | Some st -> st.Trace.count
      | None -> 0
    in
    let r = (count "frontend:parse", count "frontend:ctx-digest") in
    Trace.reset ();
    r
  in
  Alcotest.(check (pair int int)) "incremental: one parse, one ctx digest"
    (1, 1) (spans true);
  Alcotest.(check (pair int int)) "plain: one parse, no ctx digest" (1, 0)
    (spans false)

(* ------------------------------------------------------------------ *)
(* Soak: a resident daemon's live heap stays flat                      *)
(* ------------------------------------------------------------------ *)

let soak_request id group =
  let dir = Fixtures.examples ^ "/" ^ group in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".java")
    |> List.sort compare
    |> List.map (fun f -> jstr (dir ^ "/" ^ f))
  in
  Printf.sprintf {|{"id":%d,"cmd":"verify","files":[%s]}|} id
    (String.concat "," files)

(* live heap in KB after a full major collection *)
let live_kb () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8) / 1024

(* one daemon answers the same five small groups twelve times over; once
   the first pass has warmed its tables, every later pass is answered
   from them, so the live heap after pass 12 must match pass 2 *)
let test_server_soak_memory () =
  let t = server () in
  let reqs =
    List.mapi soak_request [ "arrays"; "assoc"; "game"; "global"; "stack" ]
  in
  let live = Array.make 13 0 in
  for pass = 1 to 12 do
    List.iter
      (fun req ->
        let resp, _ = Daemon.Server.handle t req in
        Alcotest.(check bool) "verified" true
          (member "ok" (json_of resp) = Trace.Json.Bool true))
      reqs;
    live.(pass) <- live_kb ()
  done;
  Daemon.Server.shutdown t;
  if live.(12) - live.(2) > 64 then
    Alcotest.failf "live heap grew from %d KB (pass 2) to %d KB (pass 12)"
      live.(2) live.(12)

(* ------------------------------------------------------------------ *)
(* Deadlines against a stepping wall clock                             *)
(* ------------------------------------------------------------------ *)

let test_deadline_survives_wall_step () =
  Fun.protect
    ~finally:(fun () -> Clock.set_wall_offset 0.)
    (fun () ->
      (* a generous monotonic deadline must not fire just because the
         wall clock stepped an hour in either direction mid-run *)
      let tok = Deadline.make ~deadline_in:30. () in
      Deadline.with_token tok (fun () ->
          Deadline.check ();
          Clock.set_wall_offset 3600.;
          for _ = 1 to 10_000 do
            Deadline.check ()
          done;
          Clock.set_wall_offset (-3600.);
          for _ = 1 to 10_000 do
            Deadline.check ()
          done);
      Alcotest.(check bool) "checkpoints observed" true
        (Deadline.checkpoints tok > 0))

let test_deadline_still_expires () =
  Fun.protect
    ~finally:(fun () -> Clock.set_wall_offset 0.)
    (fun () ->
      (* ...while a real (monotonic) timeout still fires even when the
         wall clock is simultaneously stepped far into the past *)
      Clock.set_wall_offset (-3600.);
      let tok = Deadline.make ~deadline_in:0.05 () in
      let expired =
        try
          Deadline.with_token tok (fun () ->
              let stop = Clock.now () +. 5. in
              while Clock.now () < stop do
                Deadline.check ()
              done;
              false)
        with Deadline.Expired -> true
      in
      Alcotest.(check bool) "monotonic deadline fired" true expired)

let test_clock_monotone () =
  Fun.protect
    ~finally:(fun () -> Clock.set_wall_offset 0.)
    (fun () ->
      let a = Clock.now () in
      Clock.set_wall_offset (-86_400.);
      let b = Clock.now () in
      Clock.set_wall_offset 86_400.;
      let c = Clock.now () in
      Alcotest.(check bool) "never steps back" true (b >= a && c >= b);
      (* the wall clock, by contrast, must follow the offset: that is
         how the tests above prove deadlines no longer read it *)
      Alcotest.(check bool) "wall clock follows offset" true
        (Clock.wall () -. Unix.gettimeofday () > 86_000.))

(* ------------------------------------------------------------------ *)
(* Bounded verdict cache: determinism under eviction                   *)
(* ------------------------------------------------------------------ *)

let yes_prover =
  { Sequent.prover_name = "yes"; prove = (fun _ -> Sequent.Valid) }

let distinct_sequents n =
  List.init n (fun i ->
      Sequent.make ~name:(Printf.sprintf "g%d" i) []
        (Parser.parse (Printf.sprintf "x = %d" i)))

let counters_after_eviction ~jobs =
  let cache = Dispatch.Cache.create ~cap:4 () in
  let pool = if jobs > 1 then Some (Dispatch.Pool.create ~jobs) else None in
  let d = Dispatch.create ?pool ~cache [ yes_prover ] in
  let batch = distinct_sequents 10 in
  (* two batches with an epoch boundary: the second re-proves whatever
     the trim between them evicted and hits whatever survived *)
  Dispatch.Cache.new_epoch cache;
  ignore (Dispatch.prove_all d batch);
  ignore (Dispatch.Cache.trim cache);
  Dispatch.Cache.new_epoch cache;
  ignore (Dispatch.prove_all d batch);
  ignore (Dispatch.Cache.trim cache);
  Option.iter Dispatch.Pool.shutdown pool;
  let k = Dispatch.Cache.counters cache in
  (k.Dispatch.Cache.hit_count, k.Dispatch.Cache.miss_count,
   k.Dispatch.Cache.entries, k.Dispatch.Cache.evicted_count)

let test_cache_eviction_deterministic () =
  let h1, m1, e1, v1 = counters_after_eviction ~jobs:1 in
  let h1', m1', e1', v1' = counters_after_eviction ~jobs:1 in
  let h4, m4, e4, v4 = counters_after_eviction ~jobs:4 in
  (* eviction really happened: the cap bit, and some of batch 2 were
     re-proved misses (which keys survive depends only on epochs and
     digests — never on the job count) *)
  Alcotest.(check bool) "evictions happened" true (v1 > 0);
  Alcotest.(check bool) "batch 2 re-missed evicted keys" true (m1 > 10);
  Alcotest.(check bool) "surviving keys hit" true (h1 > 0);
  Alcotest.(check (list int)) "repeat run identical"
    [ h1; m1; e1; v1 ] [ h1'; m1'; e1'; v1' ];
  Alcotest.(check (list int)) "parallel counters match sequential"
    [ h1; m1; e1; v1 ] [ h4; m4; e4; v4 ]

let test_cache_cap_via_options () =
  (* the --cache-cap plumbing: an engine built with a cap trims back
     under it at every batch boundary *)
  let opts =
    { (Jahob_core.Jahob.default_options ()) with
      Jahob_core.Jahob.jobs = 1; cache_cap = 3 }
  in
  let e = Jahob_core.Jahob.create_engine opts in
  let cache =
    match Jahob_core.Jahob.engine_cache e with
    | Some c -> c
    | None -> Alcotest.fail "engine has no cache"
  in
  let d = Jahob_core.Jahob.engine_dispatcher e in
  let n = 200 in
  Dispatch.Cache.new_epoch cache;
  ignore (Dispatch.prove_all d (distinct_sequents n));
  ignore (Dispatch.Cache.trim cache);
  let k = Dispatch.Cache.counters cache in
  (* after the trim exactly the cap survives and everything else is
     accounted as evicted *)
  Alcotest.(check int) "entries trimmed to the cap" 3
    k.Dispatch.Cache.entries;
  Alcotest.(check int) "every entry kept or evicted" n
    (k.Dispatch.Cache.entries + k.Dispatch.Cache.evicted_count);
  Alcotest.(check bool) "evictions counted" true
    (k.Dispatch.Cache.evicted_count > 0);
  Jahob_core.Jahob.shutdown_engine e

(* ------------------------------------------------------------------ *)
(* Digest stability under fresh-constant drift                         *)
(* ------------------------------------------------------------------ *)

let test_digest_fresh_renumbering () =
  (* the same obligation minted at different fresh-counter offsets (a
     daemon re-verifying a file) must key the same cache/store slot *)
  let mk x y =
    Sequent.make
      [ Form.mk_eq (Form.Var x) (Form.mk_int 1) ]
      (Form.mk_eq (Form.Var x) (Form.Var y))
  in
  let early = mk "tmp__3" "old_x__7" in
  let late = mk "tmp__1041" "old_x__2215" in
  Alcotest.(check string) "offset-invariant digest"
    (Sequent.digest early) (Sequent.digest late);
  (* distinct fresh constants must stay distinct: renumbering is
     injective, not a collapse *)
  let collapsed = mk "tmp__3" "tmp__3" in
  Alcotest.(check bool) "no false sharing" true
    (Sequent.digest early <> Sequent.digest collapsed)

(* ------------------------------------------------------------------ *)
(* JSON \uXXXX decoding                                                *)
(* ------------------------------------------------------------------ *)

let parsed_str s =
  match Trace.Json.parse_opt s with
  | Some (Trace.Json.Str v) -> v
  | _ -> Alcotest.failf "did not parse as a string: %s" s

let test_json_unicode_escapes () =
  Alcotest.(check string) "ASCII escape" "A" (parsed_str {|"A"|});
  Alcotest.(check string) "2-byte UTF-8" "\xc3\xa9" (parsed_str {|"é"|});
  Alcotest.(check string) "3-byte UTF-8" "\xe2\x82\xac"
    (parsed_str {|"€"|});
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80"
    (parsed_str {|"😀"|});
  Alcotest.(check string) "lone high surrogate" "\xef\xbf\xbd"
    (parsed_str {|"\ud800"|});
  Alcotest.(check string) "lone low surrogate" "\xef\xbf\xbd"
    (parsed_str {|"\ude00"|});
  Alcotest.(check string) "mixed text" "caf\xc3\xa9 \xf0\x9f\x98\x80!"
    (parsed_str {|"café 😀!"|})

let test_proto_escaping_round_trip () =
  (* what the server writes, its own parser must read back *)
  let tricky = "a\"b\\c\nd\te\xc3\xa9" in
  let line = jstr tricky in
  Alcotest.(check string) "writer/parser round-trip" tricky (parsed_str line)

let suite =
  [ ( "daemon",
      [ Alcotest.test_case "store: fresh start" `Quick test_store_fresh;
        Alcotest.test_case "store: round-trip" `Quick test_store_round_trip;
        Alcotest.test_case "store: Unknown rejected" `Quick
          test_store_rejects_unknown;
        Alcotest.test_case "store: cache drain skips Unknown" `Quick
          test_store_drain_skips_unknown;
        Alcotest.test_case "store: truncated file" `Quick test_store_truncated;
        Alcotest.test_case "store: bad magic" `Quick test_store_bad_magic;
        Alcotest.test_case "store: fingerprint mismatch" `Quick
          test_store_fingerprint_mismatch;
        Alcotest.test_case "store: v1 version skew" `Quick
          test_store_v1_version_skew;
        Alcotest.test_case "store: v2 version skew" `Quick
          test_store_v2_version_skew;
        Alcotest.test_case "store: method records round-trip" `Quick
          test_store_method_records;
        Alcotest.test_case "store: kill -9 mid-write" `Quick
          test_store_kill9_mid_write;
        Alcotest.test_case "store: concurrent clients" `Quick
          test_store_concurrent_clients;
        Alcotest.test_case "store: LRU eviction" `Quick test_store_lru_eviction;
        Alcotest.test_case "server: ping and stats" `Quick
          test_server_ping_and_stats;
        Alcotest.test_case "server: malformed requests" `Quick
          test_server_malformed;
        Alcotest.test_case "server: prove hits the cache" `Quick
          test_server_prove_and_cache;
        Alcotest.test_case "server: incremental verify protocol" `Quick
          test_server_incremental_protocol;
        Alcotest.test_case
          "server: incremental records outlive another program" `Quick
          test_server_incremental_two_programs;
        Alcotest.test_case "server: one parse span per verify" `Quick
          test_server_verify_spans;
        Alcotest.test_case "server: unknown replayed, never stored" `Quick
          test_server_unknown_replayed;
        Alcotest.test_case "server: restart, identical verdicts" `Slow
          test_server_restart_identical;
        Alcotest.test_case "server: soak keeps the live heap flat" `Quick
          test_server_soak_memory;
        Alcotest.test_case "deadline: survives wall-clock step" `Quick
          test_deadline_survives_wall_step;
        Alcotest.test_case "deadline: still expires monotonically" `Quick
          test_deadline_still_expires;
        Alcotest.test_case "clock: monotone under offsets" `Quick
          test_clock_monotone;
        Alcotest.test_case "cache: eviction counters deterministic" `Quick
          test_cache_eviction_deterministic;
        Alcotest.test_case "cache: cap honored via options" `Quick
          test_cache_cap_via_options;
        Alcotest.test_case "digest: fresh-constant renumbering" `Quick
          test_digest_fresh_renumbering;
        Alcotest.test_case "json: unicode escapes" `Quick
          test_json_unicode_escapes;
        Alcotest.test_case "proto: escaping round-trip" `Quick
          test_proto_escaping_round_trip ] ) ]
