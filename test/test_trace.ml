(** Tracing-layer tests: the disabled fast path, aggregate merging, the
    JSON reader, sink validity (JSONL balance, Chrome array), and span
    coverage of prover attempts with cache attribution. *)

open Logic

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* ------------------------------------------------------------------ *)
(* Disabled fast path and aggregates                                   *)
(* ------------------------------------------------------------------ *)

let test_disabled_noop () =
  Trace.reset ();
  Alcotest.(check bool) "off by default" false (Trace.enabled ());
  let forced = ref false in
  let v =
    Trace.with_span ~cat:"t"
      ~args:(fun () -> forced := true; [])
      "work"
      (fun () -> 41 + 1)
  in
  Alcotest.(check int) "value passes through" 42 v;
  Alcotest.(check bool) "args thunk never forced" false !forced;
  Trace.incr "t.count";
  Trace.observe "t.obs" 1.0;
  Alcotest.(check int) "counter not recorded" 0 (Trace.counter_value "t.count");
  Alcotest.(check (list (pair string int))) "no aggregates" []
    (List.map (fun (k, (s : Trace.stat)) -> (k, s.Trace.count))
       (Trace.span_stats ()))

let test_aggregates () =
  Trace.reset ();
  Trace.start_collecting ();
  for _ = 1 to 3 do
    Trace.with_span ~cat:"t" "work" (fun () -> Trace.incr "t.count")
  done;
  Trace.add "t.count" 4;
  (* a second domain owns its own accumulator; stats merge both *)
  Domain.join
    (Domain.spawn (fun () ->
         Trace.with_span ~cat:"t" "work" (fun () -> Trace.incr "t.count")));
  Trace.stop ();
  Alcotest.(check int) "counters merged across domains" 8
    (Trace.counter_value "t.count");
  (match List.assoc_opt "t:work" (Trace.span_stats ()) with
  | Some st ->
    Alcotest.(check int) "span observations merged" 4 st.Trace.count;
    Alcotest.(check bool) "durations non-negative" true (st.Trace.total_s >= 0.)
  | None -> Alcotest.fail "span aggregate missing");
  Alcotest.(check bool) "collection off after stop" false (Trace.enabled ());
  Trace.reset ();
  Alcotest.(check int) "reset clears counters" 0 (Trace.counter_value "t.count")

(* ------------------------------------------------------------------ *)
(* The JSON reader                                                     *)
(* ------------------------------------------------------------------ *)

let test_json_parser () =
  let open Trace.Json in
  let v = parse {|{"a":[1,2.5,-3e2],"s":"x\n\"y","t":true,"z":null,"o":{}}|} in
  (match member "a" v with
  | Some (Arr [ Num a; Num b; Num c ]) ->
    Alcotest.(check (float 1e-9)) "int" 1. a;
    Alcotest.(check (float 1e-9)) "fraction" 2.5 b;
    Alcotest.(check (float 1e-9)) "exponent" (-300.) c
  | _ -> Alcotest.fail "array member");
  (match member "s" v with
  | Some (Str s) -> Alcotest.(check string) "escapes decoded" "x\n\"y" s
  | _ -> Alcotest.fail "string member");
  Alcotest.(check bool) "bool member" true (member "t" v = Some (Bool true));
  Alcotest.(check bool) "null member" true (member "z" v = Some Null);
  Alcotest.(check bool) "empty object" true (member "o" v = Some (Obj []));
  Alcotest.(check bool) "missing key" true (member "nope" v = None);
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %s" bad)
        true
        (Trace.Json.parse_opt bad = None))
    [ "{"; "[1,]"; {|{"a":}|}; "01"; {|"unterminated|}; "{} trailing";
      {|{"a":1 "b":2}|}; "nul" ]

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let test_jsonl_golden () =
  Trace.reset ();
  let path = Filename.temp_file "jahob_trace_test" ".jsonl" in
  Trace.start_collecting ();
  Trace.open_sink path;
  Trace.with_span ~cat:"a" "outer" (fun () ->
      Trace.with_span ~cat:"a"
        ~args:(fun () -> [ ("k", Trace.S "v\"esc\n"); ("n", Trace.I 3) ])
        "inner"
        (fun () -> ());
      Trace.instant ~cat:"a" "tick");
  (* a helper thread writes on its own timeline lane *)
  let t =
    Thread.create
      (fun () -> Trace.with_span ~cat:"b" "helper" (fun () -> ()))
      ()
  in
  Thread.join t;
  Trace.stop ();
  (match Trace.check_jsonl_file path with
  | Ok s ->
    Alcotest.(check int) "three balanced spans" 3 s.Trace.spans;
    Alcotest.(check int) "seven events" 7 s.Trace.events;
    Alcotest.(check int) "nesting depth two" 2 s.Trace.max_depth
  | Error m -> Alcotest.fail m);
  (* every line is standalone JSON and args survive the escaping *)
  let events = List.map Trace.Json.parse (read_lines path) in
  let has_arg k expect e =
    match Trace.Json.member "args" e with
    | Some a -> Trace.Json.member k a = Some expect
    | None -> false
  in
  Alcotest.(check bool) "escaped arg round-trips" true
    (List.exists (has_arg "k" (Trace.Json.Str "v\"esc\n")) events);
  Sys.remove path;
  Trace.reset ()

let test_jsonl_check_rejects () =
  let check lines =
    let path = Filename.temp_file "jahob_trace_bad" ".jsonl" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    let r = Trace.check_jsonl_file path in
    Sys.remove path;
    r
  in
  let expect_error name lines =
    match check lines with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" name
  in
  expect_error "unclosed span"
    [ {|{"ph":"B","ts":0.1,"tid":0,"cat":"x","name":"a"}|} ];
  expect_error "truncated JSON" [ {|{"ph":"B","ts":0.1,"tid":0|} ];
  expect_error "mismatched end"
    [ {|{"ph":"B","ts":0.1,"tid":0,"cat":"x","name":"a"}|};
      {|{"ph":"E","ts":0.2,"tid":0,"cat":"x","name":"b"}|} ];
  expect_error "end without begin"
    [ {|{"ph":"E","ts":0.2,"tid":0,"cat":"x","name":"a"}|} ];
  expect_error "missing name" [ {|{"ph":"B","ts":0.1,"tid":0,"cat":"x"}|} ];
  (* per-thread balance: interleaved lanes are fine *)
  match
    check
      [ {|{"ph":"B","ts":0.1,"tid":1,"cat":"x","name":"a"}|};
        {|{"ph":"B","ts":0.2,"tid":2,"cat":"x","name":"b"}|};
        {|{"ph":"E","ts":0.3,"tid":1,"cat":"x","name":"a"}|};
        {|{"ph":"E","ts":0.4,"tid":2,"cat":"x","name":"b"}|} ]
  with
  | Ok s -> Alcotest.(check int) "two spans across lanes" 2 s.Trace.spans
  | Error m -> Alcotest.fail m

let test_chrome_sink () =
  Trace.reset ();
  let path = Filename.temp_file "jahob_trace_test" ".json" in
  Trace.start_collecting ();
  Trace.open_sink ~format:Trace.Chrome path;
  Trace.with_span ~cat:"c" "outer" (fun () ->
      Trace.with_span ~cat:"c" "inner" (fun () -> ()));
  Trace.stop ();
  let text = String.concat "\n" (read_lines path) in
  Sys.remove path;
  (match Trace.Json.parse text with
  | Trace.Json.Arr events ->
    Alcotest.(check int) "four events" 4 (List.length events);
    List.iter
      (fun e ->
        (match Trace.Json.member "ph" e with
        | Some (Trace.Json.Str ("B" | "E")) -> ()
        | _ -> Alcotest.fail "bad ph");
        (match Trace.Json.member "pid" e with
        | Some (Trace.Json.Num _) -> ()
        | _ -> Alcotest.fail "pid missing");
        match Trace.Json.member "ts" e with
        | Some (Trace.Json.Num us) ->
          Alcotest.(check bool) "microsecond timestamps" true (us >= 0.)
        | _ -> Alcotest.fail "ts missing")
      events
  | _ -> Alcotest.fail "chrome trace is not a JSON array");
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* End to end: prover attempts and cache attribution in the trace      *)
(* ------------------------------------------------------------------ *)

let test_trace_covers_prover_attempts () =
  Trace.reset ();
  let path = Filename.temp_file "jahob_trace_test" ".jsonl" in
  Trace.start_collecting ();
  Trace.open_sink path;
  let cache = Dispatch.Cache.create () in
  let d = Dispatch.create ~cache [ Smt.prover ] in
  let s =
    Sequent.make
      [ Parser.parse "x > 0"; Parser.parse "x < 2" ]
      (Parser.parse "x = 1")
  in
  ignore (Dispatch.prove_sequent d s);
  ignore (Dispatch.prove_sequent d s);
  Trace.stop ();
  (match Trace.check_jsonl_file path with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let events = List.map Trace.Json.parse (read_lines path) in
  let str k e =
    match Trace.Json.member k e with
    | Some (Trace.Json.Str s) -> Some s
    | _ -> None
  in
  let arg k e =
    match Trace.Json.member "args" e with Some a -> str k a | None -> None
  in
  let has f = List.exists f events in
  Alcotest.(check bool) "smt attempt has a prover span" true
    (has (fun e ->
         str "ph" e = Some "B" && str "cat" e = Some "prover"
         && str "name" e = Some "smt"));
  Alcotest.(check bool) "prover span closes with its verdict" true
    (has (fun e ->
         str "ph" e = Some "E" && str "cat" e = Some "prover"
         && arg "verdict" e = Some "valid"));
  Alcotest.(check bool) "smt reports its theory rounds" true
    (has (fun e ->
         str "ph" e = Some "i" && str "cat" e = Some "smt"
         && str "name" e = Some "theory-rounds"));
  Alcotest.(check bool) "first obligation attributed as a miss" true
    (has (fun e ->
         str "ph" e = Some "E" && str "cat" e = Some "obligation"
         && arg "cache" e = Some "miss" && arg "verdict" e = Some "valid"));
  Alcotest.(check bool) "second obligation attributed as a hit" true
    (has (fun e ->
         str "ph" e = Some "E" && str "cat" e = Some "obligation"
         && arg "cache" e = Some "hit"));
  Alcotest.(check int) "cache counters observed" 1
    (Trace.counter_value "cache.hit");
  Sys.remove path;
  Trace.reset ()

let suite =
  [ ( "trace",
      [ Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
        Alcotest.test_case "aggregates merge" `Quick test_aggregates;
        Alcotest.test_case "json parser" `Quick test_json_parser;
        Alcotest.test_case "jsonl sink golden" `Quick test_jsonl_golden;
        Alcotest.test_case "jsonl check rejects" `Quick
          test_jsonl_check_rejects;
        Alcotest.test_case "chrome sink" `Quick test_chrome_sink;
        Alcotest.test_case "trace covers prover attempts" `Quick
          test_trace_covers_prover_attempts;
      ] );
  ]
