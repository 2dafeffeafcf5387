(* Tests for the observability stack (lib/obs).

   The load-bearing property is domain safety: metrics recorded from
   inside View.map_nodes_par closures, merged across the per-domain
   shards, must equal what the sequential path records — byte-for-byte
   at the exported-JSON level.  The rest covers the contracts the
   instrumented libraries rely on: disabled recording is a true no-op,
   spans nest and stay balanced under exceptions, handles are interned
   by name, and the JSON emitter escapes and formats deterministically. *)

open Netgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let find_entry name =
  List.find_opt
    (fun (e : Obs.Metrics.entry) -> String.equal e.Obs.Metrics.name name)
    (Obs.Metrics.snapshot ())

(* ------------------------------------------------------------------ *)
(* Merged shards = sequential, byte-for-byte *)

(* Only the metrics side is enabled here: trace span names legitimately
   differ between the two paths ("view.map_nodes" vs "view.map_nodes_par"),
   and span timings are not reproducible.  [per_domain:false] drops the
   shard split, which depends on the domain count by design. *)
let metrics_json () =
  Obs.Jsonout.to_string (Obs.Sink.json ~per_domain:false ())

let prop_par_snapshot_matches_seq =
  QCheck.Test.make
    ~name:"map_nodes_par metrics merge to the sequential snapshot" ~count:20
    QCheck.(triple (int_range 8 120) (int_range 0 3) (int_range 0 2))
    (fun (n, radius, fam) ->
      let g =
        match fam with
        | 0 -> Builders.cycle (max 3 n)
        | 1 ->
            let side = max 2 (int_of_float (sqrt (float_of_int n))) in
            Builders.grid side side
        | _ -> Builders.random_regular (Prng.create (n + radius)) (max 8 n) 4
      in
      let ids = Localmodel.Ids.identity g in
      let f (view : Localmodel.View.t) = Graph.n view.Localmodel.View.graph in
      Obs.Metrics.set_enabled true;
      Obs.Metrics.reset ();
      let seq = Localmodel.View.map_nodes g ~ids ~radius f in
      let seq_json = metrics_json () in
      Obs.Metrics.reset ();
      let par = Localmodel.View.map_nodes_par ~domains:4 g ~ids ~radius f in
      let par_json = metrics_json () in
      Obs.Metrics.set_enabled false;
      seq = par && String.equal seq_json par_json)

(* ------------------------------------------------------------------ *)
(* Disabled stack records nothing *)

let test_disabled_records_nothing () =
  Obs.Sink.reset ();
  Obs.Sink.disable ();
  let g = Builders.cycle 64 in
  let ids = Localmodel.Ids.identity g in
  ignore
    (Localmodel.View.map_nodes g ~ids ~radius:2 (fun view ->
         Graph.n view.Localmodel.View.graph));
  Obs.Trace.span "test.obs.noop" (fun () -> ());
  List.iter
    (fun (e : Obs.Metrics.entry) ->
      match e.Obs.Metrics.value with
      | Obs.Metrics.Counter_v { total; _ } ->
          check_int ("counter " ^ e.Obs.Metrics.name) 0 total
      | Obs.Metrics.Gauge_v { peak } ->
          check_int ("gauge " ^ e.Obs.Metrics.name) 0 peak
      | Obs.Metrics.Histogram_v h ->
          check_int ("histogram " ^ e.Obs.Metrics.name) 0 h.Obs.Metrics.count)
    (Obs.Metrics.snapshot ());
  let s = Obs.Trace.summary () in
  check_int "no span stats" 0 (List.length s.Obs.Trace.spans);
  check_int "no events recorded" 0 s.Obs.Trace.recorded

(* ------------------------------------------------------------------ *)
(* Span nesting *)

let test_span_nesting_balanced () =
  Obs.Trace.reset ();
  Obs.Trace.set_enabled true;
  let r =
    Obs.Trace.span "test.obs.outer" (fun () ->
        check_int "depth inside outer" 1 (Obs.Trace.depth ());
        Obs.Trace.span "test.obs.inner" (fun () ->
            check_int "depth inside inner" 2 (Obs.Trace.depth ());
            21)
        * 2)
  in
  check_int "span returns the body's value" 42 r;
  check_int "depth zero after nested spans" 0 (Obs.Trace.depth ());
  (try Obs.Trace.span "test.obs.raiser" (fun () -> failwith "boom")
   with Failure _ -> ());
  check_int "depth zero after a raising span" 0 (Obs.Trace.depth ());
  let s = Obs.Trace.summary () in
  check_int "no unbalanced ends" 0 s.Obs.Trace.unbalanced;
  let has name =
    List.exists
      (fun (st : Obs.Trace.span_stat) -> String.equal st.Obs.Trace.span_name name)
      s.Obs.Trace.spans
  in
  check "outer span aggregated" true (has "test.obs.outer");
  check "inner span aggregated" true (has "test.obs.inner");
  check "raising span still credited" true (has "test.obs.raiser");
  (* A bare span_end with nothing open is counted, not raised. *)
  Obs.Trace.span_end ();
  check_int "stray end counted" 1 (Obs.Trace.summary ()).Obs.Trace.unbalanced;
  Obs.Trace.set_enabled false;
  Obs.Trace.reset ()

let test_functor_instance_is_independent () =
  let module T = Obs.Trace.Make (Obs.Trace.Tick) in
  T.set_enabled true;
  T.span "test.obs.private" (fun () -> ());
  let s = T.summary () in
  check_int "private tracer saw one span" 1 (List.length s.Obs.Trace.spans);
  (* Tick stamps strictly increase, so enter precedes exit in the log. *)
  (match s.Obs.Trace.events with
  | [ enter; exit ] ->
      check "enter first" true enter.Obs.Trace.ev_enter;
      check "exit second" false exit.Obs.Trace.ev_enter;
      check "tick order" true (enter.Obs.Trace.ev_at < exit.Obs.Trace.ev_at)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l));
  let default = Obs.Trace.summary () in
  check "default tracer unaffected" true
    (not
       (List.exists
          (fun (st : Obs.Trace.span_stat) ->
            String.equal st.Obs.Trace.span_name "test.obs.private")
          default.Obs.Trace.spans))

(* ------------------------------------------------------------------ *)
(* Metric handles *)

let test_interning_and_buckets () =
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  let c1 = Obs.Metrics.counter "test.obs.counter" in
  let c2 = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c1;
  Obs.Metrics.add c2 4;
  (match find_entry "test.obs.counter" with
  | Some { value = Obs.Metrics.Counter_v { total; _ }; _ } ->
      check_int "interned handles share one total" 5 total
  | _ -> Alcotest.fail "counter entry missing");
  Alcotest.check_raises "name reuse across kinds rejected"
    (Invalid_argument "Metrics.gauge: 'test.obs.counter' is not a gauge")
    (fun () -> ignore (Obs.Metrics.gauge "test.obs.counter"));
  let h = Obs.Metrics.histogram "test.obs.hist" ~buckets:[| 1; 2; 4 |] in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 2; 3; 4; 100 ];
  (match find_entry "test.obs.hist" with
  | Some { value = Obs.Metrics.Histogram_v v; _ } ->
      check "bucket counts" true (v.Obs.Metrics.counts = [| 2; 1; 2 |]);
      check_int "overflow" 1 v.Obs.Metrics.overflow;
      check_int "count" 6 v.Obs.Metrics.count;
      check_int "sum" 110 v.Obs.Metrics.sum;
      check_int "max" 100 v.Obs.Metrics.vmax
  | _ -> Alcotest.fail "histogram entry missing");
  let gauge = Obs.Metrics.gauge "test.obs.gauge" in
  Obs.Metrics.gauge_max gauge 7;
  Obs.Metrics.gauge_max gauge 3;
  (match find_entry "test.obs.gauge" with
  | Some { value = Obs.Metrics.Gauge_v { peak }; _ } ->
      check_int "gauge keeps the max" 7 peak
  | _ -> Alcotest.fail "gauge entry missing");
  Obs.Metrics.set_enabled false;
  Obs.Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* JSON emitter *)

let test_jsonout () =
  let open Obs.Jsonout in
  check_str "escaping" "\"a\\\"b\\\\c\\n\\u0001\"" (to_string (Str "a\"b\\c\n\001"));
  check_str "scalar list stays inline" "[1, 2, 3]"
    (to_string (List [ Int 1; Int 2; Int 3 ]));
  check_str "non-finite floats are null" "[null, null, null]"
    (to_string (List [ Float nan; Float infinity; Float neg_infinity ]));
  check_str "integral floats keep a decimal point" "1.0" (to_string (Float 1.0));
  check_str "object layout" "{\n  \"a\": [1, 2],\n  \"b\": null\n}"
    (to_string (Obj [ ("a", List [ Int 1; Int 2 ]); ("b", Null) ]))

(* ------------------------------------------------------------------ *)
(* Nearest-rank percentiles *)

(* Hand-computed references: rank = ceil(p * k) (1-based), index =
   rank - 1.  The regression here is the floored index the bench
   reporters used to inline — p50 of [1..10] read sorted.(5) = 6. *)
let test_percentiles () =
  let check_int = Alcotest.(check int) in
  let ten = Array.init 10 (fun i -> i + 1) in
  check_int "p50 of 1..10 is the 5th sample" 5 (Obs.Stats.percentile ten 0.50);
  check_int "p90 of 1..10" 9 (Obs.Stats.percentile ten 0.90);
  check_int "p95 of 1..10" 10 (Obs.Stats.percentile ten 0.95);
  check_int "p99 of 1..10" 10 (Obs.Stats.percentile ten 0.99);
  check_int "p0 is the minimum" 1 (Obs.Stats.percentile ten 0.0);
  check_int "p100 is the maximum" 10 (Obs.Stats.percentile ten 1.0);
  let four = [| 10; 20; 30; 40 |] in
  check_int "p25 of 4 lands exactly on rank 1" 10 (Obs.Stats.percentile four 0.25);
  check_int "p26 of 4 rounds up to rank 2" 20 (Obs.Stats.percentile four 0.26);
  check_int "p50 of 4" 20 (Obs.Stats.percentile four 0.50);
  check_int "p75 of 4" 30 (Obs.Stats.percentile four 0.75);
  check_int "p99 of 4 is the max, not past it" 40 (Obs.Stats.percentile four 0.99);
  (* p99 with fewer than 100 samples: rank ceil(49.5) = 50, the last
     valid index — never 50 elements' worth of off-by-one past it. *)
  let fifty = Array.init 50 (fun i -> i + 1) in
  check_int "p99 of 50 samples is index 49" 50 (Obs.Stats.percentile fifty 0.99);
  check_int "p50 of 50 samples is index 24" 25 (Obs.Stats.percentile fifty 0.50);
  check_int "singleton serves every percentile" 7
    (Obs.Stats.percentile [| 7 |] 0.99);
  check_int "empty sample reports 0" 0 (Obs.Stats.percentile [||] 0.5);
  (match Obs.Stats.index ~count:0 0.5 with
  | exception Invalid_argument _ -> ()
  | i -> Alcotest.failf "index on empty count returned %d" i);
  match Obs.Stats.index ~count:10 1.5 with
  | exception Invalid_argument _ -> ()
  | i -> Alcotest.failf "index on p=1.5 returned %d" i

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "domain-safety",
        [ QCheck_alcotest.to_alcotest prop_par_snapshot_matches_seq ] );
      ( "no-op when disabled",
        [ Alcotest.test_case "records nothing" `Quick test_disabled_records_nothing ]
      );
      ( "tracing",
        [
          Alcotest.test_case "nesting balanced" `Quick test_span_nesting_balanced;
          Alcotest.test_case "functor instance independent" `Quick
            test_functor_instance_is_independent;
        ] );
      ( "metrics",
        [ Alcotest.test_case "interning and buckets" `Quick test_interning_and_buckets ]
      );
      ( "jsonout",
        [ Alcotest.test_case "emitter" `Quick test_jsonout ] );
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick
            test_percentiles;
        ] );
    ]
