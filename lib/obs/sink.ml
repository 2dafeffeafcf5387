(* Export of merged Metrics / Trace state as JSON (via Jsonout, the
   repo-wide emitter). *)

let enable () =
  Metrics.set_enabled true;
  Trace.set_enabled true

let disable () =
  Metrics.set_enabled false;
  Trace.set_enabled false

let reset () =
  Metrics.reset ();
  Trace.reset ()

let json ?(per_domain = true) ?(events = 0) () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (e : Metrics.entry) ->
      match e.value with
      | Metrics.Counter_v { total; per_domain = shards } ->
          let fields =
            [ ("name", Jsonout.Str e.name); ("total", Jsonout.Int total) ]
          in
          let fields =
            if per_domain then
              fields
              @ [
                  ( "per_domain",
                    Jsonout.List (List.map (fun n -> Jsonout.Int n) shards) );
                ]
            else fields
          in
          counters := Jsonout.Obj fields :: !counters
      | Metrics.Gauge_v { peak } ->
          gauges :=
            Jsonout.Obj
              [ ("name", Jsonout.Str e.name); ("peak", Jsonout.Int peak) ]
            :: !gauges
      | Metrics.Histogram_v h ->
          let ints a =
            Jsonout.List (Array.to_list (Array.map (fun n -> Jsonout.Int n) a))
          in
          let mean =
            if h.count = 0 then Jsonout.Null
            else Jsonout.Float (float_of_int h.sum /. float_of_int h.count)
          in
          histograms :=
            Jsonout.Obj
              [
                ("name", Jsonout.Str e.name);
                ("le", ints h.bounds);
                ("counts", ints h.counts);
                ("overflow", Jsonout.Int h.overflow);
                ("count", Jsonout.Int h.count);
                ("sum", Jsonout.Int h.sum);
                ("max", Jsonout.Int h.vmax);
                ("mean", mean);
              ]
            :: !histograms)
    (Metrics.snapshot ());
  let s = Trace.summary () in
  let spans =
    List.map
      (fun (st : Trace.span_stat) ->
        Jsonout.Obj
          [
            ("name", Jsonout.Str st.span_name);
            ("calls", Jsonout.Int st.calls);
            ("total", Jsonout.Int (Int64.to_int st.total));
          ])
      s.spans
  in
  let trace_fields =
    [
      ("spans", Jsonout.List spans);
      ("recorded", Jsonout.Int s.recorded);
      ("dropped", Jsonout.Int s.dropped);
      ("unbalanced", Jsonout.Int s.unbalanced);
    ]
  in
  let trace_fields =
    if events <= 0 then trace_fields
    else begin
      let evs = s.events in
      let n = List.length evs in
      let tail =
        if n <= events then evs
        else List.filteri (fun i _ -> i >= n - events) evs
      in
      trace_fields
      @ [
          ( "events",
            Jsonout.List
              (List.map
                 (fun (e : Trace.event) ->
                   Jsonout.Obj
                     [
                       ("name", Jsonout.Str e.ev_name);
                       ("at", Jsonout.Int (Int64.to_int e.ev_at));
                       ("enter", Jsonout.Bool e.ev_enter);
                     ])
                 tail) );
        ]
    end
  in
  Jsonout.Obj
    [
      ("counters", Jsonout.List (List.rev !counters));
      ("gauges", Jsonout.List (List.rev !gauges));
      ("histograms", Jsonout.List (List.rev !histograms));
      ("trace", Jsonout.Obj trace_fields);
    ]

let write_json ?per_domain ?events path =
  Jsonout.write_file path (json ?per_domain ?events ())
