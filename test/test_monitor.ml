(* The live monitoring surface, end to end: raw HTTP/1.0 GETs over a
   loopback socket against a running exporter while real transactions go
   through the full Serve pipeline (staging, journal append, fsync,
   broadcast), so the /eventz correlation contract is checked on the
   authoritative commit path, not on hand-emitted events. *)

module P = Core.Paper_example
module Op = Xupdate.Op

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let mk_temp_dir () =
  let path = Filename.temp_file "xmlsecu-monitor" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* -- unit level: routing ------------------------------------------------ *)

let no_probes () = []

let test_split_target () =
  Alcotest.(check (pair string (list (pair string string))))
    "bare path" ("/metrics", [])
    (Monitor.split_target "/metrics");
  Alcotest.(check (pair string (list (pair string string))))
    "query parameters"
    ("/eventz", [ ("txn", "12"); ("k", "v") ])
    (Monitor.split_target "/eventz?txn=12&k=v");
  Alcotest.(check (pair string (list (pair string string))))
    "valueless parameter dropped" ("/x", [])
    (Monitor.split_target "/x?flag")

let test_routing () =
  let get target = Monitor.handle ~probes:no_probes ~meth:"GET" ~target in
  Alcotest.(check int) "unknown endpoint is 404" 404
    (get "/nope").Monitor.status;
  Alcotest.(check int) "POST is 405" 405
    (Monitor.handle ~probes:no_probes ~meth:"POST" ~target:"/metrics")
      .Monitor.status;
  Alcotest.(check int) "non-numeric txn is 400" 400
    (get "/eventz?txn=abc").Monitor.status;
  Alcotest.(check int) "non-positive txn is 400" 400
    (get "/eventz?txn=0").Monitor.status;
  Alcotest.(check int) "bare /eventz is 200" 200
    (get "/eventz").Monitor.status;
  let metrics = get "/metrics" in
  Alcotest.(check int) "/metrics is 200" 200 metrics.Monitor.status;
  Alcotest.(check string) "/metrics carries the exposition content-type"
    "text/plain; version=0.0.4; charset=utf-8" metrics.Monitor.content_type;
  Alcotest.(check string) "json endpoints carry application/json"
    "application/json" (get "/tracez").Monitor.content_type

let test_methods () =
  let h meth target = Monitor.handle ~probes:no_probes ~meth ~target in
  (* HEAD mirrors GET's status on every endpoint, known or not. *)
  Alcotest.(check int) "HEAD /metrics is 200" 200
    (h "HEAD" "/metrics").Monitor.status;
  Alcotest.(check int) "HEAD /healthz is 200" 200
    (h "HEAD" "/healthz").Monitor.status;
  Alcotest.(check int) "HEAD on an unknown endpoint is 404" 404
    (h "HEAD" "/nope").Monitor.status;
  Alcotest.(check int) "HEAD with a bad txn is 400" 400
    (h "HEAD" "/eventz?txn=abc").Monitor.status;
  List.iter
    (fun meth ->
      Alcotest.(check int) (meth ^ " is 405") 405
        (h meth "/metrics").Monitor.status)
    [ "POST"; "PUT"; "DELETE"; "OPTIONS"; "PATCH" ]

let test_telemetry_endpoints () =
  let get target = Monitor.handle ~probes:no_probes ~meth:"GET" ~target in
  List.iter
    (fun target ->
      let r = get target in
      Alcotest.(check int) (target ^ " is 200") 200 r.Monitor.status;
      Alcotest.(check string)
        (target ^ " carries application/json")
        "application/json" r.Monitor.content_type)
    [ "/rulez"; "/slowz"; "/explainz"; "/auditz"; "/eventz"; "/alertz";
      "/timeseriez" ]

(* The deferral gauge, scraped after a commit: the staff writer's commit
   leaves both $USER patients stale, and a read rebuilds one of them. *)
let test_stale_classes_gauge () =
  let serve = Core.Serve.create P.policy (P.document ()) in
  Core.Serve.login_many serve [ P.laporte; P.robert; P.franck ];
  (match
     Core.Serve.commit serve ~user:P.laporte
       [ Xupdate.Op.update "/patients/franck/diagnosis" "cured" ]
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Core.Txn.error_to_string e));
  let scrape () =
    (Monitor.handle ~probes:no_probes ~meth:"GET" ~target:"/metrics")
      .Monitor.body
  in
  let body = scrape () in
  Alcotest.(check bool) "gauge typed" true
    (contains body "# TYPE serve_stale_classes gauge");
  Alcotest.(check bool) "both patients stale after the commit" true
    (contains body "serve_stale_classes 2");
  ignore (Core.Serve.query serve ~user:P.robert "//node()");
  Alcotest.(check bool) "a read rebuilds one" true
    (contains (scrape ()) "serve_stale_classes 1")

(* The /eventz?txn= filter contract: matching id serves exactly that
   transaction's events, a non-matching id serves an empty list (not an
   error), and malformed ids are 400s. *)
let test_eventz_filter () =
  Obs.Events.set_enabled true;
  Obs.Events.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.set_enabled false;
      Obs.Events.clear ())
  @@ fun () ->
  let t1 = Obs.Events.next_txn () in
  let t2 = Obs.Events.next_txn () in
  Obs.Events.emit ~txn:t1 (Obs.Events.Custom { name = "alpha"; detail = "1" });
  Obs.Events.emit ~txn:t2 (Obs.Events.Custom { name = "beta"; detail = "2" });
  let get target = Monitor.handle ~probes:no_probes ~meth:"GET" ~target in
  let matching = get (Printf.sprintf "/eventz?txn=%d" t1) in
  Alcotest.(check int) "matching id is 200" 200 matching.Monitor.status;
  Alcotest.(check bool) "matching id serves its event" true
    (contains matching.Monitor.body "\"kind\":\"alpha\"");
  Alcotest.(check bool) "the other transaction is filtered out" false
    (contains matching.Monitor.body "\"kind\":\"beta\"");
  let nonmatching = get (Printf.sprintf "/eventz?txn=%d" (t2 + 1000)) in
  Alcotest.(check int) "non-matching id is still 200" 200
    nonmatching.Monitor.status;
  Alcotest.(check string) "non-matching id yields an empty list" "[]"
    nonmatching.Monitor.body;
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "txn=%S is 400" v)
        400
        (get ("/eventz?txn=" ^ v)).Monitor.status)
    [ "abc"; "0"; "-3"; "1x"; "" ]

let test_probes () =
  let up = Monitor.probe ~name:"pool" ~ok:true ~detail:"alive" in
  let down = Monitor.probe ~name:"pool" ~ok:false ~detail:"wedged" in
  let healthz probes =
    Monitor.handle ~probes:(fun () -> probes) ~meth:"GET" ~target:"/healthz"
  in
  let ok = healthz [ up ] in
  Alcotest.(check int) "all probes green is 200" 200 ok.Monitor.status;
  Alcotest.(check bool) "body says ok" true
    (contains ok.Monitor.body "\"status\":\"ok\"");
  let bad = healthz [ up; down ] in
  Alcotest.(check int) "any red probe is 503" 503 bad.Monitor.status;
  Alcotest.(check bool) "body says degraded" true
    (contains bad.Monitor.body "\"status\":\"degraded\"");
  Alcotest.(check bool) "failing probe's detail is reported" true
    (contains bad.Monitor.body "\"wedged\"")

let test_writable_dir_probe () =
  let dir = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = Monitor.writable_dir_probe dir in
  Alcotest.(check bool) "existing directory passes" true p.Monitor.ok;
  Alcotest.(check bool) "no probe file left behind" true
    (Array.length (Sys.readdir dir) = 0);
  (* [access(2)] would pass for root on any path that exists, so the
     probe must fail by construction on a missing one. *)
  let missing = Monitor.writable_dir_probe (Filename.concat dir "absent") in
  Alcotest.(check bool) "missing directory fails" false missing.Monitor.ok;
  Alcotest.(check string) "with a telling detail" "missing"
    missing.Monitor.detail;
  let file = Filename.concat dir "plain" in
  let oc = open_out file in
  close_out oc;
  Alcotest.(check bool) "plain file fails" false
    (Monitor.writable_dir_probe file).Monitor.ok

(* -- http plumbing ------------------------------------------------------ *)

let http_request meth port target =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "%s %s HTTP/1.0\r\n\r\n" meth target in
  ignore (Unix.write_substring sock req 0 (String.length req));
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read sock chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  drain ();
  let raw = Buffer.contents buf in
  let sep =
    let rec find i =
      if i + 4 > String.length raw then
        Alcotest.failf "no header/body separator in response to %s" target
      else if String.sub raw i 4 = "\r\n\r\n" then i
      else find (i + 1)
    in
    find 0
  in
  let head = String.sub raw 0 sep in
  let body = String.sub raw (sep + 4) (String.length raw - sep - 4) in
  let lines = String.split_on_char '\r' head in
  let status =
    Scanf.sscanf (List.hd lines) "HTTP/1.0 %d" (fun d -> d)
  in
  let headers =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        match String.index_opt line ':' with
        | Some i when not (contains line "HTTP/1.0") ->
          Some
            ( String.lowercase_ascii (String.sub line 0 i),
              String.trim
                (String.sub line (i + 1) (String.length line - i - 1)) )
        | _ -> None)
      lines
  in
  (status, headers, body)

let http_get port target = http_request "GET" port target

(* -- end to end: exporter + live pipeline ------------------------------- *)

let test_end_to_end () =
  let dir = mk_temp_dir () in
  let degrade = ref false in
  let store = Store.open_dir ~fsync:true dir in
  let doc0 = P.document () in
  Store.init store doc0;
  Obs.Events.set_enabled true;
  Obs.Events.clear ();
  Obs.Rulestats.set_enabled true;
  Obs.Rulestats.clear ();
  Obs.Planlog.set_enabled true;
  Obs.Planlog.set_threshold 0.;
  Obs.Planlog.clear ();
  Obs.Timeseries.set_enabled true;
  Obs.Timeseries.clear Obs.Timeseries.default;
  Obs.Audit.set_enabled true;
  Obs.Audit.clear Obs.Audit.default;
  Obs.Anomaly.install ();
  let mon =
    Monitor.start
      ~probes:(fun () ->
        [
          Monitor.writable_dir_probe
            (if !degrade then Filename.concat dir "absent" else dir);
        ])
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Monitor.stop mon;
      Obs.Events.set_enabled false;
      Obs.Events.clear ();
      Obs.Rulestats.set_enabled false;
      Obs.Rulestats.clear ();
      Obs.Planlog.set_enabled false;
      Obs.Planlog.set_threshold Obs.Planlog.default_threshold;
      Obs.Planlog.clear ();
      Obs.Anomaly.uninstall ();
      Obs.Timeseries.set_enabled false;
      Obs.Timeseries.clear Obs.Timeseries.default;
      Obs.Audit.set_enabled false;
      Obs.Audit.clear Obs.Audit.default;
      Store.close store;
      rm_rf dir)
  @@ fun () ->
  let port = Monitor.port mon in
  Alcotest.(check bool) "ephemeral port assigned" true (port > 0);
  let serve = Core.Serve.create ~persist:store P.policy doc0 in
  Core.Serve.login serve ~user:P.laporte;
  Core.Serve.login serve ~user:P.beaufort;
  (* Scrape /metrics, /alertz and /timeseriez from several threads while
     transactions commit on the main thread: the exporter (and the
     detector/time-series state behind the analytics endpoints) must
     serve concurrently with mutations. *)
  let scrape_failures = Atomic.make 0 in
  let scrapers =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let target =
              match i mod 3 with
              | 0 -> "/metrics"
              | 1 -> "/alertz"
              | _ -> "/timeseriez"
            in
            for _ = 1 to 5 do
              let status, _, _ = http_get port target in
              if status <> 200 then Atomic.incr scrape_failures
            done)
          ())
  in
  for i = 1 to 10 do
    match
      Core.Serve.commit serve ~user:P.laporte
        [ Op.update "/patients/franck/diagnosis" (Printf.sprintf "d%d" i) ]
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "commit %d: %s" i (Core.Txn.error_to_string e)
  done;
  List.iter Thread.join scrapers;
  Alcotest.(check int) "every mid-storm scrape answered 200" 0
    (Atomic.get scrape_failures);
  let status, headers, body = http_get port "/metrics" in
  Alcotest.(check int) "/metrics is 200" 200 status;
  Alcotest.(check (option string)) "prometheus content-type"
    (Some "text/plain; version=0.0.4; charset=utf-8")
    (List.assoc_opt "content-type" headers);
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("/metrics exposes " ^ needle) true
        (contains body needle))
    [
      "txn_commits_total";
      "# TYPE serve_sessions gauge";
      "serve_sessions 2";
      "# TYPE store_journal_bytes gauge";
      "txn_outcomes_total{outcome=\"commit\"} 10";
      "xupdate_ops_total{kind=\"xupdate:update\"} 10";
      "store_fsync_seconds_count 10";
      "monitor_requests_total{path=\"/metrics\"";
    ];
  (* Health: green while the journal directory exists, degraded (503,
     curl -f fails) once its probe turns red. *)
  let status, _, body = http_get port "/healthz" in
  Alcotest.(check int) "healthz is 200 while green" 200 status;
  Alcotest.(check bool) "healthz body says ok" true
    (contains body "\"status\":\"ok\"");
  degrade := true;
  let status, _, body = http_get port "/healthz" in
  Alcotest.(check int) "healthz degrades to 503" 503 status;
  Alcotest.(check bool) "healthz body says degraded" true
    (contains body "\"status\":\"degraded\"");
  degrade := false;
  (* Correlation: one committed transaction's events share one id
     spanning txn begin -> journal append -> fsync -> broadcast. *)
  let txn =
    List.fold_left
      (fun acc (e : Obs.Events.event) -> max acc e.txn)
      0
      (Obs.Events.events ())
  in
  Alcotest.(check bool) "a correlation id was allocated" true (txn > 0);
  let kinds =
    List.map
      (fun (e : Obs.Events.event) -> Obs.Events.kind_name e.kind)
      (Obs.Events.by_txn txn)
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "txn %d's story includes %s" txn k)
        true (List.mem k kinds))
    [ "txn_begin"; "stage"; "journal_append"; "fsync"; "commit"; "broadcast" ];
  let status, _, body = http_get port (Printf.sprintf "/eventz?txn=%d" txn) in
  Alcotest.(check int) "/eventz?txn is 200" 200 status;
  List.iter
    (fun k ->
      Alcotest.(check bool) ("/eventz serves the " ^ k ^ " event") true
        (contains body (Printf.sprintf "\"kind\":\"%s\"" k)))
    [ "txn_begin"; "journal_append"; "fsync"; "broadcast" ];
  Alcotest.(check bool) "every served event carries the requested id" false
    (contains body (Printf.sprintf "\"txn\":%d" (txn + 1)));
  (* The remaining endpoints answer over the wire too. *)
  let status, _, _ = http_get port "/auditz" in
  Alcotest.(check int) "/auditz is 200" 200 status;
  (* The analytics surface after the commit storm: the time-series saw
     the commits and their latency sketches, the anomaly engine is
     serving its (quiet) state. *)
  let status, _, body = http_get port "/timeseriez" in
  Alcotest.(check int) "/timeseriez is 200" 200 status;
  Alcotest.(check bool) "/timeseriez counted the commits" true
    (contains body "\"txn_commit\"");
  Alcotest.(check bool) "/timeseriez sketched the update latency" true
    (contains body "\"update_seconds\"");
  Alcotest.(check bool) "/timeseriez counted the audited decisions" true
    (contains body "\"audit_allow\"");
  let status, _, body = http_get port "/alertz" in
  Alcotest.(check int) "/alertz is 200" 200 status;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("/alertz serves " ^ needle) true
        (contains body needle))
    [ "\"alerts\""; "\"transitions\""; "\"open_window\""; "\"report\"" ];
  let status, _, body = http_get port "/tracez?chrome=1" in
  Alcotest.(check int) "/tracez?chrome=1 is 200" 200 status;
  Alcotest.(check bool) "chrome export shape" true
    (contains body "\"traceEvents\"");
  let status, _, _ = http_get port "/eventz?txn=zero" in
  Alcotest.(check int) "bad txn over the wire is 400" 400 status;
  let status, _, _ = http_get port "/nothing" in
  Alcotest.(check int) "unknown endpoint over the wire is 404" 404 status;
  (* Rule telemetry and plan log over the wire: a served query populates
     both rings, and /rulez reports the logged-in classes' coverage. *)
  ignore (Core.Serve.query serve ~user:P.laporte "//service");
  let status, _, body = http_get port "/rulez" in
  Alcotest.(check int) "/rulez is 200" 200 status;
  Alcotest.(check bool) "/rulez reports per-rule coverage" true
    (contains body "\"priority\"");
  Alcotest.(check bool) "/rulez reports permission classes" true
    (contains body "\"classes\"");
  Alcotest.(check bool) "/rulez saw decided nodes" true
    (contains body "\"decided\"");
  let status, _, body = http_get port "/explainz" in
  Alcotest.(check int) "/explainz is 200" 200 status;
  Alcotest.(check bool) "/explainz serves the recorded plan" true
    (contains body "\"query\":\"//service\"");
  let status, _, body = http_get port "/slowz" in
  Alcotest.(check int) "/slowz is 200" 200 status;
  Alcotest.(check bool) "threshold 0 routes the plan to the slow ring" true
    (contains body "\"query\":\"//service\"");
  (* HEAD over the wire: GET's status, headers and Content-Length with
     an empty body; every response says Cache-Control: no-store. *)
  let get_status, get_headers, get_body = http_get port "/healthz" in
  let status, headers, body = http_request "HEAD" port "/healthz" in
  Alcotest.(check int) "HEAD matches GET's status" get_status status;
  Alcotest.(check string) "HEAD body is empty" "" body;
  Alcotest.(check (option string)) "HEAD advertises the GET body length"
    (Some (string_of_int (String.length get_body)))
    (List.assoc_opt "content-length" headers);
  Alcotest.(check (option string)) "HEAD responses are no-store"
    (Some "no-store")
    (List.assoc_opt "cache-control" headers);
  Alcotest.(check (option string)) "GET responses are no-store"
    (Some "no-store")
    (List.assoc_opt "cache-control" get_headers);
  let status, headers, _ = http_request "POST" port "/metrics" in
  Alcotest.(check int) "POST over the wire is 405" 405 status;
  Alcotest.(check (option string)) "even errors are no-store"
    (Some "no-store")
    (List.assoc_opt "cache-control" headers);
  Monitor.stop mon;
  Monitor.stop mon (* idempotent *)

let () =
  Alcotest.run "monitor"
    [
      ( "routing",
        [
          Alcotest.test_case "target splitting" `Quick test_split_target;
          Alcotest.test_case "statuses and content types" `Quick test_routing;
          Alcotest.test_case "methods: HEAD mirrors GET, others 405" `Quick
            test_methods;
          Alcotest.test_case "telemetry endpoints route" `Quick
            test_telemetry_endpoints;
          Alcotest.test_case "/eventz?txn= filter matrix" `Quick
            test_eventz_filter;
          Alcotest.test_case "health probes" `Quick test_probes;
          Alcotest.test_case "writable-dir probe" `Quick
            test_writable_dir_probe;
        ] );
      ( "http",
        [ Alcotest.test_case "exporter end to end" `Quick test_end_to_end ] );
      (* after "http", whose checks read absolute commit counts *)
      ( "serve",
        [
          Alcotest.test_case "serve_stale_classes after a commit" `Quick
            test_stale_classes_gauge;
        ] );
    ]
