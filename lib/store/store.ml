module Journal = Journal
module Snapshot = Snapshot
module Audit_log = Audit_log

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let m_appends =
  Obs.Metrics.counter Obs.Metrics.default "store_journal_appends_total"
    ~help:"Transactions appended to the write-ahead journal"

let m_bytes =
  Obs.Metrics.counter Obs.Metrics.default "store_journal_bytes_total"
    ~help:"Bytes appended to the write-ahead journal"

let m_fsyncs =
  Obs.Metrics.counter Obs.Metrics.default "store_journal_fsyncs_total"
    ~help:"fsync(2) calls after journal appends"

let m_snapshots =
  Obs.Metrics.counter Obs.Metrics.default "store_snapshots_total"
    ~help:"Snapshots written"

let m_recoveries =
  Obs.Metrics.counter Obs.Metrics.default "store_recoveries_total"
    ~help:"Crash recoveries performed"

let m_replayed =
  Obs.Metrics.counter Obs.Metrics.default "store_recovered_txns_total"
    ~help:"Journal records replayed during recoveries"

let m_torn =
  Obs.Metrics.counter Obs.Metrics.default "store_torn_bytes_total"
    ~help:"Torn journal tail bytes discarded (truncated record after a crash)"

let h_append =
  Obs.Metrics.histogram Obs.Metrics.default "store_append_seconds"
    ~help:"Journal append latency (encode + write + flush [+ fsync])"

let h_snapshot =
  Obs.Metrics.histogram Obs.Metrics.default "store_snapshot_seconds"
    ~help:"Snapshot write latency"

let h_recover =
  Obs.Metrics.histogram Obs.Metrics.default "store_recover_seconds"
    ~help:"Recovery latency (snapshot load + journal replay)"

let h_fsync =
  Obs.Metrics.histogram Obs.Metrics.default "store_fsync_seconds"
    ~help:"fsync(2) latency on the journal after an append"

let g_journal_bytes =
  Obs.Metrics.gauge Obs.Metrics.default "store_journal_bytes"
    ~help:"Current size of the write-ahead journal on disk"

(* Monotonic instant of the most recent snapshot write in this process;
   nan until the first one.  Feeds the seconds-since-snapshot gauge the
   health endpoint compares against --snapshot-every. *)
let last_snapshot_at = Atomic.make Float.nan

let seconds_since_snapshot () =
  let t = Atomic.get last_snapshot_at in
  if Float.is_nan t then None else Some (Obs.Mono.now () -. t)

let () =
  Obs.Metrics.gauge_fn Obs.Metrics.default "store_seconds_since_snapshot"
    ~help:"Seconds since the last snapshot write (-1 before the first)"
    (fun () ->
      match seconds_since_snapshot () with Some s -> s | None -> -1.)

type t = {
  dir : string;
  fsync : bool;
  snapshot_every : int;
  mutable seq : int;
  mutable snap_seq : int; (* seq covered by the newest snapshot; 0 = none *)
  mutable has_history : bool;
  oc : out_channel;
}

let journal_path dir = Filename.concat dir "journal.log"

let dir t = t.dir
let seq t = t.seq
let is_fresh t = not t.has_history

let open_dir ?(fsync = false) ?(snapshot_every = 0) dir =
  (try
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
     else if not (Sys.is_directory dir) then fail "%s: not a directory" dir
   with Sys_error m -> fail "%s" m);
  let jp = journal_path dir in
  if not (Sys.file_exists jp) then begin
    try
      let oc = open_out_bin jp in
      output_string oc Journal.header_line;
      close_out oc
    with Sys_error m -> fail "%s" m
  end;
  let scan = try Journal.scan jp with Journal.Error m -> fail "%s" m in
  (* Repair: drop any torn tail so appends resume on a record boundary. *)
  if scan.Journal.torn_bytes > 0 then begin
    Obs.Metrics.add m_torn scan.Journal.torn_bytes;
    try
      let fd = Unix.openfile jp [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd scan.Journal.valid_bytes;
      Unix.close fd
    with Unix.Unix_error (e, _, _) -> fail "%s" (Unix.error_message e)
  end;
  let journal_seq =
    match List.rev scan.Journal.records with
    | r :: _ -> r.Journal.seq
    | [] -> 0
  in
  let snapshots = try Snapshot.list ~dir with Snapshot.Error m -> fail "%s" m in
  let snapshot_seq = match snapshots with (n, _) :: _ -> n | [] -> 0 in
  let oc =
    try open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 jp
    with Sys_error m -> fail "%s" m
  in
  (try Obs.Metrics.set_gauge g_journal_bytes (float (Unix.stat jp).st_size)
   with Unix.Unix_error _ -> ());
  {
    dir;
    fsync;
    snapshot_every;
    seq = max journal_seq snapshot_seq;
    snap_seq = snapshot_seq;
    has_history = scan.Journal.records <> [] || snapshots <> [];
    oc;
  }

let snapshot_every t = t.snapshot_every

let snapshot_lag t = t.seq - t.snap_seq

let snapshot t doc =
  Obs.Metrics.time h_snapshot @@ fun () ->
  Obs.Trace.with_span "store.snapshot" @@ fun () ->
  Obs.Trace.annotate "seq" (string_of_int t.seq);
  (try ignore (Snapshot.write ~dir:t.dir ~seq:t.seq doc)
   with Snapshot.Error m -> fail "%s" m);
  t.has_history <- true;
  t.snap_seq <- t.seq;
  Atomic.set last_snapshot_at (Obs.Mono.now ());
  Obs.Metrics.inc m_snapshots;
  Obs.Events.emit (Obs.Events.Snapshot { seq = t.seq })

let init t doc =
  if t.has_history then fail "%s: store already initialised" t.dir;
  snapshot t doc

let append t ~user ~mode ~doc ops =
  Obs.Metrics.time h_append @@ fun () ->
  Obs.Trace.with_span "store.append" @@ fun () ->
  if is_fresh t then fail "%s: store not initialised (no base snapshot)" t.dir;
  let seq = t.seq + 1 in
  let bytes = Journal.encode { Journal.seq; user; mode; ops } in
  (try
     output_string t.oc bytes;
     flush t.oc;
     Obs.Events.emit
       (Obs.Events.Journal_append { seq; bytes = String.length bytes });
     if t.fsync then begin
       let t0 = Obs.Mono.now () in
       Unix.fsync (Unix.descr_of_out_channel t.oc);
       let dt = Obs.Mono.now () -. t0 in
       Obs.Metrics.inc m_fsyncs;
       Obs.Metrics.observe h_fsync dt;
       Obs.Events.emit (Obs.Events.Fsync { seconds = dt })
     end
   with
   | Sys_error m -> fail "%s" m
   | Unix.Unix_error (e, _, _) -> fail "%s" (Unix.error_message e));
  t.seq <- seq;
  Obs.Metrics.inc m_appends;
  Obs.Metrics.add m_bytes (String.length bytes);
  Obs.Metrics.add_gauge g_journal_bytes (float (String.length bytes));
  if t.snapshot_every > 0 && seq mod t.snapshot_every = 0 then snapshot t doc;
  seq

let close t = close_out_noerr t.oc

type recovery = {
  doc : Xmldoc.Document.t;
  seq : int;
  snapshot_seq : int;
  replayed : int;
  torn_bytes : int;
}

let recover ~replay dir =
  Obs.Metrics.time h_recover @@ fun () ->
  Obs.Trace.with_span "store.recover" @@ fun () ->
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    fail "%s: no such store" dir;
  let jp = journal_path dir in
  (* The snapshot is loaded first so that the journal records it covers
     are only checksum-framed, never decoded: recovery cost follows the
     tail, not the store's history. *)
  let snapshot = Snapshot.load_latest ~dir in
  let snapshot_seq, doc0 =
    match snapshot with
    | Some (seq, doc) -> (seq, doc)
    | None -> (0, Xmldoc.Document.empty)
  in
  let scan =
    if Sys.file_exists jp then
      try Journal.scan_tail ~after:snapshot_seq jp
      with Journal.Error m -> fail "%s" m
    else { Journal.records = []; valid_bytes = 0; torn_bytes = 0 }
  in
  if Option.is_none snapshot && scan.Journal.records <> [] then
    fail "%s: journal without a loadable base snapshot" dir;
  let doc, seq, replayed =
    List.fold_left
      (fun (doc, seq, k) (r : Journal.record) ->
        if r.Journal.seq <> seq + 1 then
          fail "%s: journal gap (expected seq %d, found %d)" dir (seq + 1)
            r.Journal.seq
        else begin
          Obs.Events.emit (Obs.Events.Replay { seq = r.Journal.seq });
          ( replay doc ~user:r.Journal.user ~mode:r.Journal.mode r.Journal.ops,
            r.Journal.seq,
            k + 1 )
        end)
      (doc0, snapshot_seq, 0) scan.Journal.records
  in
  Obs.Metrics.inc m_recoveries;
  Obs.Metrics.add m_replayed replayed;
  Obs.Metrics.add m_torn scan.Journal.torn_bytes;
  Obs.Trace.annotate "replayed" (string_of_int replayed);
  { doc; seq; snapshot_seq; replayed; torn_bytes = scan.Journal.torn_bytes }
