(* Served end-to-end benchmark: seeded, closed-loop, single-client
   workloads driven through Core.Serve with the journal, the durable
   audit sink and the permission-class table live — the configuration
   [xmlsecu monitor] runs, minus Obs.Trace, the HTTP exporter and extra
   domains (the pool stays at size 1).

   Usage:
     perfbench --workload write_zipf|hospital_staff|hospital_mixed --seed N
               --seconds S --trace 0|1 [--doc-seed N] [--dir DIR]
               [--spans FILE]

   --seed drives the op stream (users, labels, targets); the
   document comes from --doc-seed, fixed by default so that runs with
   different op seeds measure the same database.

   --trace 0 prints the end-to-end metrics; --trace 1 prints per-layer
   attribution.  Every timing is either aggregated over samples spread
   through the whole measured phase (op kinds interleaved) or the median
   of a repeated event: no metric is a single sub-second interval.  The
   last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}; correctness checks run
   outside the timed sections and any mismatch exits non-zero. *)

module D = Xmldoc.Document
module P = Workload.Prng
module S = Core.Serve

let workload = ref ""
let seed = ref 1
let doc_seed = ref 42
let seconds = ref 10.
let trace = ref 0
let work_dir = ref ".bench_run"
let spans_file = ref ""
let setup_only = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N op-stream seed");
      ("--doc-seed", Arg.Set_int doc_seed, "N document generator seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--dir", Arg.Set_string work_dir, "DIR scratch directory (removed)");
      ("--spans", Arg.Set_string spans_file, "FILE write traced spans here");
      ( "--setup-only",
        Arg.Set_string setup_only,
        "DIR one timed set-up in DIR, then print its total and parse seconds" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let now = Obs.Mono.now
let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* ---- statistics -------------------------------------------------------- *)

(* Linear interpolation between closest ranks (numpy's default); 0 for
   an event that did not occur. *)
let quantile xs q =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Fixed loops timed before and after the run, so a noisy verdict can be
   told apart from a program change: an ALU loop, and a pointer chase
   through 4 MB outside the OCaml heap.  The chase stays in cache on a
   quiet host; neighbours' cache traffic slows it by up to 2x, and the
   program's cache-resident traversals swing with it. *)
let ref_loop_ms () =
  let t0 = now () in
  let x = ref 1 in
  for i = 1 to 30_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fffffff
  done;
  ignore (Sys.opaque_identity !x);
  1000. *. (now () -. t0)

let ref_cache_ms () =
  let n = 1 lsl 20 in
  let a = Bigarray.(Array1.create int32 c_layout n) in
  (* one full-period LCG cycle over the indices *)
  for i = 0 to n - 1 do
    a.{i} <- Int32.of_int (((i * 1103515245) + 12345) land (n - 1))
  done;
  let t0 = now () in
  let p = ref 0 in
  for _ = 1 to 2_000_000 do
    p := Int32.to_int a.{!p}
  done;
  ignore (Sys.opaque_identity !p);
  1000. *. (now () -. t0)

(* ---- files ------------------------------------------------------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

(* ---- registry deltas --------------------------------------------------- *)

let counter name = Obs.Metrics.value (Obs.Metrics.counter Obs.Metrics.default name)
let hist name = Obs.Metrics.histogram Obs.Metrics.default name

let hist_sum name = Obs.Metrics.sum (hist name)
let hist_count name = Obs.Metrics.count (hist name)

(* The registry instruments the per-layer counts are read from, as
   deltas over the untraced phase. *)
let registry () =
  List.map (fun n -> (n, fi (counter n)))
    [ "rewrite_compiled_total"; "rewrite_fallback_total"; "lazy_view_hits_total";
      "lazy_view_misses_total"; "txn_aborts_total"; "store_journal_bytes_total";
      "audit_journal_appends_total"; "audit_journal_bytes_total";
      "serve_rebase_incremental_total"; "serve_rebase_full_total";
      "serve_class_splits_total"; "serve_class_merges_total" ]
  @ [ ("snapshot.sum", hist_sum "store_snapshot_seconds");
      ("snapshot.count", fi (hist_count "store_snapshot_seconds")) ]

let delta before after name = List.assoc name after -. List.assoc name before

(* ---- workloads --------------------------------------------------------- *)

(* Queries per run, so that query_p99_ms has >= 10 samples beyond it. *)
let min_queries = 1000

(* Commits per run, so that commit_p90_ms has >= 10 samples beyond it. *)
let min_commits = 100

(* Fresh set-ups per run; setup_s is their median. *)
let setups = 11

(* Recover when this many commits follow a snapshot boundary, so every
   recovery replays the same journal-tail length. *)
let recover_after = 2

type op =
  | Query of { user : string; q : string }
  | Commit of { user : string; ops : Core.Op.t list }

type spec = {
  xml : string;  (** the generated document, as bytes *)
  policy : Core.Policy.t;
  users : string list;
  snapshot_every : int;  (** automatic snapshot period, inside commits *)
  next : P.t -> S.t -> P.t * op;  (** the seeded, closed-loop op stream *)
  probe_rule : string option;
      (** a rule path for the set-up [Perm.update_policy] probe, on
          workloads whose op stream carries no policy churn *)
}

let pick_arr rng a =
  let rng, i = P.int rng (Array.length a) in
  (rng, a.(i))

(* Inserts and removes alternate once the population of inserted
   subtrees reaches [live_target], so the document stays within a few
   dozen nodes of its start size. *)
let live_target = 12

(* Commit kinds follow a fixed rotation over the commit index, so every
   run carries the same op mix whatever its seed: 30 % update, 20 %
   rename, 50 % balanced insert/remove. *)
type kind = Update | Rename | Insert_or_remove

let kind_of n =
  match n mod 10 with
  | 0 | 3 | 6 -> Update
  | 2 | 7 -> Rename
  | _ -> Insert_or_remove

(* Gen_large: 8 downward permission classes (roles r0..r7) of 4 users
   each.  Class c sees e<c+1> subtrees as geometry only, may not update
   the text under e<c+9>, and may otherwise read and write everywhere —
   every rule is downward, so broadcasts stay delta-scoped. *)
let classes = 8
let zipf_users = List.init 32 (Printf.sprintf "u%02d")
let zipf_users_arr = Array.of_list zipf_users

let zipf_policy () =
  let module R = Core.Rule in
  let module Pr = Core.Privilege in
  let subjects =
    Core.Subject.of_list
      (List.init classes (fun c -> (Core.Subject.Role, Printf.sprintf "r%d" c, []))
      @ List.mapi
          (fun i u -> (Core.Subject.User, u, [ Printf.sprintf "r%d" (i mod classes) ]))
          zipf_users)
  in
  let rules =
    List.concat
      (List.init classes (fun c ->
           let s = Printf.sprintf "r%d" c and p k = (100 * (c + 1)) + k in
           let hidden = Printf.sprintf "//e%d" (c + 1) in
           [
             R.accept Pr.Read ~path:"//node()" ~subject:s ~priority:(p 1);
             R.deny Pr.Read ~path:(hidden ^ "//node()") ~subject:s ~priority:(p 2);
             R.deny Pr.Read ~path:hidden ~subject:s ~priority:(p 3);
             R.accept Pr.Position ~path:hidden ~subject:s ~priority:(p 4);
             R.accept Pr.Update ~path:"//node()" ~subject:s ~priority:(p 5);
             R.deny Pr.Update
               ~path:(Printf.sprintf "//e%d/text()" (c + 9))
               ~subject:s ~priority:(p 6);
             R.accept Pr.Insert ~path:"//node()" ~subject:s ~priority:(p 7);
             R.accept Pr.Delete ~path:"//node()" ~subject:s ~priority:(p 8);
           ]))
  in
  Core.Policy.v subjects rules

let zipf_config nodes seed =
  { Workload.Gen_large.default with target_nodes = nodes; seed }

(* A Zipf label present in the current source, with its node count. *)
let rec present_label config rng source tries =
  let rng, lbl = Workload.Gen_large.sample_label config rng in
  let n = List.length (D.by_label source lbl) in
  if n > 0 || tries = 0 then (rng, lbl, max n 1)
  else present_label config rng source (tries - 1)

(* Reads: //eK on the compiled Rewrite path, or (every [fallback_every]-th
   query, a fixed share) a positional/predicate form that falls back to
   the general evaluator.  The fallback forms rotate in a fixed order and
   stay within the top levels of the tree, so their cost mode (which
   query_p99_ms sits in) does not depend on the seed's label draws. *)
let fallback_every = 50

let zipf_query config ~step rng =
  let rng, user = pick_arr rng zipf_users_arr in
  let rng, lbl = Workload.Gen_large.sample_label config rng in
  let q =
    if step mod fallback_every <> 0 then "//" ^ lbl
    else
      match step / fallback_every mod 3 with
      | 0 -> Printf.sprintf "/*/*/%s[1]" lbl
      | 1 -> Printf.sprintf "/*/*/%s[@id]" lbl
      | _ -> Printf.sprintf "/*/%s[last()]/*" lbl
  in
  (rng, Query { user; q })

(* One single-op commit on a Zipf-drawn (//eK)[j]: update, rename, or a
   balanced insert / remove of small <ins> subtrees. *)
let zipf_write config rng serve ~n =
  let source = S.source serve in
  let rng, user = pick_arr rng zipf_users_arr in
  let rng, lbl, count = present_label config rng source 8 in
  let rng, j = P.int rng count in
  let target = Printf.sprintf "(//%s)[%d]" lbl (j + 1) in
  let live = List.length (D.by_label source "ins") in
  let rng, op =
    match kind_of n with
    | Update -> (rng, Xupdate.Op.update target (Printf.sprintf "v%d" n))
    | Rename ->
      let rng, lbl' = Workload.Gen_large.sample_label config rng in
      (rng, Xupdate.Op.rename target lbl')
    | Insert_or_remove when live < live_target ->
      ( rng,
        Xupdate.Op.append target
          (Xmldoc.Tree.element "ins"
             [ Xmldoc.Tree.element lbl [ Xmldoc.Tree.text (Printf.sprintf "t%d" n) ] ]) )
    | Insert_or_remove ->
      let rng, k = P.int rng live in
      (rng, Xupdate.Op.remove (Printf.sprintf "(//ins)[%d]" (k + 1)))
  in
  (rng, Commit { user; ops = [ Core.Op.doc op ] })

(* 10^4 nodes: each step is one single-op commit followed by 9 queries. *)
let write_zipf seed =
  let config = zipf_config 10_000 seed in
  let step = ref 0 and commits = ref 0 in
  {
    xml = Workload.Gen_large.to_xml_string config;
    policy = zipf_policy ();
    users = zipf_users;
    snapshot_every = 10;
    next =
      (fun rng serve ->
        incr step;
        if !step mod 10 = 1 then (incr commits; zipf_write config rng serve ~n:!commits)
        else zipf_query config ~step:!step rng);
    probe_rule = Some "//e2";
  }

(* The paper's schema and policy: Gen_doc + Gen_policy.hospital at 300
   patients.  All users log in; $USER rules make every patient a
   singleton class.  Every 10th op is a staff commit; with [churn], every
   20th commit is also a policy-churn batch. *)
let hospital ~churn seed =
  let config =
    { Workload.Gen_doc.patients = 300; visits_per_patient = 3;
      diagnosed_fraction = 0.8; seed }
  in
  let doc = Workload.Gen_doc.generate config in
  let patients = Array.of_list (Workload.Gen_doc.patient_names config) in
  let users = Workload.Gen_policy.hospital_staff @ Array.to_list patients in
  let users_arr = Array.of_list users in
  let queries = Array.of_list Workload.Gen_query.mix in
  let step = ref 0 and commits = ref 0 in
  let pending = ref None in
  let churn_paths = [| "//note"; "//visit/date"; "//service" |] in
  let churn_subjects = [| "staff"; "patient"; "secretary" |] in
  let doc_write rng serve =
    let rng, p = pick_arr rng patients in
    let live = List.length (D.by_label (S.source serve) "addendum") in
    let diagnosis = Printf.sprintf "/patients/%s/diagnosis" p in
    let n = !commits in
    ( rng,
      match kind_of n with
      | _ when n mod 25 = 24 ->
        (* the secretary may update a patient element but none of its
           children: a policy-prescribed denial on every target *)
        ("beaufort", Xupdate.Op.update (Printf.sprintf "/patients/%s" p) "x")
      | Update | Rename -> ("laporte", Xupdate.Op.update diagnosis (Printf.sprintf "dx%d" n))
      | Insert_or_remove when live < live_target ->
        ( "laporte",
          Xupdate.Op.append diagnosis
            (Xmldoc.Tree.element "addendum" [ Xmldoc.Tree.text (Printf.sprintf "a%d" n) ]) )
      | Insert_or_remove ->
        ("laporte", Xupdate.Op.remove (Printf.sprintf "(//addendum)[%d]" (1 + (n mod live)))) )
  in
  let churn_op serve =
    match !pending with
    | Some p ->
      pending := None;
      Core.Op.Retract_rule { priority = p }
    | None ->
      let p = S.fresh_priority serve in
      pending := Some p;
      let i = !commits / 20 mod Array.length churn_paths in
      Core.Op.Add_rule
        (Core.Rule.deny Core.Privilege.Read ~path:churn_paths.(i)
           ~subject:churn_subjects.(i) ~priority:p)
  in
  {
    xml = Xmldoc.Xml_print.to_string doc;
    policy = Workload.Gen_policy.hospital config;
    users;
    snapshot_every = 5;
    next =
      (fun rng serve ->
        incr step;
        if !step mod 10 <> 0 then
          let rng, user = pick_arr rng users_arr in
          let rng, q = pick_arr rng queries in
          (rng, Query { user; q })
        else begin
          incr commits;
          let rng, (user, op) = doc_write rng serve in
          if not churn || !commits mod 20 <> 10 then
            (rng, Commit { user; ops = [ Core.Op.doc op ] })
          else
            (* issue a rule, retract it on the next churn batch; mixed
               with a document op, so the journal frame is v2 *)
            (rng, Commit { user = "laporte"; ops = [ Core.Op.doc op; Core.Op.Policy (churn_op serve) ] })
        end);
    probe_rule = (if churn then None else Some "//note");
  }

(* hospital_mixed fails its recovery check on every run: snapshots hold
   the document only, so Txn.recover seeded with the start policy loses
   the policy ops journaled before the newest snapshot.  It stays
   runnable as the witness of that defect; hospital_staff is the same
   workload without policy churn. *)
let workloads =
  [ ("write_zipf", write_zipf);
    ("hospital_staff", hospital ~churn:false);
    ("hospital_mixed", hospital ~churn:true) ]

(* ---- set-up ------------------------------------------------------------ *)

type live = {
  serve : S.t;
  store : Store.t;
  audit : Store.Audit_log.t;
  store_dir : string;
  audit_dir : string;
}

let close_live l =
  Obs.Audit.set_sink Obs.Audit.default None;
  Store.Audit_log.close l.audit;
  Store.close l.store

(* Generated bytes -> Xml_parse -> Serve.create (freeze) -> store and
   audit init -> login_many of every workload user.  Returns the live
   server, the whole set-up time and the parse time. *)
let setup spec dir =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let store_dir = Filename.concat dir "store"
  and audit_dir = Filename.concat dir "audit" in
  let t0 = now () in
  let doc = Xmldoc.Xml_parse.of_string spec.xml in
  let t_parse = now () -. t0 in
  let store = Store.open_dir ~fsync:false ~snapshot_every:spec.snapshot_every store_dir in
  Store.init store doc;
  let audit = Store.Audit_log.open_dir ~fsync:false audit_dir in
  Obs.Audit.set_sink Obs.Audit.default (Some (Store.Audit_log.sink audit));
  let serve = S.create ~pool:(Core.Pool.create 1) ~persist:store spec.policy doc in
  S.login_many serve spec.users;
  let t = now () -. t0 in
  ({ serve; store; audit; store_dir; audit_dir }, t, t_parse)

(* ---- checks ------------------------------------------------------------ *)

let mismatches = ref []
let mismatch fmt = Printf.ksprintf (fun m -> mismatches := m :: !mismatches) fmt
let sorted l = List.sort_uniq Ordpath.compare l

(* Serve.query's answer must equal the class session's general-evaluator
   answer on its materialised view. *)
let check_query serve ~user q answer =
  let expect = Core.Session.query (S.session serve ~user) q in
  if not (List.equal Ordpath.equal (sorted answer) (sorted expect)) then
    mismatch "query %s as %s: %d answers, view evaluator %d" q user
      (List.length answer) (List.length expect)

let same_policy a b =
  String.equal (Core.Policy_lang.to_string a) (Core.Policy_lang.to_string b)

(* Recovery as the program performs it: [xmlsecu] reopens a store with
   Txn.recover seeded by the start policy (bin/xmlsecu.ml, open_store),
   and the recovered document and policy must be the served ones. *)
let check_recovery serve = function
  | Error e -> mismatch "Txn.recover raised %s" (Printexc.to_string e)
  | Ok (r : Core.Txn.recovered) ->
    if not (D.equal r.Core.Txn.doc (S.source serve)) then
      mismatch "recovered document differs from Serve.source at seq %d" r.Core.Txn.seq;
    if not (same_policy r.Core.Txn.policy (S.policy serve)) then
      mismatch "recovered policy differs from Serve.policy at seq %d" r.Core.Txn.seq

(* ---- spans ------------------------------------------------------------- *)

(* The traced run's own spans, kept in memory and written out at the end.
   The spans of one op (its public call and the shadow calls after it)
   share its op id; a shadow's inner calls nest under it (txn.commit ->
   invariants.check).  Set-up shadows carry op id 0. *)
type span = {
  id : int;
  name : string;
  parent : int;
  op_id : int;
  start : float;
  mutable stop : float;
}

let spans = ref []
let stack = ref []
let next_span = ref 0
let current_op = ref 0

let span name f =
  incr next_span;
  let sp =
    { id = !next_span; name; op_id = !current_op; start = now (); stop = nan;
      parent = (match !stack with p :: _ -> p | [] -> 0) }
  in
  stack := sp.id :: !stack;
  Fun.protect
    ~finally:(fun () ->
      sp.stop <- now ();
      stack := List.tl !stack;
      spans := sp :: !spans)
    f

let span_ms name =
  List.filter_map
    (fun sp -> if String.equal sp.name name then Some (1000. *. (sp.stop -. sp.start)) else None)
    !spans

let mean = function [] -> 0. | l -> List.fold_left ( +. ) 0. l /. fi (List.length l)
let span_mean name = mean (span_ms name)

(* Self time per span name: its duration minus its children's. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      let d = sp.stop -. sp.start in
      Hashtbl.replace child sp.parent
        (d +. Option.value ~default:0. (Hashtbl.find_opt child sp.parent)))
    !spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let self =
        sp.stop -. sp.start -. Option.value ~default:0. (Hashtbl.find_opt child sp.id)
      in
      let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt by_name sp.name) in
      Hashtbl.replace by_name sp.name (n + 1, t +. self))
    !spans;
  List.sort compare (Hashtbl.fold (fun k (n, t) acc -> (k, n, t) :: acc) by_name [])

let write_spans file t0 =
  let oc = open_out file in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"op\": %d, \"start_ms\": %.4f, \"end_ms\": %.4f}\n"
        sp.id sp.name sp.parent sp.op_id (1000. *. (sp.start -. t0))
        (1000. *. (sp.stop -. t0)))
    (List.rev !spans);
  close_out oc

(* ---- measured phase ---------------------------------------------------- *)

type sample = {
  mutable queries : float list;  (* seconds *)
  mutable commits : float list;
  mutable recovers : float list;
  mutable recover_records : int;
  (* registry time inside each commit: *)
  mutable broadcasts : float list;  (* broadcast, document-only batches *)
  mutable rekeys : float list;  (* re-key, policy-changing batches *)
  mutable appends : float list;  (* Store.append, nested snapshots excluded *)
  mutable commit_snapshots : float list;  (* automatic snapshots *)
  mutable attempted : int;
  mutable failed : int;
  mutable answers : int;
  mutable targets : int;
  mutable denied : int;
  mutable doc_ops : int;
  mutable busy : float;  (* seconds inside timed ops *)
}

let new_sample () =
  { queries = []; commits = []; recovers = []; recover_records = 0;
    broadcasts = []; rekeys = []; appends = []; commit_snapshots = [];
    attempted = 0; failed = 0; answers = 0; targets = 0; denied = 0;
    doc_ops = 0; busy = 0. }

(* The traced run wraps each op in a span and adds shadow calls; the
   untraced run uses [no_hooks]. *)
type hooks = {
  wrap : string -> (unit -> unit) -> unit;
  before_commit : S.t -> user:string -> unit;
  after_commit : S.t -> Core.Op.t list -> S.committed -> unit;
  after_query : S.t -> user:string -> string -> unit;
}

let no_hooks =
  {
    wrap = (fun _ f -> f ());
    before_commit = (fun _ ~user:_ -> ());
    after_commit = (fun _ _ _ -> ());
    after_query = (fun _ ~user:_ _ -> ());
  }

(* Correctness samples: every [check_every]-th query, at most
   [max_checks] per phase, checked outside the timed section. *)
let check_every = 37
let max_checks = 16

(* [between busy] runs after each op, outside the timed sections, with the
   phase's time in ops so far. *)
let run_phase ?(hooks = no_hooks) ?(between = ignore) spec live rng ~seconds
    ~min_queries ~min_commits =
  let s = new_sample () in
  let serve = live.serve in
  let checks = ref 0 and rng = ref rng in
  let nq = ref 0 and nc = ref 0 in
  let timed f =
    let t0 = now () in
    f ();
    let dt = now () -. t0 in
    s.busy <- s.busy +. dt;
    dt
  in
  while s.busy < seconds || !nq < min_queries || !nc < min_commits do
    let rng', op = spec.next !rng serve in
    rng := rng';
    let attempt () =
      s.attempted <- s.attempted + 1;
      incr current_op
    in
    match op with
    | Query { user; q } -> (
      attempt ();
      incr nq;
      let result = ref None in
      let dt =
        timed (fun () ->
            hooks.wrap "serve.query" (fun () ->
                result := try Some (S.query serve ~user q) with _ -> None))
      in
      s.queries <- dt :: s.queries;
      match !result with
      | Some ids ->
        s.answers <- s.answers + List.length ids;
        hooks.after_query serve ~user q;
        if !nq mod check_every = 0 && !checks < max_checks then begin
          incr checks;
          check_query serve ~user q ids
        end
      | None -> s.failed <- s.failed + 1)
    | Commit { user; ops } -> (
      attempt ();
      incr nc;
      hooks.before_commit serve ~user;
      let bc0 = hist_sum "serve_broadcast_seconds"
      and ap0 = hist_sum "store_append_seconds"
      and sn0 = hist_sum "store_snapshot_seconds" in
      let result = ref None in
      let dt =
        timed (fun () ->
            hooks.wrap "serve.commit_ops" (fun () ->
                result :=
                  try Result.to_option (S.commit_ops ~on_denial:`Tolerate serve ~user ops)
                  with _ -> None))
      in
      s.commits <- dt :: s.commits;
      let bc = hist_sum "serve_broadcast_seconds" -. bc0
      and sn = hist_sum "store_snapshot_seconds" -. sn0 in
      s.appends <- (hist_sum "store_append_seconds" -. ap0 -. sn) :: s.appends;
      s.commit_snapshots <- sn :: s.commit_snapshots;
      (match !result with
       | Some c ->
         if c.S.policy_changed then s.rekeys <- bc :: s.rekeys
         else s.broadcasts <- bc :: s.broadcasts;
         List.iter
           (fun (r : Core.Secure_update.report) ->
             s.doc_ops <- s.doc_ops + 1;
             s.targets <- s.targets + List.length r.targets;
             s.denied <- s.denied + List.length r.denied)
           c.S.reports;
         hooks.after_commit serve ops c
       | None -> s.failed <- s.failed + 1);
      (* Recovery at a fixed distance past each snapshot boundary, so
         every call replays the same journal-tail length. *)
      if Store.snapshot_lag live.store = recover_after then begin
        let t0 = now () in
        let r = try Ok (Core.Txn.recover spec.policy live.store_dir) with e -> Error e in
        s.recovers <- (now () -. t0) :: s.recovers;
        Result.iter
          (fun r -> s.recover_records <- s.recover_records + r.Core.Txn.replayed)
          r;
        check_recovery serve r
      end);
    between s.busy
  done;
  (s, !rng)

(* ---- traced shadows ---------------------------------------------------- *)

(* Audit records of shadow calls would reach the durable sink; shadows run
   with the audit layer off. *)
let unaudited f =
  Obs.Audit.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.Audit.set_enabled true) f

let flat_of serve ~user =
  match Core.Lazy_view.flat (S.lazy_view serve ~user) with
  | Some f -> f
  | None -> Xmldoc.Flat.of_document (S.source serve)

(* One representative user per permission class, at most [n]. *)
let class_reps serve users n =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun u ->
      let p = Core.Perm.profile (S.policy serve) ~user:u in
      if Hashtbl.length seen >= n || Hashtbl.mem seen p then false
      else (Hashtbl.add seen p (); true))
    users

(* Login-time layers, per class: Perm.compute and View.derive on the
   frozen snapshot, and (on workloads without policy churn)
   Perm.update_policy for one added probe rule. *)
let setup_shadows spec serve =
  let policy = S.policy serve and source = S.source serve in
  let op_id = !current_op in
  current_op := 0;
  List.iter
    (fun user ->
      let flat = flat_of serve ~user in
      let perm = span "perm.compute" (fun () -> Core.Perm.compute ~flat policy source ~user) in
      ignore (span "view.derive" (fun () -> Core.View.derive ~flat source perm));
      Option.iter
        (fun path ->
          let probe =
            Core.Policy.add_rule policy
              (Core.Rule.deny Core.Privilege.Read ~path ~subject:user
                 ~priority:(Core.Policy.next_priority policy))
          in
          ignore
            (span "perm.update_policy" (fun () ->
                 Core.Perm.update_policy ~flat perm ~old_policy:policy probe source)))
        spec.probe_rule)
    (class_reps serve spec.users 16);
  current_op := op_id

type pre = {
  writer : Core.Session.t;
  other : Core.Session.t option;  (** a session of another class *)
  reps : Core.Session.t list;  (** one session per class, at most 8 *)
  source0 : D.t;
  flat0 : Xmldoc.Flat.t;
  policy0 : Core.Policy.t;
}

let bytes_per_node = ref []

(* Shadow calls repeat each stage's public function on the op's own
   inputs.  They touch only persistent values: sessions, documents and
   snapshots are immutable, and reads go to benchmark-owned lazy views
   (Lazy_view.rebase shares its memo table, so Serve's live ones are
   never touched). *)
let traced_hooks spec =
  let pre = ref None in
  let lazy_views = Hashtbl.create 16 in
  let profile serve user = Core.Perm.profile (S.policy serve) ~user in
  let before_commit serve ~user =
    let p = profile serve user in
    let other = List.find_opt (fun u -> profile serve u <> p) spec.users in
    pre :=
      Some
        { writer = S.session serve ~user;
          other = Option.map (fun u -> S.session serve ~user:u) other;
          reps = List.map (fun u -> S.session serve ~user:u) (class_reps serve spec.users 8);
          source0 = S.source serve; flat0 = flat_of serve ~user;
          policy0 = S.policy serve }
  in
  let after_commit serve ops (c : S.committed) =
    Hashtbl.reset lazy_views;
    match !pre with
    | None -> ()
    | Some p ->
      let source' = S.source serve in
      let flat' = span "flat.freeze" (fun () -> Xmldoc.Flat.of_document source') in
      bytes_per_node := Xmldoc.Flat.bytes_per_node flat' :: !bytes_per_node;
      unaudited @@ fun () ->
      let defer = Queue.create () in
      ignore
        (List.fold_left
           (fun sess op ->
             match op with
             | Core.Op.Doc d -> (
               try
                 fst
                   (span "secure_update.stage" (fun () ->
                        Core.Secure_update.stage ~defer sess d))
               with _ -> sess)
             | Core.Op.Policy _ -> sess)
           p.writer ops);
      let validate d = span "invariants.check" (fun () -> Xmldoc.Invariants.check d) in
      ignore
        (span "txn.commit" (fun () ->
             Core.Txn.commit_ops ~on_denial:`Tolerate ~validate p.writer ops));
      if c.S.policy_changed then
        (* re-resolution per class, as the re-key runs it *)
        List.iter
          (fun rep ->
            ignore
              (span "perm.update_policy" (fun () ->
                   Core.Perm.update_policy ~flat:p.flat0 (Core.Session.perm rep)
                     ~old_policy:p.policy0 (S.policy serve) p.source0)))
          p.reps
      else
        Option.iter
          (fun o ->
            ignore
              (span "session.apply_delta" (fun () ->
                   Core.Session.apply_delta ~quiet:true ~flat:flat' o source' c.S.delta)))
          p.other
  in
  let after_query serve ~user q =
    let plan = span "rewrite.plan" (fun () -> Core.Rewrite.plan_str q) in
    let key = profile serve user in
    let lv =
      match Hashtbl.find_opt lazy_views key with
      | Some lv -> lv
      | None ->
        let lv =
          Core.Lazy_view.create ~flat:(flat_of serve ~user) (S.source serve)
            (Core.Session.perm (S.session serve ~user))
        in
        Hashtbl.replace lazy_views key lv;
        lv
    in
    unaudited (fun () ->
        ignore
          (span "rewrite.select" (fun () ->
               Core.Rewrite.select ~vars:[ ("USER", Xpath.Value.Str user) ] plan lv)))
  in
  { wrap = (fun name f -> span name f); before_commit; after_commit; after_query }

(* ---- main -------------------------------------------------------------- *)

let observability_on () =
  Obs.Audit.set_enabled true;
  Obs.Events.set_enabled true;
  Obs.Rulestats.set_enabled true;
  Obs.Planlog.set_enabled true;
  Obs.Timeseries.set_enabled true;
  Obs.Anomaly.install ()

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%-36s %14.4f %s\n" name v unit) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let ms = List.map (fun x -> 1000. *. x)
let completed s = List.length s.queries + List.length s.commits - s.failed
let ops_per_s s = ratio (fi (completed s)) s.busy

let () =
  let build =
    match List.assoc_opt !workload workloads with
    | Some b -> b
    | None -> fail "unknown workload %S" !workload
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !setup_only <> "" then begin
    let spec = build !doc_seed in
    observability_on ();
    Gc.full_major ();
    let l, t, tp = setup spec !setup_only in
    close_live l;
    rm_rf !setup_only;
    Printf.printf "%.17g %.17g\n" t tp;
    exit 0
  end;
  let traced = !trace = 1 in
  let ref_before = ref_loop_ms () and cache_before = ref_cache_ms () in
  let spec = build !doc_seed in
  observability_on ();
  rm_rf !work_dir;
  Unix.mkdir !work_dir 0o755;
  (* The server the run measures.  setup_s comes from fresh set-ups in
     child processes of their own, so their heaps stay out of the run's
     heap figures.  They are spread evenly through the measured phase (both
     halves of a traced run), so that setup_s samples the same host
     conditions as the ops. *)
  let live, _, _ = setup spec (Filename.concat !work_dir "live") in
  let setup_times = ref [] and parse_times = ref [] in
  let setup_in_child () =
    let i = List.length !setup_times + 1 in
    let dir = Filename.concat !work_dir (Printf.sprintf "s%d" i) in
    let exe = Sys.executable_name in
    let r, w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process exe
        [| exe; "--workload"; !workload; "--doc-seed"; string_of_int !doc_seed;
           "--setup-only"; dir |]
        Unix.stdin w Unix.stderr
    in
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 ->
      Scanf.sscanf out " %f %f" (fun t tp ->
          setup_times := t :: !setup_times;
          parse_times := tp :: !parse_times)
    | _ -> fail "set-up %d failed" i
  in
  let t_origin = now () in
  let rng = P.create ((!seed * 7919) + 17) in
  (* The untraced phase: the whole run for --trace 0, its first half (the
     one counts and registry deltas come from) for --trace 1. *)
  let share = if traced then 0.5 else 1. in
  let portion n = int_of_float (Float.ceil (share *. fi n)) in
  let spread_setups ~after busy =
    let n = List.length !setup_times in
    if n < setups && after +. busy >= !seconds *. fi n /. fi setups then
      setup_in_child ()
  in
  let disk () =
    Store.Audit_log.flush live.audit;
    dir_bytes live.store_dir + dir_bytes live.audit_dir
  in
  let bytes = ref 0 in
  let phase ?hooks ?between rng =
    Gc.full_major ();
    let b0 = disk () in
    let s, rng =
      run_phase ?hooks ?between spec live rng ~seconds:(share *. !seconds)
        ~min_queries:(portion min_queries) ~min_commits:(portion min_commits)
    in
    bytes := disk () - b0;
    (s, rng)
  in
  let reg0 = registry () and gc0 = Gc.quick_stat () in
  let s, rng = phase ~between:(spread_setups ~after:0.) rng in
  let remaining_setups () =
    while List.length !setup_times < setups do setup_in_child () done;
    Printf.printf "set-ups (s): %s\n"
      (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setup_times))
  in
  if not traced then remaining_setups ();
  let reg1 = registry () and gc1 = Gc.quick_stat () in
  (* What the served state holds once the phase's garbage is gone. *)
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  let disk_bytes = !bytes in
  Printf.printf "workload %s seed %d: %d queries, %d commits, %d recoveries, %.1f s in ops\n"
    !workload !seed (List.length s.queries) (List.length s.commits)
    (List.length s.recovers) s.busy;
  let metrics, ungated, traced_attempted, traced_failed =
    if not traced then
      ( [
          ("setup_s", median !setup_times, "s");
          ("ops_per_s", ops_per_s s, "1/s");
          ("commit_p90_ms", quantile (ms s.commits) 0.9, "ms");
          ("heap_peak_mb", fi (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6, "MB");
          ("heap_live_mb", fi (live_words * (Sys.word_size / 8)) /. 1e6, "MB");
          ("disk_bytes_per_op", ratio (fi disk_bytes) (fi s.attempted), "B");
        ],
        (* Printed, not gated: their run-to-run spread crossed the 0.25
           cap on bounds when a set of runs met a change of host speed
           (perfbench/README.md). *)
        [ ("query_p50_ms", quantile (ms s.queries) 0.5, "ms");
          ("query_p99_ms", quantile (ms s.queries) 0.99, "ms");
          ("commit_p50_ms", quantile (ms s.commits) 0.5, "ms");
          ("recover_s", median s.recovers, "s") ],
        0, 0 )
    else begin
      setup_shadows spec live.serve;
      let t, _ = phase ~hooks:(traced_hooks spec) ~between:(spread_setups ~after:s.busy) rng in
      remaining_setups ();
      let d = delta reg0 reg1 in
      let ops = fi s.attempted in
      let commits = fi (List.length s.commits) in
      let attributed =
        span_mean "txn.commit" +. span_mean "flat.freeze"
        +. (1000. *. (mean t.appends +. mean t.commit_snapshots))
        +. (1000. *. mean (t.broadcasts @ t.rekeys))
      in
      let untraced_rate = ops_per_s s and traced_rate = ops_per_s t in
      print_endline "per-layer self time (traced phase):";
      List.iter
        (fun (name, n, self) ->
          Printf.printf "  %-24s %6d spans %12.2f ms self %10.4f ms/span\n" name n
            (1000. *. self) (1000. *. self /. fi n))
        (self_times ());
      if !spans_file <> "" then write_spans !spans_file t_origin;
      ( [
          ("xml_parse.ms", 1000. *. median !parse_times, "ms");
          ("flat.freeze_ms", span_mean "flat.freeze", "ms");
          ("flat.bytes_per_node", mean !bytes_per_node, "B");
          ("perm.compute_ms", median (span_ms "perm.compute"), "ms");
          ("view.derive_ms", median (span_ms "view.derive"), "ms");
          ("perm.update_policy_ms", span_mean "perm.update_policy", "ms");
          ("rewrite.plan_ms", span_mean "rewrite.plan", "ms");
          ("rewrite.select_ms", span_mean "rewrite.select", "ms");
          ( "rewrite.compiled_ratio",
            ratio (d "rewrite_compiled_total")
              (d "rewrite_compiled_total" +. d "rewrite_fallback_total"),
            "1" );
          ( "lazy_view.hit_ratio",
            ratio (d "lazy_view_hits_total")
              (d "lazy_view_hits_total" +. d "lazy_view_misses_total"),
            "1" );
          ("query.answers_per_query", ratio (fi s.answers) (fi (List.length s.queries)), "count");
          ("secure_update.stage_ms", span_mean "secure_update.stage", "ms");
          ("secure_update.targets_per_op", ratio (fi s.targets) (fi s.doc_ops), "count");
          ("secure_update.denied_per_op", ratio (fi s.denied) (fi s.doc_ops), "count");
          ("invariants.check_ms", span_mean "invariants.check", "ms");
          ("txn.commit_ms", span_mean "txn.commit", "ms");
          ("txn.aborts", d "txn_aborts_total", "count");
          ("store.append_ms", 1000. *. mean s.appends, "ms");
          ( "store.snapshot_ms",
            1000. *. ratio (d "snapshot.sum") (d "snapshot.count"),
            "ms" );
          ("store.journal_bytes_per_commit", ratio (d "store_journal_bytes_total") commits, "B");
          ("audit_log.records_per_op", ratio (d "audit_journal_appends_total") ops, "count");
          ("audit_log.bytes_per_op", ratio (d "audit_journal_bytes_total") ops, "B");
          ("session.apply_delta_ms", span_mean "session.apply_delta", "ms");
          ("serve.broadcast_ms", 1000. *. mean s.broadcasts, "ms");
          ("serve.rekey_ms", 1000. *. mean s.rekeys, "ms");
          ("serve.classes", fi (S.classes live.serve), "count");
          ( "serve.rebase_incremental_ratio",
            ratio (d "serve_rebase_incremental_total")
              (d "serve_rebase_incremental_total" +. d "serve_rebase_full_total"),
            "1" );
          ("serve.class_splits", d "serve_class_splits_total", "count");
          ("serve.class_merges", d "serve_class_merges_total", "count");
          ( "txn.recover_ms_per_record",
            1000. *. ratio (List.fold_left ( +. ) 0. s.recovers) (fi s.recover_records),
            "ms" );
          ("gc.minor_words_per_op", ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) ops, "words");
          ( "gc.major_collections_per_op",
            ratio (fi (gc1.Gc.major_collections - gc0.Gc.major_collections)) ops,
            "count" );
          ("commit.unattributed_ms", mean (ms t.commits) -. attributed, "ms");
          ("trace.ops_per_s_untraced", untraced_rate, "1/s");
          ("trace.ops_per_s_traced", traced_rate, "1/s");
          ("trace.overhead_ratio", ratio (untraced_rate -. traced_rate) untraced_rate, "1");
        ],
        [],
        t.attempted,
        t.failed )
    end
  in
  let ref_after = ref_loop_ms () and cache_after = ref_cache_ms () in
  let host =
    [ ("host.ref_loop_ms", (ref_before +. ref_after) /. 2., "ms");
      ("host.ref_cache_ms", (cache_before +. cache_after) /. 2., "ms") ]
  in
  let attempted = s.attempted + traced_attempted and failed = s.failed + traced_failed in
  Printf.printf "%-36s %14.4f %s\n" "fail_ratio" (ratio (fi failed) (fi attempted)) "1";
  close_live live;
  rm_rf !work_dir;
  List.iter (fun m -> prerr_endline ("perfbench: mismatch: " ^ m)) (List.rev !mismatches);
  let correct = !mismatches = [] in
  if not traced then
    List.iter
      (fun (name, v, unit) -> Printf.printf "%-36s %14.4f %s\n" name v unit)
      (ungated @ host);
  print_result ~correct ~attempted ~failed (if traced then metrics @ host else metrics);
  if not correct then exit 1
