(* Policy churn, end to end:

   (a) incremental re-resolution — [Perm.update_policy] after a random
       rule/isa mutation equals a from-scratch [Perm.compute], stepwise
       across a whole churn sequence (the incremental store is carried
       forward, so drift would compound and be caught);
   (b) transactional churn — a tolerant [Txn.commit_ops] of a mixed
       document + policy batch leaves the writer's session equal to a
       fresh login on the resulting (document, policy), and the applied
       policy ops replay to exactly [committed.policy];
   (c) class rekey — splits and merges of the permission-equivalence
       classes under [Serve.commit_ops] keep every logged user's view
       and query answers equal to a fresh session's;
   (d) mixed-journal recovery — for {e every} byte-prefix of a journal
       interleaving document and policy records, [Txn.recover]
       reproduces the document, the policy and every user's visibility
       at the last commit boundary inside the prefix;
   (e) deferred refresh — random interleavings of commits by local and
       non-local writers, policy churn, queries, logins and logouts,
       at pool sizes 1 and 4, keep every user's [Serve.query],
       [Serve.view] and [Serve.session] equal to a fresh login, however
       long a non-local class stayed stale. *)

open Xmldoc
module D = Document
module Op = Xupdate.Op
module Prng = Workload.Prng

let base_seed = 20260808

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let target_paths =
  [
    "/patients"; "/patients/*"; "//service"; "//diagnosis"; "//visit";
    "//note"; "//date"; "//diagnosis/text()"; "//service/text()";
    "/patients/*[1]"; "/patients/*[last()]"; "//visit[@n = 1]";
  ]

let new_labels = [ "department"; "cured"; "zeta"; "checked" ]

let fragments =
  [
    Tree.element "extra" [ Tree.text "note" ];
    Tree.text "addendum";
    Tree.element "audit"
      [ Tree.attr "by" "harness"; Tree.element "stamp" [ Tree.text "t0" ] ];
  ]

let random_doc_op rng =
  let rng, path = Prng.pick rng target_paths in
  let rng, kind = Prng.int rng 6 in
  match kind with
  | 0 ->
    let rng, l = Prng.pick rng new_labels in
    (rng, Op.rename path l)
  | 1 ->
    let rng, l = Prng.pick rng new_labels in
    (rng, Op.update path l)
  | 2 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.append path tree)
  | 3 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.insert_before path tree)
  | 4 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.insert_after path tree)
  | _ -> (rng, Op.remove path)

(* The random policies of Workload.Gen_policy carry subjects r1 <- r2 <-
   u; these are the isa edges churn may add or remove (others would
   cycle or already exist, which the tolerant paths also exercise). *)
let isa_candidates =
  [ ("u", "r1"); ("u", "r2"); ("r2", "r1"); ("r1", "u"); ("r2", "u") ]

let rule_paths = Workload.Gen_policy.path_pool

(* One random policy op against the current policy.  Priorities for
   added rules come from [next] so they stay unique across a sequence
   even when earlier rules were retracted (the live system's
   [Serve.fresh_priority] discipline). *)
let random_policy_op rng policy ~next =
  let rng, kind = Prng.int rng 4 in
  let add rng =
    let rng, deny = Prng.bool rng 0.4 in
    let rng, path = Prng.pick rng rule_paths in
    let rng, privilege = Prng.pick rng Core.Privilege.all in
    let rng, subject = Prng.pick rng [ "r1"; "r2"; "u" ] in
    let rule =
      Core.Rule.v
        (if deny then Core.Rule.Deny else Core.Rule.Accept)
        privilege ~path ~subject ~priority:!next
    in
    incr next;
    (rng, Core.Op.Add_rule rule)
  in
  match kind with
  | 0 | 1 -> add rng
  | 2 -> (
    match Core.Policy.rules policy with
    | [] -> add rng
    | rules ->
      let rng, r = Prng.pick rng rules in
      (rng, Core.Op.Retract_rule { priority = r.Core.Rule.priority }))
  | _ ->
    let subjects = Core.Policy.subjects policy in
    let present, absent =
      List.partition
        (fun (sub, super) -> Core.Subject.has_isa_edge subjects ~sub ~super)
        isa_candidates
    in
    let rng, remove = Prng.bool rng 0.5 in
    if remove && present <> [] then
      let rng, (sub, super) = Prng.pick rng present in
      (rng, Core.Op.Remove_isa { sub; super })
    else if absent <> [] then
      let rng, (sub, super) = Prng.pick rng absent in
      (rng, Core.Op.Add_isa { sub; super })
    else add rng

let random_case seed =
  let rng = Prng.create seed in
  let rng, patients = Prng.int rng 4 in
  let doc =
    Workload.Gen_doc.generate
      {
        Workload.Gen_doc.patients = patients + 2;
        visits_per_patient = 2;
        diagnosed_fraction = 0.7;
        seed;
      }
  in
  let rng, rules = Prng.int rng 7 in
  let policy =
    Workload.Gen_policy.random
      { Workload.Gen_policy.rules = rules + 3; deny_fraction = 0.3; seed }
  in
  (rng, doc, policy)

let render_facts perm doc =
  String.concat "\n"
    (List.map
       (fun (p, n) ->
         Core.Privilege.to_string p ^ " " ^ Ordpath.to_string n)
       (Core.Perm.facts perm doc))

let pp_pop = Format.asprintf "%a" Core.Op.pp_policy

(* ------------------------------------------------------------------ *)
(* (a) Perm.update_policy ≡ Perm.compute, stepwise                     *)
(* ------------------------------------------------------------------ *)

(* Replays [steps] policy mutations from [policy] on [doc], carrying the
   incremental store forward; returns the first divergence (or None).
   Pure in (doc, policy), so shrinking can re-run it. *)
let churn_divergence ~seed ~steps doc policy =
  let rng = Prng.create (seed * 7 + 1) in
  let next = ref (Core.Policy.next_priority policy) in
  let rec go rng i policy perm =
    if i = steps then None
    else
      let rng, pop = random_policy_op rng policy ~next in
      let policy' =
        try
          Some
            (match pop with
             | Core.Op.Add_rule r -> Core.Policy.add_rule policy r
             | Core.Op.Retract_rule { priority } ->
               Core.Policy.revoke policy ~priority
             | Core.Op.Add_isa { sub; super } ->
               Core.Policy.add_isa policy ~sub ~super
             | Core.Op.Remove_isa { sub; super } ->
               Core.Policy.remove_isa policy ~sub ~super)
        with Core.Subject.Cycle _ | Core.Subject.Unknown_subject _ -> None
      in
      match policy' with
      | None -> go rng (i + 1) policy perm
      | Some policy' ->
        let perm', _delta =
          Core.Perm.update_policy perm ~old_policy:policy policy' doc
        in
        let scratch = Core.Perm.compute policy' doc ~user:"u" in
        let got = render_facts perm' doc and want = render_facts scratch doc in
        if got <> want then
          Some
            (Printf.sprintf
               "step %d (%s): incremental facts diverge\ngot:\n%s\nwant:\n%s"
               i (pp_pop pop) got want)
        else go rng (i + 1) policy' perm'
  in
  go rng 0 policy (Core.Perm.compute policy doc ~user:"u")

let test_update_policy_equivalence () =
  let cases = 120 in
  for case = 0 to cases - 1 do
    let seed = base_seed + case in
    let _, doc, policy = random_case seed in
    let steps = 4 in
    match churn_divergence ~seed ~steps doc policy with
    | None -> ()
    | Some what ->
      let fails (d, p) =
        churn_divergence ~seed ~steps d p <> None
      in
      let doc' =
        Test_support.Shrink.document ~fails:(fun d -> fails (d, policy)) doc
      in
      let policy' =
        Test_support.Shrink.policy ~fails:(fun p -> fails (doc', p)) policy
      in
      let msg =
        Test_support.Shrink.render ~seed ~doc:doc' ~policy:policy' what
      in
      Test_support.Shrink.save ~name:"policy-churn" ~seed msg;
      Alcotest.fail msg
  done

(* ------------------------------------------------------------------ *)
(* (b) mixed batches through Txn.commit_ops                            *)
(* ------------------------------------------------------------------ *)

let random_mixed_batch rng policy ~next =
  let rng, n = Prng.int rng 5 in
  let rec go rng n acc =
    if n = 0 then (rng, List.rev acc)
    else
      let rng, pol = Prng.bool rng 0.5 in
      if pol then
        let rng, pop = random_policy_op rng policy ~next in
        go rng (n - 1) (Core.Op.Policy pop :: acc)
      else
        let rng, op = random_doc_op rng in
        go rng (n - 1) (Core.Op.Doc op :: acc)
  in
  go rng (n + 2) []

let replay_applied policy applied =
  List.fold_left
    (fun policy op ->
      match op with
      | Core.Op.Doc _ -> policy
      | Core.Op.Policy (Core.Op.Add_rule r) -> Core.Policy.add_rule policy r
      | Core.Op.Policy (Core.Op.Retract_rule { priority }) ->
        Core.Policy.revoke policy ~priority
      | Core.Op.Policy (Core.Op.Add_isa { sub; super }) ->
        Core.Policy.add_isa policy ~sub ~super
      | Core.Op.Policy (Core.Op.Remove_isa { sub; super }) ->
        Core.Policy.remove_isa policy ~sub ~super)
    policy applied

let policy_str = Core.Policy_lang.to_string

let test_txn_mixed_equivalence () =
  let cases = 100 in
  for case = 0 to cases - 1 do
    let seed = base_seed + 10_000 + case in
    let rng, doc, policy = random_case seed in
    let next = ref (Core.Policy.next_priority policy) in
    let _, ops = random_mixed_batch rng policy ~next in
    let fail what =
      Alcotest.fail
        (Printf.sprintf "%s\n--- repro (seed %d) ---\npolicy:\n%sops: %s" what
           seed (policy_str policy)
           (String.concat "; "
              (List.map (Format.asprintf "%a" Core.Op.pp) ops)))
    in
    let session = Core.Session.login policy doc ~user:"u" in
    match Core.Txn.commit_ops ~on_denial:`Tolerate session ops with
    | Error e ->
      fail
        (Printf.sprintf "tolerant mixed commit aborted: %s"
           (Core.Txn.error_to_string e))
    | Ok c ->
      (* The applied policy ops replay (without any session machinery)
         to exactly the committed policy — what recovery relies on. *)
      let replayed = replay_applied policy c.Core.Txn.applied in
      if policy_str replayed <> policy_str c.Core.Txn.policy then
        fail "replayed applied ops <> committed policy";
      let changed = List.exists Core.Op.is_policy c.Core.Txn.applied in
      if c.Core.Txn.policy_changed <> changed then
        fail "policy_changed flag disagrees with the applied batch";
      (* The staged session (incremental re-resolution all the way) is
         indistinguishable from a fresh login on the final state. *)
      let s = c.Core.Txn.session in
      let fresh =
        Core.Session.login c.Core.Txn.policy (Core.Session.source s) ~user:"u"
      in
      if not (D.equal (Core.Session.view s) (Core.Session.view fresh)) then
        fail "staged view <> fresh-login view";
      let got = render_facts (Core.Session.perm s) (Core.Session.source s) in
      let want =
        render_facts (Core.Session.perm fresh) (Core.Session.source fresh)
      in
      if got <> want then
        fail
          (Printf.sprintf "staged perm facts <> fresh-login facts\ngot:\n%s\nwant:\n%s"
             got want)
  done

(* ------------------------------------------------------------------ *)
(* (c) Serve rekey: splits and merges keep every view correct          *)
(* ------------------------------------------------------------------ *)

let counter name =
  try List.assoc name (Obs.Metrics.counters Obs.Metrics.default)
  with Not_found -> 0

let rekey_doc () =
  D.of_tree
    (Tree.element "root"
       [
         Tree.element "a" [ Tree.element "x" [ Tree.text "one" ] ];
         Tree.element "d" [ Tree.text "three" ];
         Tree.element "note" [ Tree.text "confidential" ];
       ])

let rekey_policy () =
  let subjects =
    Core.Subject.of_list
      [
        (Core.Subject.Role, "staff", []);
        (Core.Subject.User, "a", [ "staff" ]);
        (Core.Subject.User, "b", [ "staff" ]);
        (Core.Subject.User, "c", [ "staff" ]);
      ]
  in
  Core.Policy.v subjects
    [
      Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:"staff"
        ~priority:1;
      Core.Rule.accept Core.Privilege.Update ~path:"//node()" ~subject:"staff"
        ~priority:2;
      Core.Rule.accept Core.Privilege.Insert ~path:"//node()" ~subject:"staff"
        ~priority:3;
      Core.Rule.accept Core.Privilege.Delete ~path:"//node()" ~subject:"staff"
        ~priority:4;
    ]

let check_serve_views serve users =
  let policy = Core.Serve.policy serve in
  let source = Core.Serve.source serve in
  List.iter
    (fun user ->
      let fresh = Core.Session.login policy source ~user in
      if
        not
          (D.equal (Core.Serve.view serve ~user) (Core.Session.view fresh))
      then Alcotest.failf "rekeyed view for %s diverges" user;
      let got = Core.Serve.query serve ~user "//node()" in
      let want = Core.Session.query fresh "//node()" in
      if
        List.length got <> List.length want
        || not (List.for_all2 Ordpath.equal got want)
      then Alcotest.failf "rekeyed query answers for %s diverge" user)
    users

let test_serve_split_merge () =
  let serve = Core.Serve.create (rekey_policy ()) (rekey_doc ()) in
  Core.Serve.login_many serve [ "a"; "b"; "c" ];
  Alcotest.(check int) "one class initially" 1 (Core.Serve.classes serve);
  let splits0 = counter "serve_class_splits_total" in
  let merges0 = counter "serve_class_merges_total" in
  (* A rule naming user b splits b out of the shared class. *)
  let p = Core.Serve.fresh_priority serve in
  (match
     Core.Serve.commit_ops serve ~user:"a"
       [
         Core.Op.Policy
           (Core.Op.Add_rule
              (Core.Rule.deny Core.Privilege.Read ~path:"//note" ~subject:"b"
                 ~priority:p));
       ]
   with
   | Ok c ->
     Alcotest.(check bool) "policy changed" true c.Core.Serve.policy_changed
   | Error e -> Alcotest.fail (Core.Txn.error_to_string e));
  Alcotest.(check int) "b split into its own class" 2
    (Core.Serve.classes serve);
  Alcotest.(check int) "one split counted" (splits0 + 1)
    (counter "serve_class_splits_total");
  check_serve_views serve [ "a"; "b"; "c" ];
  (* Retracting it (alongside a document op in the same batch) merges b
     back; the rekey must cover both the policy and the document step. *)
  (match
     Core.Serve.commit_ops serve ~user:"a"
       [
         Core.Op.Doc (Op.update "//d" "cured");
         Core.Op.Policy (Core.Op.Retract_rule { priority = p });
       ]
   with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Core.Txn.error_to_string e));
  Alcotest.(check int) "classes merged back" 1 (Core.Serve.classes serve);
  Alcotest.(check int) "one merge counted" (merges0 + 1)
    (counter "serve_class_merges_total");
  check_serve_views serve [ "a"; "b"; "c" ];
  (* The document op really landed (through the rekey path, not the
     document-only broadcast). *)
  Alcotest.(check bool) "document op applied" true
    (Core.Session.query
       (Core.Session.login (Core.Serve.policy serve)
          (Core.Serve.source serve) ~user:"a")
       "//d[text() = 'cured']"
     <> [])

(* ------------------------------------------------------------------ *)
(* (d) every-byte-prefix recovery of a mixed journal                   *)
(* ------------------------------------------------------------------ *)

let mk_temp_dir () =
  let path = Filename.temp_file "xmlsecu-churn" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let spit path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

module P = Core.Paper_example

(* A deterministic mixed script: document-only, policy-only and mixed
   batches, every one committing.  Policy ops take fresh timestamps from
   the serve clock, so the script is built per store instance. *)
let mixed_script serve =
  let p1 = Core.Serve.fresh_priority serve in
  let p2 = Core.Serve.fresh_priority serve in
  [
    ( P.laporte,
      [ Core.Op.Doc (Op.update "/patients/franck/diagnosis" "pharyngitis") ] );
    ( P.laporte,
      [
        Core.Op.Policy
          (Core.Op.Add_rule
             (Core.Rule.deny Core.Privilege.Read ~path:"//service/node()"
                ~subject:"secretary" ~priority:p1));
      ] );
    ( P.beaufort,
      [
        Core.Op.Doc (Op.rename "/patients/robert" "r2");
        Core.Op.Policy
          (Core.Op.Add_isa { sub = P.richard; super = "doctor" });
        Core.Op.Doc
          (Op.append "/patients"
             (Tree.element "zoe"
                [ Tree.element "service" [ Tree.text "surgery" ] ]));
      ] );
    ( P.laporte,
      [
        Core.Op.Policy (Core.Op.Retract_rule { priority = p1 });
        Core.Op.Doc (Op.update "/patients/franck/diagnosis" "cured");
        Core.Op.Policy
          (Core.Op.Add_rule
             (Core.Rule.accept Core.Privilege.Read ~path:"//note"
                ~subject:"patient" ~priority:p2));
      ] );
    ( P.beaufort,
      [ Core.Op.Policy (Core.Op.Remove_isa { sub = P.richard; super = "doctor" }) ]
    );
  ]

let visibility_users = [ P.laporte; P.beaufort; P.richard; P.robert ]

(* Byte-for-byte visibility: the serialised view of every user under the
   recovered (document, policy) equals the reference one. *)
let check_visibility ~p recovered_doc recovered_policy ref_doc ref_policy =
  List.iter
    (fun user ->
      let render policy doc =
        Xml_print.to_string
          (Core.Session.view (Core.Session.login policy doc ~user))
      in
      let got = render recovered_policy recovered_doc in
      let want = render ref_policy ref_doc in
      if got <> want then
        Alcotest.failf "prefix %d: visibility for %s diverges\ngot:  %s\nwant: %s"
          p user got want)
    visibility_users

let build_mixed_store dir =
  let store = Store.open_dir dir in
  let doc0 = P.document () in
  Store.init store doc0;
  let journal = Filename.concat dir "journal.log" in
  let serve = Core.Serve.create ~persist:store P.policy doc0 in
  let script = mixed_script serve in
  let boundaries = ref [ (file_size journal, 0, doc0, P.policy) ] in
  List.iteri
    (fun i (user, ops) ->
      match Core.Serve.commit_ops serve ~user ops with
      | Ok _ ->
        boundaries :=
          ( file_size journal,
            i + 1,
            Core.Serve.source serve,
            Core.Serve.policy serve )
          :: !boundaries
      | Error e ->
        Alcotest.failf "mixed script step %d aborted: %s" i
          (Core.Txn.error_to_string e))
    script;
  Store.close store;
  (script, List.rev !boundaries, slurp journal)

let truncated_copy src bytes p =
  let dir = mk_temp_dir () in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".snap" then
        spit (Filename.concat dir f) (slurp (Filename.concat src f)))
    (Sys.readdir src);
  spit (Filename.concat dir "journal.log") (String.sub bytes 0 p);
  dir

let test_mixed_recovery_every_prefix () =
  let src = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf src) @@ fun () ->
  let script, boundaries, bytes = build_mixed_store src in
  Alcotest.(check int) "script fully journalled"
    (List.length script + 1)
    (List.length boundaries);
  (* Historical batches stay on the v1 frame; only batches carrying
     policy ops pay the versioned tag. *)
  let v2_expected =
    List.length
      (List.filter (fun (_, ops) -> List.exists Core.Op.is_policy ops) script)
  in
  let count_sub s sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length s then acc
      else if String.sub s i n = sub then go (i + n) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "only mixed batches use the v2 frame" v2_expected
    (count_sub bytes "ver=\"2\"");
  let base = match boundaries with (b, _, _, _) :: _ -> b | [] -> 0 in
  for p = base to String.length bytes do
    let off, seq, doc, policy =
      List.fold_left
        (fun acc (off, seq, doc, pol) ->
          if off <= p then (off, seq, doc, pol) else acc)
        (List.hd boundaries) boundaries
    in
    let dir = truncated_copy src bytes p in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let r = Core.Txn.recover P.policy dir in
    if r.Core.Txn.seq <> seq then
      Alcotest.failf "prefix %d: recovered seq %d, expected %d" p
        r.Core.Txn.seq seq;
    if r.Core.Txn.torn_bytes <> p - off then
      Alcotest.failf "prefix %d: torn %d, expected %d" p r.Core.Txn.torn_bytes
        (p - off);
    if not (D.equal r.Core.Txn.doc doc) then
      Alcotest.failf "prefix %d: recovered document diverges" p;
    if policy_str r.Core.Txn.policy <> policy_str policy then
      Alcotest.failf "prefix %d: recovered policy diverges\ngot:\n%swant:\n%s"
        p
        (policy_str r.Core.Txn.policy)
        (policy_str policy);
    if p = off then
      check_visibility ~p r.Core.Txn.doc r.Core.Txn.policy doc policy
  done;
  (* Full journal: final state, nothing torn. *)
  let r = Core.Txn.recover P.policy src in
  let _, seq, final_doc, final_policy =
    List.nth boundaries (List.length boundaries - 1)
  in
  Alcotest.(check int) "final seq" seq r.Core.Txn.seq;
  Alcotest.(check int) "nothing torn" 0 r.Core.Txn.torn_bytes;
  Alcotest.(check bool) "final document" true (D.equal r.Core.Txn.doc final_doc);
  Alcotest.(check string) "final policy" (policy_str final_policy)
    (policy_str r.Core.Txn.policy);
  check_visibility ~p:(String.length bytes) r.Core.Txn.doc r.Core.Txn.policy
    final_doc final_policy

(* ------------------------------------------------------------------ *)
(* (e) deferred refresh of non-local classes                           *)
(* ------------------------------------------------------------------ *)

let deferral_config =
  { Workload.Gen_doc.patients = 4; visits_per_patient = 2;
    diagnosed_fraction = 0.7; seed = 11 }

let deferral_patients =
  match Workload.Gen_doc.patient_names deferral_config with
  | p0 :: p1 :: _ -> [ p0; p1 ]
  | _ -> assert false

(* Doctors and the secretary are policy-local; the auditors share one
   non-local class (a predicate rule); patients are non-local $USER
   singletons.  Auditors and patients may write, so both kinds of class
   commit. *)
let deferral_staff = [ "doc0"; "doc1"; "sec0"; "aud0"; "aud1" ]
let deferral_users = deferral_staff @ deferral_patients
let auditor_predicate_rule = 5

let deferral_policy () =
  let subjects =
    Core.Subject.of_list
      ([
         (Core.Subject.Role, "staff", []);
         (Core.Subject.Role, "doctor", [ "staff" ]);
         (Core.Subject.Role, "secretary", [ "staff" ]);
         (Core.Subject.Role, "auditor", [ "staff" ]);
         (Core.Subject.Role, "patient", []);
         (Core.Subject.User, "doc0", [ "doctor" ]);
         (Core.Subject.User, "doc1", [ "doctor" ]);
         (Core.Subject.User, "sec0", [ "secretary" ]);
         (Core.Subject.User, "aud0", [ "auditor" ]);
         (Core.Subject.User, "aud1", [ "auditor" ]);
       ]
      @ List.map (fun p -> (Core.Subject.User, p, [ "patient" ])) deferral_patients)
  in
  let own = "/patients/*[name() = $USER]/descendant-or-self::node()" in
  Core.Policy.v subjects
    Core.Rule.
      [
        accept Core.Privilege.Read ~path:"//node()" ~subject:"staff" ~priority:1;
        deny Core.Privilege.Read ~path:"//diagnosis/node()" ~subject:"secretary"
          ~priority:2;
        accept Core.Privilege.Position ~path:"//diagnosis/node()"
          ~subject:"secretary" ~priority:3;
        accept Core.Privilege.Update ~path:"//diagnosis/node()"
          ~subject:"doctor" ~priority:4;
        deny Core.Privilege.Read ~path:"//visit[@n = 1]" ~subject:"auditor"
          ~priority:auditor_predicate_rule;
        accept Core.Privilege.Update ~path:"//service/node()"
          ~subject:"auditor" ~priority:6;
        accept Core.Privilege.Read ~path:"/patients" ~subject:"patient"
          ~priority:7;
        accept Core.Privilege.Read ~path:own ~subject:"patient" ~priority:8;
        accept Core.Privilege.Update ~path:own ~subject:"patient" ~priority:9;
        accept Core.Privilege.Insert ~path:"//diagnosis" ~subject:"doctor"
          ~priority:10;
        accept Core.Privilege.Delete ~path:"//diagnosis/node()"
          ~subject:"doctor" ~priority:11;
      ]

let deferral_serve ~pool =
  Core.Serve.create ~pool:(Core.Pool.create pool) (deferral_policy ())
    (Workload.Gen_doc.generate deferral_config)

let deferral_queries =
  [ "//node()"; "//diagnosis/node()"; "//visit"; "//service/text()";
    "/patients/*[name() = $USER]//node()" ]

let ids_equal a b =
  List.length a = List.length b && List.for_all2 Ordpath.equal a b

(* The oracle: every logged user's served answers, view and session
   equal a fresh login on the current (document, policy).  Reading every
   user rebuilds every stale class, so none is left stale. *)
let check_deferral ~label serve =
  let policy = Core.Serve.policy serve in
  let source = Core.Serve.source serve in
  List.iter
    (fun user ->
      let fresh = Core.Session.login policy source ~user in
      List.iter
        (fun q ->
          if
            not
              (ids_equal (Core.Serve.query serve ~user q)
                 (Core.Session.query fresh q))
          then Alcotest.failf "%s: %s's answers to %s diverge" label user q)
        deferral_queries;
      if not (D.equal (Core.Serve.view serve ~user) (Core.Session.view fresh))
      then Alcotest.failf "%s: %s's view diverges" label user;
      let s = Core.Serve.session serve ~user in
      if not (String.equal (Core.Session.user s) user) then
        Alcotest.failf "%s: %s's session has identity %s" label user
          (Core.Session.user s);
      if not (Core.Session.source s == source) then
        Alcotest.failf "%s: %s's session is on an old document" label user;
      D.fold
        (fun (n : Node.t) () ->
          List.iter
            (fun priv ->
              if
                Core.Session.holds s priv n.id
                <> Core.Session.holds fresh priv n.id
              then
                Alcotest.failf "%s: %s's %s decision on %s diverges" label
                  user
                  (Core.Privilege.to_string priv)
                  (Ordpath.to_string n.id))
            Core.Privilege.all)
        source ())
    (Core.Serve.users serve);
  Alcotest.(check int) (label ^ ": no class left stale") 0
    (Core.Serve.stale_classes serve)

let commit_ok serve ~user ops =
  match Core.Serve.commit_ops ~on_denial:`Tolerate serve ~user ops with
  | Ok c -> c
  | Error e -> Alcotest.failf "commit by %s: %s" user (Core.Txn.error_to_string e)

let test_deferral_required_cases () =
  List.iter
    (fun pool ->
      let label what = Printf.sprintf "pool %d: %s" pool what in
      let serve = deferral_serve ~pool in
      let p0 = List.hd deferral_patients in
      Core.Serve.login_many serve deferral_users;
      (* doctors, secretary, auditors, two patients *)
      Alcotest.(check int) (label "five classes") 5 (Core.Serve.classes serve);
      check_deferral ~label:(label "after login") serve;
      (* A local writer's commit defers every non-local class. *)
      ignore
        (commit_ok serve ~user:"doc0"
           [ Core.Op.Doc (Op.update "//diagnosis" "cured") ]);
      Alcotest.(check int) (label "auditors and patients deferred") 3
        (Core.Serve.stale_classes serve);
      (* A stale writer class commits: it must stage on the current
         document, or the doctor's cure would be silently dropped. *)
      ignore
        (commit_ok serve ~user:p0
           [ Core.Op.Doc
               (Op.update (Printf.sprintf "/patients/%s/service" p0) "oncology") ]);
      let cured = Core.Session.query_source (Core.Serve.session serve ~user:"doc0") in
      Alcotest.(check bool) (label "the doctor's cure survives") true
        (cured "//diagnosis[text() = 'cured']" <> []);
      Alcotest.(check bool) (label "the patient's write landed") true
        (cured (Printf.sprintf "/patients/%s/service[text() = 'oncology']" p0)
         <> []);
      check_deferral ~label:(label "after a stale writer's commit") serve;
      (* The last members of a stale shared class log out. *)
      ignore
        (commit_ok serve ~user:"doc1"
           [ Core.Op.Doc (Op.update "//diagnosis" "healed") ]);
      let stale = Core.Serve.stale_classes serve in
      Core.Serve.logout serve ~user:"aud0";
      Alcotest.(check int) (label "one auditor left, class still stale") stale
        (Core.Serve.stale_classes serve);
      Core.Serve.logout serve ~user:"aud1";
      Alcotest.(check int) (label "drained stale class uncounted") (stale - 1)
        (Core.Serve.stale_classes serve);
      Alcotest.(check int) (label "drained class removed") 4
        (Core.Serve.classes serve);
      Core.Serve.login_many serve [ "aud0"; "aud1" ];
      check_deferral ~label:(label "after the auditors log back in") serve;
      (* A stale class whose rules become local under a rekey: it stays
         stale (no delta may patch it) and is rebuilt on read. *)
      ignore
        (commit_ok serve ~user:"aud1"
           [ Core.Op.Doc (Op.update "//service" "triage") ]);
      Alcotest.(check int) (label "a non-local writer's own class is ready") 2
        (Core.Serve.stale_classes serve);
      ignore
        (commit_ok serve ~user:"doc1"
           [ Core.Op.Doc (Op.update "//diagnosis" "mended") ]);
      Alcotest.(check int) (label "auditors and patients deferred again") 3
        (Core.Serve.stale_classes serve);
      let c =
        commit_ok serve ~user:"doc0"
          [ Core.Op.Doc (Op.update "//diagnosis" "flu");
            Core.Op.Policy
              (Core.Op.Retract_rule { priority = auditor_predicate_rule }) ]
      in
      Alcotest.(check bool) (label "policy changed") true
        c.Core.Serve.policy_changed;
      Alcotest.(check int) (label "now-local auditors still stale") 3
        (Core.Serve.stale_classes serve);
      check_deferral ~label:(label "after the rekey") serve;
      (* Back on the eager path: the next commit rebases the auditors. *)
      ignore
        (commit_ok serve ~user:"doc1"
           [ Core.Op.Doc (Op.update "//diagnosis" "fine") ]);
      Alcotest.(check int) (label "only the patients deferred") 2
        (Core.Serve.stale_classes serve);
      check_deferral ~label:(label "after an eager rebase") serve)
    [ 1; 4 ]

let deferral_isa = [ ("aud0", "auditor"); ("aud1", "doctor"); ("doc1", "auditor"); ("sec0", "doctor") ]

let deferral_subjects =
  [ "staff"; "doctor"; "secretary"; "auditor"; "patient" ] @ deferral_users

let random_deferral_policy_op rng serve =
  let policy = Core.Serve.policy serve in
  let rng, kind = Prng.int rng 3 in
  match kind with
  | 0 ->
    let rng, deny = Prng.bool rng 0.5 in
    let rng, path = Prng.pick rng rule_paths in
    let rng, privilege = Prng.pick rng Core.Privilege.all in
    let rng, subject = Prng.pick rng deferral_subjects in
    ( rng,
      Core.Op.Add_rule
        (Core.Rule.v
           (if deny then Core.Rule.Deny else Core.Rule.Accept)
           privilege ~path ~subject
           ~priority:(Core.Serve.fresh_priority serve)) )
  | 1 when Core.Policy.rules policy <> [] ->
    let rng, r = Prng.pick rng (Core.Policy.rules policy) in
    (rng, Core.Op.Retract_rule { priority = r.Core.Rule.priority })
  | _ ->
    let rng, (sub, super) = Prng.pick rng deferral_isa in
    if Core.Subject.has_isa_edge (Core.Policy.subjects policy) ~sub ~super then
      (rng, Core.Op.Remove_isa { sub; super })
    else (rng, Core.Op.Add_isa { sub; super })

(* One random action; a step runs a burst of them, so classes stay stale
   across several commits, rekeys and logouts before the oracle reads
   them all. *)
let random_deferral_action rng serve =
  let rng, kind = Prng.int rng 10 in
  let rng, user = Prng.pick rng deferral_users in
  match kind with
  | 0 | 1 | 2 | 3 ->
    let rng, op = random_doc_op rng in
    ignore (Core.Serve.commit_ops ~on_denial:`Tolerate serve ~user [ Core.Op.Doc op ]);
    rng
  | 4 ->
    let rng, op = random_doc_op rng in
    let rng, pop = random_deferral_policy_op rng serve in
    ignore
      (Core.Serve.commit_ops ~on_denial:`Tolerate serve ~user
         [ Core.Op.Doc op; Core.Op.Policy pop ]);
    rng
  | 5 | 6 ->
    let rng, q = Prng.pick rng deferral_queries in
    ignore (Core.Serve.query serve ~user q);
    rng
  | 7 ->
    Core.Serve.login serve ~user;
    rng
  | 8 ->
    let rng, other = Prng.pick rng deferral_users in
    Core.Serve.login_many serve [ user; other ];
    rng
  | _ ->
    Core.Serve.logout serve ~user;
    rng

let test_deferral_random () =
  List.iter
    (fun pool ->
      for case = 0 to 3 do
        let seed = base_seed + 500 + case in
        let serve = deferral_serve ~pool in
        Core.Serve.login_many serve deferral_users;
        let rng = ref (Prng.create seed) in
        for step = 1 to 40 do
          let r, burst = Prng.int !rng 4 in
          rng := r;
          for _ = 0 to burst do
            rng := random_deferral_action !rng serve
          done;
          check_deferral
            ~label:(Printf.sprintf "pool %d seed %d step %d" pool seed step)
            serve
        done
      done)
    [ 1; 4 ]

let () =
  Alcotest.run "policy_churn"
    [
      ( "incremental",
        [
          Alcotest.test_case
            "120 seeded churn sequences: update_policy ≡ compute" `Quick
            test_update_policy_equivalence;
        ] );
      ( "transactional",
        [
          Alcotest.test_case
            "100 seeded mixed batches ≡ fresh login on the result" `Quick
            test_txn_mixed_equivalence;
        ] );
      ( "rekey",
        [
          Alcotest.test_case "split and merge keep views and queries exact"
            `Quick test_serve_split_merge;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "every byte-prefix of a mixed journal" `Quick
            test_mixed_recovery_every_prefix;
        ] );
      ( "deferral",
        [
          Alcotest.test_case
            "stale writer, stale class turned local, stale class drained"
            `Quick test_deferral_required_cases;
          Alcotest.test_case
            "random interleavings at pool 1 and 4 ≡ fresh login" `Quick
            test_deferral_random;
        ] );
    ]
