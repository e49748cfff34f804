(* Differential proof of the rewrite-based secure read path (Core.Rewrite):
   on seeded (document, policy, query) triples, the rewritten answers —
   the query evaluated directly on the shared source in product with the
   user's visibility — must equal evaluating the same query on the
   View.derive materialisation, the definitional semantics of axioms
   15-17.  Failures shrink to a minimal triple (Test_support.Shrink) and
   are saved under $XMLSECU_SHRINK_DIR for the CI artifact upload.

   XMLSECU_REWRITE_SEED overrides the base seed so CI can sweep extra
   seeds without recompiling. *)

open Xmldoc
module D = Document
module Prng = Workload.Prng

let base_seed =
  match Sys.getenv_opt "XMLSECU_REWRITE_SEED" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n -> n
     | None -> 20250808)
  | None -> 20250808

let cases = 110
let user = "u"

(* ------------------------------------------------------------------ *)
(* Generators (the test_differential pool, minus the update op)        *)
(* ------------------------------------------------------------------ *)

let local_rule_paths =
  [
    "//node()"; "/patients"; "/patients/node()"; "//service"; "//diagnosis";
    "//diagnosis/node()"; "//visit"; "//visit/node()"; "//date"; "//note";
    "//service/node()"; "//text()"; "/patients/*";
  ]

let random_case seed =
  let rng = Prng.create seed in
  let rng, patients = Prng.int rng 5 in
  let rng, visits = Prng.int rng 3 in
  let config =
    {
      Workload.Gen_doc.patients = patients + 2;
      visits_per_patient = visits;
      diagnosed_fraction = 0.7;
      seed;
    }
  in
  let doc = Workload.Gen_doc.generate config in
  let rng, use_local = Prng.bool rng 0.5 in
  let _rng, rules = Prng.int rng 8 in
  let policy_config =
    { Workload.Gen_policy.rules = rules + 4; deny_fraction = 0.3; seed }
  in
  let policy =
    if use_local then
      Workload.Gen_policy.random ~paths:local_rule_paths policy_config
    else Workload.Gen_policy.random policy_config
  in
  (doc, policy)

(* Per case: a random query mix (downward and not), plus two fixed probes
   — the RESTRICTED relabel (compiled path) and a $USER query (fallback
   path, per-session variable binding). *)
let queries_for seed =
  Workload.Gen_query.random ~seed ~count:4
  @ [ "//RESTRICTED"; "/patients/*[name() = $USER]" ]

(* ------------------------------------------------------------------ *)
(* The differential oracle                                             *)
(* ------------------------------------------------------------------ *)

let answers doc policy expr =
  let session = Core.Session.login policy doc ~user in
  let vars = Core.Session.user_vars session in
  let oracle =
    Xpath.Eval.select (Xpath.Eval.env ~vars (Core.Session.view session)) expr
  in
  let lv = Core.Lazy_view.of_session session in
  let plan = Core.Rewrite.plan expr in
  let got = Core.Rewrite.select ~vars plan lv in
  ( List.map Ordpath.to_string got,
    List.map Ordpath.to_string oracle,
    Core.Rewrite.compiled plan )

let mismatch doc policy expr =
  match answers doc policy expr with
  | got, oracle, _ -> got <> oracle
  | exception _ -> true

let test_rewrite_differential () =
  let compiled = ref 0 and fallback = ref 0 and triples = ref 0 in
  for case = 0 to cases - 1 do
    let seed = base_seed + case in
    let doc, policy = random_case seed in
    List.iter
      (fun q ->
        incr triples;
        let expr = Xpath.Parser.parse_path q in
        let got, oracle, was_compiled = answers doc policy expr in
        incr (if was_compiled then compiled else fallback);
        if got <> oracle then begin
          let doc', policy', expr' =
            Test_support.Shrink.triple
              ~fails:(fun (d, p, e) -> mismatch d p e)
              (doc, policy, expr)
          in
          let text =
            Test_support.Shrink.render ~seed ~doc:doc' ~policy:policy'
              ~query:(Xpath.Ast.to_string expr')
              (Printf.sprintf
                 "rewrite disagrees with View.derive on %s (%s path):\n\
                 \  rewrite [%s]\n  view    [%s]"
                 q
                 (if was_compiled then "compiled" else "fallback")
                 (String.concat "; " got)
                 (String.concat "; " oracle))
          in
          Test_support.Shrink.save ~name:"rewrite" ~seed text;
          Alcotest.fail text
        end)
      (queries_for seed)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "at least 500 triples exercised (%d)" !triples)
    true (!triples >= 500);
  (* The query pool must hit both the compiled product and the lazy-view
     fallback, or the test proves less than it claims. *)
  Alcotest.(check bool)
    (Printf.sprintf "both paths exercised (%d compiled / %d fallback)"
       !compiled !fallback)
    true
    (!compiled > 0 && !fallback > 0)

(* ------------------------------------------------------------------ *)
(* Adversarial cases                                                   *)
(* ------------------------------------------------------------------ *)

let subjects_u = Core.Subject.of_list [ (Core.Subject.User, user, []) ]
let policy_of rules = Core.Policy.v subjects_u rules

let adversarial_doc () =
  D.of_tree
    (Tree.element "root"
       [
         Tree.element "a" [ Tree.element "x" [ Tree.text "one" ] ];
         Tree.element "b" [ Tree.element "c" [ Tree.text "two" ] ];
         Tree.element "e" [ Tree.element "x" [ Tree.text "secret" ] ];
       ])

let select_strings doc policy q =
  let expr = Xpath.Parser.parse_path q in
  let got, oracle, _ = answers doc policy expr in
  Alcotest.(check (list string))
    (Printf.sprintf "rewrite ≡ view on %s" q)
    oracle got;
  got

(* Overlapping allow/deny spans under axiom 14: the later rule wins, and
   a read grant below a hidden ancestor must NOT resurface the subtree
   (axiom 16 conditions visibility on the parent). *)
let test_overlapping_spans () =
  let doc = adversarial_doc () in
  let hidden_b =
    policy_of
      [
        Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:user
          ~priority:1;
        Core.Rule.deny Core.Privilege.Read ~path:"//b" ~subject:user
          ~priority:2;
        Core.Rule.accept Core.Privilege.Read ~path:"//b/c" ~subject:user
          ~priority:3;
      ]
  in
  Alcotest.(check (list string)) "b pruned" []
    (select_strings doc hidden_b "//b");
  (* c is read-granted but its parent is hidden: still unreachable. *)
  Alcotest.(check (list string)) "grant below a hidden span stays hidden" []
    (select_strings doc hidden_b "//c");
  Alcotest.(check (list string)) "straddling path /root/b/c" []
    (select_strings doc hidden_b "/root/b/c");
  (* Most-recent-wins, reversed: the later blanket grant overrides the
     earlier deny. *)
  let regranted =
    policy_of
      [
        Core.Rule.deny Core.Privilege.Read ~path:"//b" ~subject:user
          ~priority:1;
        Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:user
          ~priority:2;
      ]
  in
  Alcotest.(check int) "deny overridden by the most recent grant" 1
    (List.length (select_strings doc regranted "//b"))

(* Position-only nodes present RESTRICTED to the automaton's name tests:
   the real label must not match, the relabelled one must, and readable
   descendants below the RESTRICTED node stay visible. *)
let test_restricted_relabel () =
  let doc = adversarial_doc () in
  let policy =
    policy_of
      [
        Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:user
          ~priority:1;
        Core.Rule.deny Core.Privilege.Read ~path:"//e/x" ~subject:user
          ~priority:2;
        Core.Rule.accept Core.Privilege.Position ~path:"//e/x" ~subject:user
          ~priority:3;
      ]
  in
  (* //x must match only the readable x under a, not the RESTRICTED one. *)
  Alcotest.(check int) "real label hidden under position-only" 1
    (List.length (select_strings doc policy "//x"));
  Alcotest.(check int) "RESTRICTED label visible to name tests" 1
    (List.length (select_strings doc policy "//RESTRICTED"));
  (* The text below the position-only element is readable and reachable
     through it. *)
  Alcotest.(check int) "descendants of a RESTRICTED node survive" 1
    (List.length (select_strings doc policy "//e/RESTRICTED/text()"))

(* Write privileges never grant reads: a user holding insert, update and
   delete everywhere — but read/position nowhere — sees nothing. *)
let test_write_only_privileges () =
  let doc = adversarial_doc () in
  let policy =
    policy_of
      [
        Core.Rule.accept Core.Privilege.Insert ~path:"//node()" ~subject:user
          ~priority:1;
        Core.Rule.accept Core.Privilege.Update ~path:"//node()" ~subject:user
          ~priority:2;
        Core.Rule.accept Core.Privilege.Delete ~path:"//node()" ~subject:user
          ~priority:3;
      ]
  in
  Alcotest.(check (list string)) "write privileges leak nothing" []
    (select_strings doc policy "//node()")

(* ------------------------------------------------------------------ *)
(* Permission-equivalence classes (Serve)                              *)
(* ------------------------------------------------------------------ *)

let class_setup ?pool () =
  let config =
    { Workload.Gen_doc.patients = 6; visits_per_patient = 2;
      diagnosed_fraction = 0.8; seed = 42 }
  in
  let doc = Workload.Gen_doc.generate config in
  let patients =
    match Workload.Gen_doc.patient_names config with
    | p0 :: p1 :: _ -> [ p0; p1 ]
    | _ -> Alcotest.fail "generator produced fewer than 2 patients"
  in
  let secretaries = List.init 8 (Printf.sprintf "sec%d") in
  let doctors = List.init 8 (Printf.sprintf "doc%d") in
  let subjects =
    Core.Subject.of_list
      ([
         (Core.Subject.Role, "staff", []);
         (Core.Subject.Role, "secretary", [ "staff" ]);
         (Core.Subject.Role, "doctor", [ "staff" ]);
         (Core.Subject.Role, "patient", []);
       ]
      @ List.map (fun u -> (Core.Subject.User, u, [ "secretary" ])) secretaries
      @ List.map (fun u -> (Core.Subject.User, u, [ "doctor" ])) doctors
      @ List.map (fun u -> (Core.Subject.User, u, [ "patient" ])) patients)
  in
  let policy =
    Core.Policy.v subjects
      [
        Core.Rule.accept Core.Privilege.Read ~path:"//node()" ~subject:"staff"
          ~priority:10;
        Core.Rule.deny Core.Privilege.Read ~path:"//diagnosis/node()"
          ~subject:"secretary" ~priority:11;
        Core.Rule.accept Core.Privilege.Position ~path:"//diagnosis/node()"
          ~subject:"secretary" ~priority:12;
        Core.Rule.accept Core.Privilege.Read ~path:"/patients"
          ~subject:"patient" ~priority:13;
        Core.Rule.accept Core.Privilege.Read
          ~path:"/patients/*[name() = $USER]/descendant-or-self::node()"
          ~subject:"patient" ~priority:14;
        Core.Rule.accept Core.Privilege.Update ~path:"//diagnosis/node()"
          ~subject:"doctor" ~priority:15;
      ]
  in
  let users = secretaries @ doctors @ patients in
  let serve = Core.Serve.create ?pool policy doc in
  Core.Serve.login_many serve users;
  (serve, secretaries, doctors, patients, users)

(* Users with equal profiles collide into one class sharing one state;
   $USER users must NOT collide even though their rule lists coincide. *)
let test_class_collisions () =
  let serve, secretaries, doctors, patients, users = class_setup () in
  Alcotest.(check int) "18 sessions" (List.length users)
    (List.length (Core.Serve.users serve));
  (* secretaries + doctors + one singleton per patient *)
  Alcotest.(check int) "2 shared classes + 2 singletons" 4
    (Core.Serve.classes serve);
  (* Same-profile users share the lazy view physically... *)
  let lv u = Core.Serve.lazy_view serve ~user:u in
  Alcotest.(check bool) "secretaries share one lazy view" true
    (lv (List.nth secretaries 0) == lv (List.nth secretaries 7));
  Alcotest.(check bool) "doctors share one lazy view" true
    (lv (List.nth doctors 0) == lv (List.nth doctors 3));
  (* ...distinct profiles do not. *)
  Alcotest.(check bool) "secretary and doctor do not share" false
    (lv (List.hd secretaries) == lv (List.hd doctors));
  (match patients with
   | [ p0; p1 ] ->
     Alcotest.(check bool) "$USER patients are singletons" false
       (lv p0 == lv p1);
     (* Each patient sees their own record only — a collision here would
        leak one patient's data to the other. *)
     let record p = Core.Serve.query serve ~user:p "/patients/*" in
     Alcotest.(check bool) "patients see disjoint records" true
       (record p0 <> record p1)
   | _ -> assert false);
  (* Every member's served state equals a dedicated fresh login. *)
  List.iter
    (fun u ->
      let fresh =
        Core.Session.login (Core.Serve.policy serve) (Core.Serve.source serve)
          ~user:u
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: served view = fresh login view" u)
        true
        (D.equal (Core.Serve.view serve ~user:u) (Core.Session.view fresh));
      Alcotest.(check string) "session identity preserved" u
        (Core.Session.user (Core.Serve.session serve ~user:u)))
    users

(* Writes broadcast once per class, and every member still answers like a
   fresh login afterwards. *)
let test_class_broadcast () =
  let serve, secretaries, doctors, patients, users = class_setup () in
  List.iter
    (fun u -> ignore (Core.Serve.query serve ~user:u "//node()"))
    users;
  let writer = List.hd doctors in
  let report =
    Core.Serve.update serve ~user:writer
      (Xupdate.Op.update "//diagnosis" "cured")
  in
  Alcotest.(check bool) "doctor's update applied" true
    (Core.Secure_update.fully_applied report);
  List.iter
    (fun u ->
      let fresh =
        Core.Session.login (Core.Serve.policy serve) (Core.Serve.source serve)
          ~user:u
      in
      List.iter
        (fun q ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: %s after broadcast" u q)
            (List.map Ordpath.to_string
               (Xpath.Eval.select_str
                  ~vars:(Core.Session.user_vars fresh)
                  (Core.Session.view fresh) q))
            (List.map Ordpath.to_string (Core.Serve.query serve ~user:u q)))
        [ "//node()"; "//diagnosis/node()"; "//RESTRICTED" ])
    users;
  (* Secretaries must not read the cure (position-only), doctors do. *)
  Alcotest.(check int) "secretary still sees RESTRICTED diagnoses" 0
    (List.length
       (Core.Serve.query serve ~user:(List.hd secretaries)
          "//diagnosis[node() = 'cured']"));
  Alcotest.(check bool) "doctor reads the cure" true
    (Core.Serve.query serve ~user:(List.hd doctors)
       "//diagnosis[node() = 'cured']"
     <> []);
  ignore patients

(* Logging the last member out drains the class. *)
let test_class_draining () =
  let serve, _, doctors, _, _ = class_setup () in
  let before = Core.Serve.classes serve in
  List.iter (fun u -> Core.Serve.logout serve ~user:u) doctors;
  Alcotest.(check int) "doctor class drained" (before - 1)
    (Core.Serve.classes serve);
  (* Logging one back in restores the class (fresh representative). *)
  Core.Serve.login serve ~user:(List.hd doctors);
  Alcotest.(check int) "class rebuilt on demand" before
    (Core.Serve.classes serve)

(* A commit leaves a non-local class it did not rebase holding nothing of
   the old epoch: once collected, the representative's perm store and
   view, the lazy view (with its memo) and the old source and snapshot
   are all gone.  Pool 1: a finished helper domain of a larger pool keeps
   its last batch — here the eager rebases of the local classes, which
   hold the old epoch — reachable until the next batch reuses its slot. *)
let test_stale_class_pins_nothing () =
  let serve, _, doctors, patients, _ =
    class_setup ~pool:(Core.Pool.create 1) ()
  in
  let p0 = List.hd patients in
  let pins = Weak.create 5 in
  let capture () =
    ignore (Core.Serve.query serve ~user:p0 "//node()");
    let s = Core.Serve.session serve ~user:p0 in
    let lv = Core.Serve.lazy_view serve ~user:p0 in
    Weak.set pins 0 (Some (Obj.repr (Core.Session.perm s)));
    Weak.set pins 1 (Some (Obj.repr (Core.Session.view s)));
    Weak.set pins 2 (Some (Obj.repr lv));
    Weak.set pins 3 (Some (Obj.repr (Core.Serve.source serve)));
    Weak.set pins 4 (Option.map Obj.repr (Core.Lazy_view.flat lv))
  in
  capture ();
  Alcotest.(check int) "nothing stale before the commit" 0
    (Core.Serve.stale_classes serve);
  ignore
    (Core.Serve.update serve ~user:(List.hd doctors)
       (Xupdate.Op.update "//diagnosis" "cured"));
  Alcotest.(check int) "the $USER patients are deferred"
    (List.length patients)
    (Core.Serve.stale_classes serve);
  Gc.full_major ();
  List.iteri
    (fun i what ->
      Alcotest.(check bool) (what ^ " released") false (Weak.check pins i))
    [ "perm store"; "materialised view"; "lazy view"; "old source";
      "old snapshot" ];
  (* The first read rebuilds the class on the current epoch. *)
  let fresh =
    Core.Session.login (Core.Serve.policy serve) (Core.Serve.source serve)
      ~user:p0
  in
  Alcotest.(check bool) "rebuilt view = fresh login view" true
    (D.equal (Core.Serve.view serve ~user:p0) (Core.Session.view fresh));
  Alcotest.(check int) "one class left stale" (List.length patients - 1)
    (Core.Serve.stale_classes serve)

let () =
  Alcotest.run "rewrite"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d seeded cases x 6 queries, rewrite = derive"
               cases)
            `Quick test_rewrite_differential;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "overlapping allow/deny spans, axiom 14" `Quick
            test_overlapping_spans;
          Alcotest.test_case "RESTRICTED relabel vs name tests" `Quick
            test_restricted_relabel;
          Alcotest.test_case "write-only privileges leak nothing" `Quick
            test_write_only_privileges;
        ] );
      ( "equivalence-classes",
        [
          Alcotest.test_case "collisions share, $USER stays singleton" `Quick
            test_class_collisions;
          Alcotest.test_case "broadcast rebases once per class" `Quick
            test_class_broadcast;
          Alcotest.test_case "logout drains classes" `Quick
            test_class_draining;
          Alcotest.test_case "a stale class pins no old epoch" `Quick
            test_stale_class_pins_nothing;
        ] );
    ]
