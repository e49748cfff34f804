(* The durability layer in isolation:

   (a) the canonical id-preserving serialisation round-trips exactly
       ([Xml_parse.of_canonical (Xml_print.to_canonical d)] is
       [Document.equal] to [d]) over every node kind — elements,
       attributes, text, comments, RESTRICTED — and over the sparse
       ordpath labels that insertions produce;
   (b) journal framing accepts the longest valid prefix: truncation and
       corruption anywhere drop the tail, never a valid record;
   (c) snapshot loading falls back past a corrupt newest file. *)

open Xmldoc
module D = Document
module Op = Xupdate.Op

let mk_temp_dir () =
  let path = Filename.temp_file "xmlsecu-store" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
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

(* ------------------------------------------------------------------ *)
(* (a) canonical round-trip                                            *)
(* ------------------------------------------------------------------ *)

let check_roundtrip name doc =
  let canonical = Xml_print.to_canonical doc in
  let doc' = Xml_parse.of_canonical canonical in
  if not (D.equal doc doc') then
    Alcotest.failf "%s: canonical round-trip not the identity\nin:  %s\nout: %s"
      name (Xml_print.facts doc) (Xml_print.facts doc');
  (* Idempotent: reserialising the reload gives the same bytes. *)
  Alcotest.(check string)
    (Printf.sprintf "%s: canonical form is stable" name)
    canonical
    (Xml_print.to_canonical doc')

let test_roundtrip_kinds () =
  check_roundtrip "paper example" (Core.Paper_example.document ());
  check_roundtrip "all node kinds"
    (D.of_tree
       (Tree.element "root"
          [
            Tree.attr "version" "1.0";
            Tree.comment "a comment with spaces and <angle> brackets";
            Tree.element "RESTRICTED" [];
            Tree.element "child"
              [
                Tree.attr "b" "2"; Tree.attr "a" "1";
                Tree.text "RESTRICTED";
                Tree.text "text with  spaces";
              ];
            Tree.element "empty" [];
          ]));
  check_roundtrip "hostile labels"
    (D.of_tree
       (Tree.element "r"
          [
            Tree.text "line\nbreak";
            Tree.text "carriage\rreturn";
            Tree.text "percent 100% and %0A literal";
            Tree.text "";
            Tree.comment " leading and trailing spaces ";
            Tree.element "e" [ Tree.attr "k" "v=w x" ];
          ]))

let test_roundtrip_attribute_order () =
  (* Attributes are nodes with ordpath positions: the canonical form must
     preserve their document order, not re-sort them. *)
  let doc =
    D.of_tree
      (Tree.element "e"
         [ Tree.attr "zeta" "1"; Tree.attr "alpha" "2"; Tree.attr "mid" "3" ])
  in
  check_roundtrip "attribute order" doc;
  let doc' = Xml_parse.of_canonical (Xml_print.to_canonical doc) in
  Alcotest.(check string) "same XML serialisation"
    (Xml_print.to_string ~indent:false doc)
    (Xml_print.to_string ~indent:false doc')

let test_roundtrip_sparse_ordpaths () =
  (* Insertions allocate careted ordpath labels between siblings; the
     snapshot must keep them verbatim (a plain XML reparse would renumber
     densely and break replay). *)
  let doc =
    D.of_tree
      (Tree.element "root"
         [ Tree.element "a" [ Tree.text "1" ]; Tree.element "b" [] ])
  in
  let doc =
    Xupdate.Apply.apply_all doc
      [
        Op.insert_before "/root/b" (Tree.element "between" [ Tree.text "x" ]);
        Op.insert_after "/root/a" (Tree.element "wedge" []);
        Op.insert_before "/root/*[1]" (Tree.comment "front");
      ]
  in
  check_roundtrip "careted ordpaths" doc

let test_roundtrip_generated () =
  for seed = 0 to 19 do
    let doc =
      Workload.Gen_doc.generate
        {
          Workload.Gen_doc.patients = 3 + (seed mod 5);
          visits_per_patient = seed mod 3;
          diagnosed_fraction = 0.6;
          seed;
        }
    in
    check_roundtrip (Printf.sprintf "generated (seed %d)" seed) doc
  done

let test_canonical_rejects_garbage () =
  let bad s =
    match Xml_parse.of_canonical s with
    | exception Xml_parse.Error _ -> ()
    | _ -> Alcotest.failf "accepted garbage canonical input %S" s
  in
  bad "";
  bad "not-the-header\n";
  bad (Xml_print.canonical_header ^ "\nQ 1 what");
  bad (Xml_print.canonical_header ^ "\nE notanordpath label");
  bad (Xml_print.canonical_header ^ "\nE1.1 missing-spaces")

(* ------------------------------------------------------------------ *)
(* (b) journal framing                                                 *)
(* ------------------------------------------------------------------ *)

let sample_records =
  [
    {
      Store.Journal.seq = 1; user = "laporte"; mode = `Atomic;
      ops = Store.Journal.docs [ Op.update "/patients/franck/diagnosis" "cured" ];
    };
    {
      Store.Journal.seq = 2; user = "beaufort"; mode = `Tolerant;
      ops =
        Store.Journal.docs
          [
            Op.rename "/patients/robert" "r2";
            Op.append "/patients" (Tree.element "zoe" [ Tree.text "new" ]);
            Op.remove "//note";
          ];
    };
    (* a mixed v2 record: policy ops interleaved with document runs *)
    {
      Store.Journal.seq = 3; user = "laporte"; mode = `Atomic;
      ops =
        [
          Store.Journal.Policy
            (Store.Journal.Padd
               { decision = `Accept; privilege = "read";
                 path = "//patients"; subject = "nurse"; priority = 7 });
          Store.Journal.Doc (Op.update "/patients/franck/diagnosis" "flu");
          Store.Journal.Doc (Op.remove "//note");
          Store.Journal.Policy (Store.Journal.Pretract { priority = 7 });
          Store.Journal.Policy
            (Store.Journal.Pisa { sub = "nurse"; super = "staff" });
          Store.Journal.Policy
            (Store.Journal.Premove_isa { sub = "nurse"; super = "staff" });
        ];
    };
  ]

let journal_bytes records =
  Store.Journal.header_line
  ^ String.concat "" (List.map Store.Journal.encode records)

(* Journal ops compared shape-by-shape: document runs through the
   XUpdate serialisation (op values hold parsed paths, whose printed
   form is the identity that matters), policy ops structurally (pure
   string/int records). *)
let check_ops label (a : Store.Journal.op list) (b : Store.Journal.op list) =
  Alcotest.(check int) (label ^ " count") (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      match (x, y) with
      | Store.Journal.Doc ox, Store.Journal.Doc oy ->
        Alcotest.(check string)
          (label ^ " doc op")
          (Xupdate.Xupdate_xml.to_string [ ox ])
          (Xupdate.Xupdate_xml.to_string [ oy ])
      | Store.Journal.Policy px, Store.Journal.Policy py ->
        Alcotest.(check bool) (label ^ " policy op") true (px = py)
      | _ -> Alcotest.failf "%s: op kind mismatch" label)
    a b

let test_journal_roundtrip () =
  let scan = Store.Journal.scan_string (journal_bytes sample_records) in
  Alcotest.(check int) "no torn tail" 0 scan.Store.Journal.torn_bytes;
  Alcotest.(check int) "all records" 3
    (List.length scan.Store.Journal.records);
  List.iter2
    (fun (a : Store.Journal.record) (b : Store.Journal.record) ->
      Alcotest.(check int) "seq" a.seq b.seq;
      Alcotest.(check string) "user" a.user b.user;
      Alcotest.(check string) "mode"
        (Store.Journal.mode_to_string a.mode)
        (Store.Journal.mode_to_string b.mode);
      check_ops "ops" a.ops b.ops)
    sample_records scan.Store.Journal.records

let test_journal_torn_tail () =
  let bytes = journal_bytes sample_records in
  let boundaries =
    let acc = ref (String.length Store.Journal.header_line) in
    List.map
      (fun r ->
        acc := !acc + String.length (Store.Journal.encode r);
        !acc)
      sample_records
  in
  (* Every truncation point: the scan keeps exactly the records whose
     frames lie entirely within the prefix. *)
  for p = String.length Store.Journal.header_line to String.length bytes do
    let scan = Store.Journal.scan_string (String.sub bytes 0 p) in
    let expect = List.length (List.filter (fun b -> b <= p) boundaries) in
    Alcotest.(check int)
      (Printf.sprintf "records at prefix %d" p)
      expect
      (List.length scan.Store.Journal.records);
    Alcotest.(check int)
      (Printf.sprintf "accounting at prefix %d" p)
      p
      (scan.Store.Journal.valid_bytes + scan.Store.Journal.torn_bytes)
  done

let test_journal_corruption () =
  let bytes = journal_bytes sample_records in
  let boundary =
    String.length Store.Journal.header_line
    + String.length (Store.Journal.encode (List.hd sample_records))
  in
  (* Flip one byte inside the second frame: its checksum (or framing)
     fails, the first record survives, the rest is torn. *)
  let corrupt = Bytes.of_string bytes in
  Bytes.set corrupt (boundary + 14)
    (Char.chr (Char.code (Bytes.get corrupt (boundary + 14)) lxor 0xff));
  let scan = Store.Journal.scan_string (Bytes.to_string corrupt) in
  Alcotest.(check int) "first record survives" 1
    (List.length scan.Store.Journal.records);
  Alcotest.(check int) "rest is torn"
    (String.length bytes - boundary)
    scan.Store.Journal.torn_bytes;
  (* A bad header is a hard error, not a torn tail. *)
  (match Store.Journal.scan_string ("garbage\n" ^ bytes) with
   | exception Store.Journal.Error _ -> ()
   | _ -> Alcotest.fail "bad header accepted")

(* Recovery scans only the tail past its snapshot: for every truncation
   point and every snapshot seq, [scan_tail] keeps exactly the records of
   the full scan beyond that seq, with the same valid/torn split. *)
let test_journal_tail_scan () =
  let dir = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "journal.log" in
  let bytes = journal_bytes sample_records in
  let seqs scan =
    List.map (fun (r : Store.Journal.record) -> r.seq) scan.Store.Journal.records
  in
  for p = String.length Store.Journal.header_line to String.length bytes do
    let prefix = String.sub bytes 0 p in
    spit path prefix;
    let full = Store.Journal.scan_string prefix in
    for after = 0 to 4 do
      let tail = Store.Journal.scan_tail ~after path in
      let label = Printf.sprintf "prefix %d after %d" p after in
      Alcotest.(check (list int)) (label ^ " records")
        (List.filter (fun s -> s > after) (seqs full))
        (seqs tail);
      Alcotest.(check int) (label ^ " valid bytes")
        full.Store.Journal.valid_bytes tail.Store.Journal.valid_bytes;
      Alcotest.(check int) (label ^ " torn bytes")
        full.Store.Journal.torn_bytes tail.Store.Journal.torn_bytes
    done
  done;
  (* A checksum-valid frame that would not decode ends the full scan's
     valid prefix, but a frame the snapshot covers is never decoded. *)
  let undecodable =
    Store.Journal.frame ~magic:Store.Journal.magic
      "<txn seq=\"1\" user=\"u\" mode=\"bogus\"/>"
  in
  let rest = List.tl sample_records in
  spit path
    (Store.Journal.header_line ^ undecodable
    ^ String.concat "" (List.map Store.Journal.encode rest));
  Alcotest.(check (list int)) "full scan stops at the undecodable frame" []
    (seqs (Store.Journal.scan path));
  let tail = Store.Journal.scan_tail ~after:1 path in
  Alcotest.(check (list int)) "covered frame skipped undecoded" [ 2; 3 ]
    (seqs tail);
  Alcotest.(check int) "nothing torn" 0 tail.Store.Journal.torn_bytes

(* ------------------------------------------------------------------ *)
(* (c) snapshots                                                       *)
(* ------------------------------------------------------------------ *)

let test_snapshot_fallback () =
  let dir = mk_temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let doc0 = Core.Paper_example.document () in
  let doc1 = Xupdate.Apply.apply_all doc0 [ Op.rename "/patients/robert" "r2" ] in
  let p0 = Store.Snapshot.write ~dir ~seq:3 doc0 in
  let p1 = Store.Snapshot.write ~dir ~seq:7 doc1 in
  ignore p0;
  (match Store.Snapshot.load_latest ~dir with
   | Some (7, d) ->
     Alcotest.(check bool) "newest snapshot loads" true (D.equal d doc1)
   | _ -> Alcotest.fail "expected snapshot seq 7");
  (* Corrupt the newest: loading falls back to the previous good one. *)
  spit p1 (String.sub (slurp p1) 0 10);
  (match Store.Snapshot.load_latest ~dir with
   | Some (3, d) ->
     Alcotest.(check bool) "fallback snapshot loads" true (D.equal d doc0)
   | _ -> Alcotest.fail "expected fallback to seq 3")

let () =
  Alcotest.run "store"
    [
      ( "canonical",
        [
          Alcotest.test_case "all node kinds round-trip" `Quick
            test_roundtrip_kinds;
          Alcotest.test_case "attribute order" `Quick
            test_roundtrip_attribute_order;
          Alcotest.test_case "careted ordpaths" `Quick
            test_roundtrip_sparse_ordpaths;
          Alcotest.test_case "20 generated documents" `Quick
            test_roundtrip_generated;
          Alcotest.test_case "garbage rejected" `Quick
            test_canonical_rejects_garbage;
        ] );
      ( "journal",
        [
          Alcotest.test_case "encode/scan round-trip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "every truncation point" `Quick
            test_journal_torn_tail;
          Alcotest.test_case "corruption and bad header" `Quick
            test_journal_corruption;
          Alcotest.test_case "tail scan past a snapshot seq" `Quick
            test_journal_tail_scan;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "fallback past corrupt newest" `Quick
            test_snapshot_fallback;
        ] );
    ]
