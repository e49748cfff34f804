(* The append-only write-ahead journal: one framed record per committed
   transaction.  Framing is [magic "TXN!" | 8-byte BE payload length |
   4-byte BE Adler-32 of the payload | payload]; the payload is a <txn>
   envelope (seq, user, mode) wrapping the canonical compact XUpdate-XML
   of the batch.  A scan stops at the first frame that is short, fails
   its checksum or does not parse — everything before it is the valid
   prefix, everything after is a torn tail the writer did not complete.

   Two payload versions share the envelope.  Version 1 (no [ver]
   attribute) carries a document-only batch as one
   <xupdate:modifications> child — the historical format, still written
   whenever a batch holds no policy op, so old journals and old readers
   keep working both ways.  Version 2 ([ver="2"]) interleaves runs of
   XUpdate instructions with policy-administration elements
   (<policy:add-rule/>, <policy:retract/>, <policy:add-isa/>,
   <policy:remove-isa/>) in commit order.  The store stays
   policy-agnostic: policy ops are carried as their wire fields (strings
   and ints), validated for well-formedness at decode time; Core.Op
   converts them to and from typed rules. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type mode = [ `Atomic | `Tolerant ]

type policy_op =
  | Padd of {
      decision : [ `Accept | `Deny ];
      privilege : string;
      path : string;
      subject : string;
      priority : int;
    }
  | Pretract of { priority : int }
  | Pisa of { sub : string; super : string }
  | Premove_isa of { sub : string; super : string }

type op = Doc of Xupdate.Op.t | Policy of policy_op

type record = {
  seq : int;
  user : string;
  mode : mode;
  ops : op list;
}

let docs ops = List.map (fun o -> Doc o) ops

let doc_ops ops =
  List.filter_map (function Doc o -> Some o | Policy _ -> None) ops

let header_line = "xmlsecu-journal 1\n"
let magic = "TXN!"

(* Adler-32 (RFC 1950), hand-rolled — cheap, and strong enough to decide
   where a torn tail begins. *)
let adler32_bytes buf off len =
  (* Deferred modulo: 5552 is the largest chunk for which [b] stays
     below 2^63 with every byte at 0xff, so one [mod] per chunk gives
     the same sums as one per byte. *)
  let a = ref 1 and b = ref 0 in
  let n = off + len in
  let i = ref off in
  while !i < n do
    let stop = min n (!i + 5552) in
    while !i < stop do
      a := !a + Char.code (Bytes.unsafe_get buf !i);
      b := !b + !a;
      incr i
    done;
    a := !a mod 65521;
    b := !b mod 65521
  done;
  (!b lsl 16) lor !a

let adler32 s = adler32_bytes (Bytes.unsafe_of_string s) 0 (String.length s)

let mode_to_string = function `Atomic -> "atomic" | `Tolerant -> "tolerant"

let mode_of_string = function
  | "atomic" -> `Atomic
  | "tolerant" -> `Tolerant
  | s -> fail "unknown transaction mode %S" s

(* Wire vocabulary of the policy elements.  The privilege names are a
   fixed wire-format constant (they mirror Core.Privilege, which the
   store deliberately does not depend on); an unknown name ends the
   valid prefix exactly like malformed XUpdate would. *)
let known_privileges = [ "position"; "read"; "insert"; "update"; "delete" ]

let decision_to_string = function `Accept -> "accept" | `Deny -> "deny"

let decision_of_string = function
  | "accept" -> `Accept
  | "deny" -> `Deny
  | s -> fail "unknown rule decision %S" s

let policy_op_to_tree = function
  | Padd { decision; privilege; path; subject; priority } ->
    Xmldoc.Tree.Element
      ( "policy:add-rule",
        [
          Xmldoc.Tree.Attr ("decision", decision_to_string decision);
          Xmldoc.Tree.Attr ("privilege", privilege);
          Xmldoc.Tree.Attr ("path", path);
          Xmldoc.Tree.Attr ("subject", subject);
          Xmldoc.Tree.Attr ("priority", string_of_int priority);
        ] )
  | Pretract { priority } ->
    Xmldoc.Tree.Element
      ("policy:retract", [ Xmldoc.Tree.Attr ("priority", string_of_int priority) ])
  | Pisa { sub; super } ->
    Xmldoc.Tree.Element
      ( "policy:add-isa",
        [ Xmldoc.Tree.Attr ("sub", sub); Xmldoc.Tree.Attr ("super", super) ] )
  | Premove_isa { sub; super } ->
    Xmldoc.Tree.Element
      ( "policy:remove-isa",
        [ Xmldoc.Tree.Attr ("sub", sub); Xmldoc.Tree.Attr ("super", super) ] )

let policy_op_of_element name attrs =
  let attr n =
    match
      List.find_map
        (function
          | Xmldoc.Tree.Attr (k, v) when String.equal k n -> Some v
          | _ -> None)
        attrs
    with
    | Some v -> v
    | None -> fail "%s element missing %s attribute" name n
  in
  let priority () =
    match int_of_string_opt (attr "priority") with
    | Some n when n > 0 -> n
    | _ -> fail "bad %s priority %S" name (attr "priority")
  in
  match name with
  | "policy:add-rule" ->
    let privilege = attr "privilege" in
    if not (List.mem privilege known_privileges) then
      fail "unknown privilege %S in journal record" privilege;
    let path = attr "path" in
    (try ignore (Xpath.Parser.parse_path path)
     with Xpath.Parser.Error _ ->
       fail "unparseable rule path in journal record");
    Padd
      {
        decision = decision_of_string (attr "decision");
        privilege;
        path;
        subject = attr "subject";
        priority = priority ();
      }
  | "policy:retract" -> Pretract { priority = priority () }
  | "policy:add-isa" -> Pisa { sub = attr "sub"; super = attr "super" }
  | "policy:remove-isa" -> Premove_isa { sub = attr "sub"; super = attr "super" }
  | _ -> fail "unknown policy element %s in journal record" name

(* The ops are printed compactly (no indentation whitespace) and reparsed
   with whitespace kept, so even whitespace-only text content round-trips
   exactly.  Maximal runs of document ops share one
   <xupdate:modifications> element; a version-2 payload is emitted only
   when the batch holds at least one policy op, so document-only batches
   stay byte-identical to the historical format. *)
let op_kids ops =
  let flush run acc =
    match run with
    | [] -> acc
    | run -> Xupdate.Xupdate_xml.to_tree (List.rev run) :: acc
  in
  let rec go run acc = function
    | [] -> List.rev (flush run acc)
    | Doc o :: rest -> go (o :: run) acc rest
    | Policy p :: rest -> go [] (policy_op_to_tree p :: flush run acc) rest
  in
  go [] [] ops

let payload r =
  let mixed = List.exists (function Policy _ -> true | Doc _ -> false) r.ops in
  let version = if mixed then [ Xmldoc.Tree.Attr ("ver", "2") ] else [] in
  Xmldoc.Xml_print.fragment_to_string ~indent:false
    (Xmldoc.Tree.Element
       ( "txn",
         [
           Xmldoc.Tree.Attr ("seq", string_of_int r.seq);
           Xmldoc.Tree.Attr ("user", r.user);
           Xmldoc.Tree.Attr ("mode", mode_to_string r.mode);
         ]
         @ version
         @ op_kids r.ops ))

let record_of_payload s =
  let tree =
    try Xmldoc.Xml_parse.fragment_of_string ~strip_whitespace:false s
    with Xmldoc.Xml_parse.Error _ -> fail "unparseable journal record"
  in
  match tree with
  | Xmldoc.Tree.Element ("txn", kids) -> (
    let attr_opt name =
      List.find_map
        (function
          | Xmldoc.Tree.Attr (n, v) when String.equal n name -> Some v
          | _ -> None)
        kids
    in
    let attr name =
      match attr_opt name with
      | Some v -> v
      | None -> fail "journal record missing %s attribute" name
    in
    let seq =
      match int_of_string_opt (attr "seq") with
      | Some n when n > 0 -> n
      | _ -> fail "bad journal record seq %S" (attr "seq")
    in
    let xupdate_ops t =
      match Xupdate.Xupdate_xml.ops_of_tree t with
      | ops -> ops
      | exception (Xupdate.Xupdate_xml.Error _ | Xpath.Parser.Error _) ->
        fail "journal record holds malformed XUpdate"
    in
    let ops =
      match attr_opt "ver" with
      | None ->
        (* Version 1: exactly one <xupdate:modifications> child. *)
        let mods =
          match
            List.find_opt
              (function
                | Xmldoc.Tree.Element ("xupdate:modifications", _) -> true
                | _ -> false)
              kids
          with
          | Some t -> t
          | None -> fail "journal record missing xupdate:modifications"
        in
        docs (xupdate_ops mods)
      | Some "2" ->
        List.concat_map
          (function
            | Xmldoc.Tree.Element ("xupdate:modifications", _) as t ->
              docs (xupdate_ops t)
            | Xmldoc.Tree.Element (name, attrs) ->
              [ Policy (policy_op_of_element name attrs) ]
            | Xmldoc.Tree.Attr _ -> []
            | _ -> fail "unexpected content in version-2 journal record")
          kids
      | Some v -> fail "unsupported journal record version %S" v
    in
    { seq; user = attr "user"; mode = mode_of_string (attr "mode"); ops })
  | _ -> fail "journal record is not a <txn> element"

(* Generic framing, shared with the audit journal ({!Audit_log}): any
   payload stream framed as [magic | 8-byte BE length | 4-byte BE
   Adler-32 | payload] gets the same torn-tail discipline for free. *)
let frame ~magic:m p =
  if String.length m <> 4 then invalid_arg "Journal.frame: magic must be 4 bytes";
  let len = String.length p in
  let buf = Buffer.create (len + 16) in
  Buffer.add_string buf m;
  let add_be n width =
    for i = width - 1 downto 0 do
      Buffer.add_char buf (Char.chr ((n lsr (8 * i)) land 0xff))
    done
  in
  add_be len 8;
  add_be (adler32 p) 4;
  Buffer.add_string buf p;
  Buffer.contents buf

let encode r = frame ~magic (payload r)

type scan = {
  records : record list;  (* the valid prefix, in journal order *)
  valid_bytes : int;  (* file offset just past the last valid record *)
  torn_bytes : int;  (* trailing bytes not forming a valid record *)
}

let be s off width =
  let n = ref 0 in
  for i = 0 to width - 1 do
    n := (!n lsl 8) lor Char.code s.[off + i]
  done;
  !n

let scan_frames ~magic:m ~header s =
  if String.length m <> 4 then
    invalid_arg "Journal.scan_frames: magic must be 4 bytes";
  let n = String.length s in
  let hl = String.length header in
  if n < hl || not (String.equal (String.sub s 0 hl) header) then
    fail "bad journal header";
  let rec go off acc =
    if off + 16 > n then acc
    else if not (String.equal (String.sub s off 4) m) then acc
    else
      let len = be s (off + 4) 8 in
      let crc = be s (off + 12) 4 in
      if len < 0 || len > n - (off + 16) then acc
      else
        let p = String.sub s (off + 16) len in
        if adler32 p <> crc then acc else go (off + 16 + len) ((p, off + 16 + len) :: acc)
  in
  List.rev (go hl [])

(* The envelope's seq, read without decoding the payload: {!payload}
   always prints [<txn seq="N"] first.  [None] for any other shape — the
   full decode then decides. *)
let envelope_prefix = "<txn seq=\""

let envelope_seq buf len =
  let pl = String.length envelope_prefix in
  let rec digits i n =
    if i >= len || i - pl > 18 then None
    else
      match Bytes.get buf i with
      | '0' .. '9' as c -> digits (i + 1) ((n * 10) + Char.code c - 48)
      | '"' when i > pl -> Some n
      | _ -> None
  in
  if len >= pl && String.equal (Bytes.sub_string buf 0 pl) envelope_prefix
  then digits pl 0
  else None

(* The valid-prefix scan, streamed frame by frame through one reusable
   buffer: [input buf off len] reads the next [len] of the image's
   [length] bytes.  Same stopping rules as {!scan_frames} + a full
   decode, except that a frame whose envelope seq is in [1, after] is
   checksum-verified but not decoded, and left out of [records]. *)
let scan_input ~after ~length ~input =
  let hl = String.length header_line in
  let header = Bytes.create hl in
  if length < hl then fail "bad journal header";
  input header 0 hl;
  if not (String.equal (Bytes.to_string header) header_line) then
    fail "bad journal header";
  let head = Bytes.create 16 in
  let buf = ref (Bytes.create 4096) in
  let rec go off acc =
    if off + 16 > length then (acc, off)
    else begin
      input head 0 16;
      let hs = Bytes.to_string head in
      if not (String.equal (String.sub hs 0 4) magic) then (acc, off)
      else
        let len = be hs 4 8 and crc = be hs 12 4 in
        if len < 0 || len > length - (off + 16) then (acc, off)
        else begin
          if Bytes.length !buf < len then
            buf := Bytes.create (max len (2 * Bytes.length !buf));
          input !buf 0 len;
          if adler32_bytes !buf 0 len <> crc then (acc, off)
          else
            let next = off + 16 + len in
            match envelope_seq !buf len with
            | Some seq when seq >= 1 && seq <= after -> go next acc
            | _ -> (
              (* A checksum-valid frame whose payload does not parse
                 still ends the valid prefix — the semantic content, not
                 just the framing, must be sound for appends to resume
                 past it. *)
              match record_of_payload (Bytes.sub_string !buf 0 len) with
              | r -> go next (if r.seq <= after then acc else r :: acc)
              | exception Error _ -> (acc, off))
        end
    end
  in
  let records, valid_bytes = go hl [] in
  { records = List.rev records; valid_bytes; torn_bytes = length - valid_bytes }

let scan_string s =
  let pos = ref 0 in
  scan_input ~after:0 ~length:(String.length s) ~input:(fun buf off len ->
      Bytes.blit_string s !pos buf off len;
      pos := !pos + len)

let scan_tail ~after path =
  let ic = try open_in_bin path with Sys_error m -> fail "%s" m in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        scan_input ~after ~length:(in_channel_length ic)
          ~input:(really_input ic)
      with Sys_error m -> fail "%s" m)

let scan path = scan_tail ~after:0 path
