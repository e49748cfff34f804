(** Write-ahead journal framing: one record per committed transaction.

    On disk: a header line, then a sequence of
    [magic | 8-byte BE length | 4-byte BE Adler-32 | payload] frames.
    The payload is a [<txn seq user mode>] envelope wrapping the
    compact canonical XUpdate-XML of the batch
    ({!Xupdate.Xupdate_xml.to_tree}), so a journal is inspectable with
    any XML tooling yet byte-exact under reparse.

    Payload versions: a batch holding only document ops is written in
    the historical version-1 shape (one [<xupdate:modifications>]
    child, no version attribute) — old journals parse unchanged and
    old readers keep reading new document-only journals.  A batch with
    at least one policy op is tagged [ver="2"] and interleaves runs of
    XUpdate instructions with policy-administration elements in commit
    order.  The store stays policy-agnostic: a {!policy_op} carries the
    wire fields (decision, privilege name, path text, subject,
    timestamp); [Core.Op] converts to and from typed rules.

    A {!scan} accepts the longest valid prefix: the first short,
    checksum-failing or unparseable frame ends it, and everything after
    that offset is a torn tail — exactly what a crash mid-append
    produces. *)

exception Error of string

type mode = [ `Atomic | `Tolerant ]
(** Whether the transaction was committed under [`Abort] or [`Tolerate]
    denial semantics — replay must preserve it (a tolerated record may
    legitimately contain denials). *)

type policy_op =
  | Padd of {
      decision : [ `Accept | `Deny ];
      privilege : string;  (** one of the five privilege names *)
      path : string;  (** XPath concrete syntax; validated at decode *)
      subject : string;
      priority : int;  (** the rule's issue timestamp *)
    }
  | Pretract of { priority : int }
  | Pisa of { sub : string; super : string }
  | Premove_isa of { sub : string; super : string }

type op = Doc of Xupdate.Op.t | Policy of policy_op

val docs : Xupdate.Op.t list -> op list
(** Wraps a document-only batch. *)

val doc_ops : op list -> Xupdate.Op.t list
(** The document ops of a batch, in order (policy ops dropped). *)

type record = {
  seq : int;  (** 1-based, contiguous *)
  user : string;
  mode : mode;
  ops : op list;
}

val header_line : string
val magic : string

val adler32 : string -> int
val mode_to_string : mode -> string
val mode_of_string : string -> mode

val payload : record -> string
val record_of_payload : string -> record
(** @raise Error on malformed payloads. *)

val encode : record -> string
(** The full frame (magic + length + checksum + payload). *)

(** {1 Generic framing}

    The frame discipline, decoupled from the transaction payload, so
    other durable logs (the audit journal, {!Audit_log}) inherit the
    same torn-tail semantics. *)

val frame : magic:string -> string -> string
(** [frame ~magic payload] = [magic | 8-byte BE length | 4-byte BE
    Adler-32 | payload].  @raise Invalid_argument unless [magic] is
    exactly 4 bytes. *)

val scan_frames : magic:string -> header:string -> string -> (string * int) list
(** Checksum-valid frames of a file image, in order, each paired with
    the offset just past its frame (= where the valid prefix ends if
    this frame is the last accepted one).  Scanning stops at the first
    short, wrong-magic or checksum-failing frame.
    @raise Error when the header is wrong.
    @raise Invalid_argument unless [magic] is exactly 4 bytes. *)

type scan = {
  records : record list;
  valid_bytes : int;
      (** file offset just past the last valid record — where a repair
          truncates to, and where appends resume *)
  torn_bytes : int;
}

val scan_string : string -> scan
val scan : string -> scan
(** @raise Error when the file is unreadable or its header is wrong
    (a torn {e tail} is not an error; a bad {e header} is). *)

val scan_tail : after:int -> string -> scan
(** [scan_tail ~after path] is [scan path] restricted to the records
    with [seq > after], for recovery past a snapshot at seq [after]: the
    file is streamed frame by frame, and a frame whose envelope names a
    seq in [\[1, after\]] is checksum-verified but never decoded.
    [valid_bytes] and [torn_bytes] are those of {!scan}, except that a
    checksum-valid frame at or below [after] whose payload would not
    decode no longer ends the valid prefix.  [scan_tail ~after:0] = {!scan}.
    @raise Error as {!scan}. *)
