(* The campaign journal: an append-only, CRC-framed, fsync'd record of
   every completed injection, so a campaign killed at any point — SIGKILL
   included — can resume where it left off.

   This is the harness-side analogue of the paper's hardware watchdog +
   reboot loop: the >35,000-injection study only completed because the
   controller tolerated losing the machine under test at any moment and
   carried on from persistent state (Figures 2/3, Section 3).

   On-disk format (all integers little-endian):

     file   := header frame, entry frame*
     frame  := u32 payload_length, u32 crc32(payload), payload bytes

   The first frame's payload is [F_meta fingerprint] — a string
   identifying the entry layout and the run configuration
   ("kfi-journal-v2 seed=.. subsample=.. hardening=.."), so a journal is
   never silently resumed under a config that would enumerate different
   targets or observe different outcomes, nor read back under a
   different entry layout (v1 entries carried a predicted flag).
   Every other frame is one [F_entry]: the target key, its workload, the
   classified outcome, the retry count and the simulated cycle count
   (cycles are deterministic, so replayed telemetry matches a live run).

   Durability and torn writes: [append] flushes and fsyncs each frame,
   so a completed injection survives a SIGKILL of the whole process.  A
   kill *during* a write leaves a torn final frame; [open_ ~resume:true]
   detects it (short frame or CRC mismatch), truncates the file back to
   the last intact frame and re-runs that one target — outcomes are
   deterministic, so the resumed output is byte-identical anyway. *)

type entry = {
  e_campaign : Target.campaign;
  e_fn : string;
  e_addr : int32;
  e_byte : int;
  e_bit : int;
  e_workload : int;
  e_outcome : Outcome.t;
  e_retries : int;
  e_cycles : int;
}

type frame = F_meta of string | F_entry of entry

(* The entry layout this tree marshals, and the first word of every
   fingerprint ([Config.fingerprint]).  v1 entries carried a predicted
   flag between outcome and retries. *)
let layout = "kfi-journal-v2"

(* The lookup key: enough to identify a target within an enumeration.
   [t_addr] disambiguates instructions of the same function; [t_byte] /
   [t_bit] the mutation; the campaign letter keeps A/B/C apart in one
   shared journal. *)
type key = string * string * int32 * int * int

let key_of_target campaign (t : Target.t) : key =
  (Target.campaign_letter campaign, t.Target.t_fn, t.Target.t_addr,
   t.Target.t_byte, t.Target.t_bit)

let key_of_entry e : key =
  (Target.campaign_letter e.e_campaign, e.e_fn, e.e_addr, e.e_byte, e.e_bit)

type t = {
  oc : out_channel;
  lock : Mutex.t; (* fleet workers append from their own domains *)
  tbl : (key, entry) Hashtbl.t; (* entries loaded at open time *)
  mutable meta : string option; (* fingerprint frame, if present *)
  mutable appended : int;
  mutable torn : bool; (* a torn final frame was truncated at open *)
  mutable metrics : Kfi_obs.Metrics.t option;
      (* observability: fsync stall histogram + append counters; never
         touches the on-disk format *)
}

(* ----- CRC-32 (IEEE 802.3, the zlib polynomial) ----- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

(* ----- framing ----- *)

let frame_payload (f : frame) = Marshal.to_string f []

let write_frame oc payload =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  output_bytes oc b;
  output_string oc payload

(* Read one frame from [ic]; [None] on a clean EOF, [Error] on a torn or
   corrupt frame (short header, short payload, CRC mismatch). *)
let read_frame ic : (frame option, string) result =
  let start = pos_in ic in
  match really_input_string ic 8 with
  | exception End_of_file ->
    (* [really_input_string] consumes any partial tail before raising, so
       "position advanced" — not "position at EOF" — is what separates a
       clean end from a torn sub-8-byte header *)
    if pos_in ic = start then Ok None else Error "torn frame header"
  | header ->
    let len = Int32.to_int (String.get_int32_le header 0) land 0xFFFFFFFF in
    let crc = Int32.to_int (String.get_int32_le header 4) land 0xFFFFFFFF in
    if len < 0 || len > 16 * 1024 * 1024 then Error "implausible frame length"
    else (
      match really_input_string ic len with
      | exception End_of_file -> Error "torn frame payload"
      | payload ->
        if crc32 payload <> crc then Error "frame CRC mismatch"
        else (
          match (Marshal.from_string payload 0 : frame) with
          | exception _ -> Error "undecodable frame payload"
          | f -> Ok (Some f)))

(* ----- opening, loading, appending ----- *)

exception Corrupt of string

(* A failed frame is a *torn tail* only when no intact frame follows it.
   Scan forward from the failure point for any position where a
   CRC-valid frame parses: one found means the damage sits in the
   MIDDLE of the file — e.g. a corrupted shard journal merged into a
   campaign journal — and silently truncating would drop intact entries
   after it.  A random 8-byte window passes the length-plausibility and
   CRC-32 checks with probability ~2^-40, so false positives are not a
   practical concern, and the scan is bounded by the bad frame's extent
   (the next intact frame stops it). *)
let intact_frame_follows ic ~from ~until =
  let found = ref false in
  let q = ref from in
  while (not !found) && !q <= until - 8 do
    seek_in ic !q;
    (match read_frame ic with Ok (Some _) -> found := true | _ -> ());
    incr q
  done;
  !found

let load_existing path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let entries = ref [] in
      let meta = ref None in
      let rec go good_end =
        let start = pos_in ic in
        match read_frame ic with
        | Ok None -> (good_end, false)
        | Ok (Some (F_meta m)) ->
          if !meta = None then meta := Some m;
          go (pos_in ic)
        | Ok (Some (F_entry e)) ->
          entries := e :: !entries;
          go (pos_in ic)
        | Error reason ->
          (* unreadable from [start] on.  A torn *tail* (nothing intact
             after it) is truncated and re-run; damage followed by
             intact frames is a hard error — truncating there would
             silently drop completed entries. *)
          let file_len = in_channel_length ic in
          if intact_frame_follows ic ~from:(start + 1) ~until:file_len then
            raise
              (Corrupt
                 (Printf.sprintf
                    "%s: %s at offset %d with intact frames after it — \
                     mid-file corruption, refusing to truncate"
                    path reason start))
          else (good_end, true)
      in
      let good_end, torn = go 0 in
      (List.rev !entries, !meta, good_end, torn))

let open_ ?(resume = false) path =
  let entries, meta, good_end, torn =
    if resume && Sys.file_exists path then load_existing path
    else ([], None, 0, false)
  in
  (* truncate away any torn tail (or the whole file on a fresh run),
     then append after the last intact frame *)
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Unix.ftruncate fd good_end;
  ignore (Unix.lseek fd good_end Unix.SEEK_SET);
  let oc = Unix.out_channel_of_descr fd in
  let tbl = Hashtbl.create (max 64 (2 * List.length entries)) in
  List.iter (fun e -> Hashtbl.replace tbl (key_of_entry e) e) entries;
  { oc; lock = Mutex.create (); tbl; meta; appended = 0; torn; metrics = None }

let set_metrics t m = Mutex.protect t.lock (fun () -> t.metrics <- m)

let check_fingerprint t ~fingerprint =
  Mutex.protect t.lock (fun () ->
      match t.meta with
      | Some m when m <> fingerprint ->
        invalid_arg
          (Printf.sprintf
             "Journal.check_fingerprint: journal was written under config %S, \
              resumed under %S — refusing to mix runs"
             m fingerprint)
      | Some _ -> ()
      | None ->
        write_frame t.oc (frame_payload (F_meta fingerprint));
        flush t.oc;
        Unix.fsync (Unix.descr_of_out_channel t.oc);
        t.meta <- Some fingerprint)

let find t key = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.tbl key)

let append t entry =
  Mutex.protect t.lock (fun () ->
      let t0 = Unix.gettimeofday () in
      write_frame t.oc (frame_payload (F_entry entry));
      (* flush + fsync per entry: an injection that completed is durable
         the moment [append] returns, whatever kills the process next *)
      flush t.oc;
      Unix.fsync (Unix.descr_of_out_channel t.oc);
      (match t.metrics with
       | Some m ->
         (* the write+flush+fsync stall a worker eats per completion *)
         Kfi_obs.Metrics.observe m "phase.journal_fsync"
           (Unix.gettimeofday () -. t0);
         Kfi_obs.Metrics.incr m "journal.appends"
       | None -> ());
      Hashtbl.replace t.tbl (key_of_entry entry) entry;
      t.appended <- t.appended + 1)

let entries t =
  Mutex.protect t.lock (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl [])

let loaded t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl - t.appended)

let appended t = Mutex.protect t.lock (fun () -> t.appended)

let torn_tail_truncated t = t.torn

let close t =
  Mutex.protect t.lock (fun () ->
      flush t.oc;
      (try Unix.fsync (Unix.descr_of_out_channel t.oc) with Unix.Unix_error _ -> ());
      close_out_noerr t.oc)

(* A header naming another kfi-journal layout; other fingerprints are
   the caller's own (tests, embedders) and are checked by
   [check_fingerprint] only. *)
let other_layout m =
  String.starts_with ~prefix:"kfi-journal-" m
  && not (String.starts_with ~prefix:(layout ^ " ") m)

let read_file path =
  let entries, meta, _, _ = load_existing path in
  match meta with
  | Some m when other_layout m ->
    invalid_arg
      (Printf.sprintf
         "Journal.read_file: %s was written under %S, not the %s entry layout"
         path m layout)
  | _ -> entries
