(* The periodic snapshot writer: streams cumulative JSONL metric frames
   beside the journal while a campaign runs, and leaves a final JSON
   rollup (with derived quantiles and phase shares) next to them.

   Frames are cumulative, not deltas: each one is a complete rendering
   of the registry tree at that instant, so a consumer (kfi-stats --live,
   a future campaign-service aggregator) only ever needs the last frame,
   and frames from different shards merge with [Metrics.merge].

   The writer is deliberately tickless: there is no background domain or
   thread.  Callers weave [maybe_tick] into work they are already doing
   (the campaign progress callback fires once per completed injection)
   and a frame is emitted whenever [interval_ms] has elapsed since the
   previous one.  An earlier version spawned a ticker domain instead;
   on a single-core host the mere existence of a second domain taxed
   the mutator ~10% (every minor GC becomes a stop-the-world handshake),
   which violated the "observation must be nearly free" contract.
   [interval_ms = 0] leaves emission entirely to explicit [tick] calls
   (tests, and callers with their own cadence). *)

module J = Kfi_trace.Telemetry

type t = {
  path : string;
  oc : out_channel;
  lock : Mutex.t; (* guards [oc], [seq], [closed], [next_due] *)
  snap_fn : unit -> Metrics.snap;
  t0 : float;
  interval : float; (* seconds between [maybe_tick] frames; 0 = never *)
  mutable seq : int;
  mutable closed : bool;
  mutable next_due : float; (* wall clock of the next [maybe_tick] frame *)
}

let frame_json ~seq ~elapsed_s ~final snap =
  let body = match Metrics.to_json snap with J.Obj fs -> fs | _ -> [] in
  J.Obj
    (("type", J.Str "metrics")
    :: ("seq", J.Int seq)
    :: ("elapsed_s", J.Float elapsed_s)
    :: ("final", J.Bool final)
    :: body)

(* Shares of the injection wall clock, the number ROADMAP's perf work
   reads: restore + execute + classify are the sub-phases timed inside
   [Runner.run_one] (a skipped [Runner.inject] books its decision as
   classify), so they sum to ~100% of the "inj.wall" histogram;
   "other" is the (small) remainder lost to timer placement. *)
let phase_shares snap =
  match Metrics.hist snap "inj.wall" with
  | Some w when w.Metrics.hs_sum > 0. ->
    let share name =
      match Metrics.hist snap name with
      | Some h -> 100. *. h.Metrics.hs_sum /. w.Metrics.hs_sum
      | None -> 0.
    in
    let restore = share "phase.restore" in
    let execute = share "phase.execute" in
    let classify = share "phase.classify" in
    Some
      [
        ("restore", restore);
        ("execute", execute);
        ("classify", classify);
        ("other", 100. -. restore -. execute -. classify);
      ]
  | _ -> None

let rollup_json ~frames ~elapsed_s snap =
  let hist_json (h : Metrics.hsnap) =
    match Metrics.hsnap_to_json h with
    | J.Obj fs ->
      J.Obj
        (fs
        @ [
            ("mean", J.Float (Metrics.mean h));
            ("p50", J.Float (Metrics.quantile h 0.5));
            ("p90", J.Float (Metrics.quantile h 0.9));
            ("p99", J.Float (Metrics.quantile h 0.99));
          ])
    | v -> v
  in
  J.Obj
    ([
       ("type", J.Str "metrics_rollup");
       ("frames", J.Int frames);
       ("elapsed_s", J.Float elapsed_s);
       ( "counters",
         J.Obj (List.map (fun (k, v) -> (k, J.Int v)) snap.Metrics.sn_counters)
       );
       ( "gauges",
         J.Obj (List.map (fun (k, v) -> (k, J.Float v)) snap.Metrics.sn_gauges)
       );
       ( "hists",
         J.Obj (List.map (fun (k, h) -> (k, hist_json h)) snap.Metrics.sn_hists)
       );
     ]
    @
    match phase_shares snap with
    | Some shares ->
      [
        ( "phase_shares_pct",
          J.Obj (List.map (fun (k, v) -> (k, J.Float v)) shares) );
      ]
    | None -> [])

let write_frame t ~final =
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        let now = Unix.gettimeofday () in
        let snap = t.snap_fn () in
        let line =
          J.to_string (frame_json ~seq:t.seq ~elapsed_s:(now -. t.t0) ~final snap)
        in
        output_string t.oc line;
        output_char t.oc '\n';
        flush t.oc;
        t.seq <- t.seq + 1;
        t.next_due <- now +. t.interval
      end)

let tick t = write_frame t ~final:false

(* The cheap path, safe to call once per injection: one clock read and a
   compare unless a frame is actually due.  The unlocked [next_due] read
   can race with a concurrent frame, at worst emitting one extra frame —
   frames are cumulative, so an extra one is harmless. *)
let maybe_tick t =
  if t.interval > 0. && Unix.gettimeofday () >= t.next_due then tick t

let rollup_path path = path ^ ".rollup"

let create ?(interval_ms = 500) ~path snap_fn =
  let now = Unix.gettimeofday () in
  let interval = float_of_int (max 0 interval_ms) /. 1000. in
  {
    path;
    oc = open_out path;
    lock = Mutex.create ();
    snap_fn;
    t0 = now;
    interval;
    seq = 0;
    closed = false;
    next_due = now +. interval;
  }

let path t = t.path

let close t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        let snap = t.snap_fn () in
        let elapsed_s = Unix.gettimeofday () -. t.t0 in
        let line =
          J.to_string (frame_json ~seq:t.seq ~elapsed_s ~final:true snap)
        in
        output_string t.oc line;
        output_char t.oc '\n';
        t.seq <- t.seq + 1;
        close_out_noerr t.oc;
        let oc = open_out (rollup_path t.path) in
        output_string oc
          (J.to_string (rollup_json ~frames:t.seq ~elapsed_s snap));
        output_char oc '\n';
        close_out_noerr oc;
        t.closed <- true
      end)

(* ----- reading frames back (kfi-stats, the CI lint) ----- *)

type frame = {
  f_seq : int;
  f_elapsed_s : float;
  f_final : bool;
  f_snap : Metrics.snap;
}

let ( let* ) r f = Result.bind r f

let parse_frame line =
  let* v =
    match J.parse line with
    | v -> Ok v
    | exception J.Parse_error msg -> Error ("not valid JSON: " ^ msg)
  in
  let field k = match v with J.Obj fs -> List.assoc_opt k fs | _ -> None in
  let* () =
    match field "type" with
    | Some (J.Str "metrics") -> Ok ()
    | _ -> Error "not a \"metrics\" frame"
  in
  let* seq =
    match field "seq" with
    | Some (J.Int s) when s >= 0 -> Ok s
    | _ -> Error "missing integer \"seq\""
  in
  let* elapsed =
    match field "elapsed_s" with
    | Some (J.Int s) -> Ok (float_of_int s)
    | Some (J.Float s) when s >= 0. -> Ok s
    | _ -> Error "missing number \"elapsed_s\""
  in
  let* final =
    match field "final" with
    | Some (J.Bool b) -> Ok b
    | _ -> Error "missing boolean \"final\""
  in
  let* snap = Metrics.of_json v in
  Ok { f_seq = seq; f_elapsed_s = elapsed; f_final = final; f_snap = snap }

let fold_lines doc f init =
  let lines =
    String.split_on_char '\n' doc |> List.filter (fun l -> String.trim l <> "")
  in
  let rec go acc lineno = function
    | [] -> Ok acc
    | l :: tl -> (
      match parse_frame l with
      | Error e -> Error (lineno, e)
      | Ok fr -> (
        match f acc fr with
        | Error e -> Error (lineno, e)
        | Ok acc -> go acc (lineno + 1) tl))
  in
  go init 1 lines

(* Lint a frame stream: every line parses, sequence numbers strictly
   increase, and nothing follows a final frame. *)
let lint doc =
  fold_lines doc
    (fun (n, last_seq, saw_final) fr ->
      if saw_final then Error "frame after the final frame"
      else if fr.f_seq <= last_seq then
        Error
          (Printf.sprintf "sequence not increasing (%d after %d)" fr.f_seq
             last_seq)
      else Ok (n + 1, fr.f_seq, fr.f_final))
    (0, -1, false)
  |> Result.map (fun (n, _, _) -> n)

let read_frames path =
  let ic = open_in_bin path in
  let doc =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  fold_lines doc (fun acc fr -> Ok (fr :: acc)) []
  |> Result.map List.rev
