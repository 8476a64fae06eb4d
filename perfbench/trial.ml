(* One timed trial of the study benchmark, in a fresh process.

   A trial sets up a study (boot, baselines, golden runs, profile), runs
   campaigns A, B and C at one pinned subsample under one workload's
   execution layout, and checks the records:

     serial   one in-process runner, jobs 1, no journal
     fleet    jobs 2 on the domain fleet, with a campaign journal
     sharded  the shard supervisor with 2 kfi-worker processes

   Every trial runs on the cached backend with a cold block cache.  All
   timing is taken from outside the library: around calls to its public
   functions, and (traced trials only) from what the program already
   emits through its public config — the telemetry JSONL, the metrics
   registry and the supervisor event log.  An untraced trial attaches
   none of them.

   The last line of stdout is one JSON object; perfbench/run.py reads it.

   The host's speed is read (Calib.rate) before the set-up, between
   the set-up and the campaigns, and after the campaigns, so that
   perfbench/run.py can state the set-up and campaign timings at a
   reference host speed.

   Usage: trial.exe --workload serial|fleet|sharded --seed N
            --subsample K --dir DIR --worker-exe PATH [--trace] *)

open Kfi
module E = Injector.Experiment
module Runner = Injector.Runner
module Outcome = Injector.Outcome
module Target = Injector.Target
module J = Injector.Journal
module M = Obs.Metrics
module T = Trace.Telemetry

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* CPU seconds of the process tree: every domain of this process plus
   reaped children (the supervisor waits for its kfi-workers). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let campaigns = [ Campaign.A; Campaign.B; Campaign.C ]
let fleet_jobs = 2
let shard_workers = 2

(* records re-run on the interp reference backend in every trial *)
let check_sample = 4

let classes =
  [ "not_activated"; "not_manifested"; "fsv"; "crash_dumped"; "crash_nodump";
    "hang"; "harness_abort" ]

let class_of : Outcome.t -> string = function
  | Outcome.Not_activated -> "not_activated"
  | Outcome.Not_manifested -> "not_manifested"
  | Outcome.Fail_silence_violation _ -> "fsv"
  | Outcome.Crash { dumped = true; _ } -> "crash_dumped"
  | Outcome.Crash { dumped = false; _ } -> "crash_nodump"
  | Outcome.Hang _ -> "hang"
  | Outcome.Harness_abort _ -> "harness_abort"

(* ----- reading the telemetry stream ----- *)

let member k = function T.Obj kvs -> List.assoc_opt k kvs | _ -> None

let num k ev =
  match member k ev with
  | Some (T.Float f) -> f
  | Some (T.Int i) -> float_of_int i
  | _ -> failwith ("telemetry event without numeric " ^ k)

let str k ev = match member k ev with Some (T.Str s) -> s | _ -> ""

(* ----- reading the supervisor event log -----

   The log is hand-printed with OCaml's %S, which is not strict JSON,
   so it is not parsed as JSON: only the ASCII fields [ts], [ev] and
   [slot] are scanned for, and a line missing any needed field is
   skipped and counted. *)

let scan_field line key =
  let pat = "\"" ^ key ^ "\":" in
  let lp = String.length pat and n = String.length line in
  let rec find i =
    if i + lp > n then None
    else if String.sub line i lp = pat then Some (i + lp)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do
      incr stop
    done;
    let v = String.trim (String.sub line start (!stop - start)) in
    let lv = String.length v in
    if lv >= 2 && v.[0] = '"' && v.[lv - 1] = '"' then Some (String.sub v 1 (lv - 2))
    else Some v

type shard_times = {
  mutable ready_s : float;  (* spawn -> ready, summed over spawns *)
  mutable first_shard_s : float;
      (* a slot's first assign -> first done: includes the worker's
         lazy kernel boot *)
  mutable work_s : float;  (* start -> last done *)
  mutable merge_s : float;  (* last done -> merge: shutdown, reap, merge *)
  mutable skipped : int;  (* log lines without a readable ts/ev *)
}

let read_event_log st path =
  let ic = open_in path in
  let spawn = Hashtbl.create 4
  and assign = Hashtbl.create 4
  and first_done = Hashtbl.create 4 in
  let start = ref 0. and last_done = ref 0. and merge = ref None in
  (try
     while true do
       let line = input_line ic in
       match
         ( Option.bind (scan_field line "ts") float_of_string_opt,
           scan_field line "ev" )
       with
       | Some ts, Some ev -> (
         let slot = Option.bind (scan_field line "slot") int_of_string_opt in
         match (ev, slot) with
         | "start", _ -> start := ts
         | "spawn", Some s -> Hashtbl.replace spawn s ts
         | "ready", Some s -> (
           match Hashtbl.find_opt spawn s with
           | Some t0 ->
             st.ready_s <- st.ready_s +. (ts -. t0);
             Hashtbl.remove spawn s
           | None -> ())
         | "assign", Some s ->
           if not (Hashtbl.mem assign s) then Hashtbl.replace assign s ts
         | "done", Some s ->
           last_done := Float.max !last_done ts;
           if not (Hashtbl.mem first_done s) then begin
             Hashtbl.replace first_done s ();
             match Hashtbl.find_opt assign s with
             | Some t0 -> st.first_shard_s <- st.first_shard_s +. (ts -. t0)
             | None -> ()
           end
         | "merge", _ -> merge := Some ts
         | _ -> ())
       | _ -> st.skipped <- st.skipped + 1
     done
   with End_of_file -> ());
  close_in ic;
  st.work_s <- st.work_s +. (!last_done -. !start);
  match !merge with
  | Some m -> st.merge_s <- st.merge_s +. (m -. !last_done)
  | None -> st.skipped <- st.skipped + 1

(* ----- percentiles ----- *)

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float n)) - 1)))

(* The highest of these percentiles with at least ten samples beyond it. *)
let tail_pct n =
  List.find_opt
    (fun p -> float n *. (1. -. (p /. 100.)) >= 10.)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]
  |> Option.value ~default:50.

(* ----- the trial ----- *)

let () =
  let workload = ref "" and seed = ref 42 and subsample = ref 60 in
  let traced = ref false and dir = ref "" and worker_exe = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " serial | fleet | sharded");
      ("--seed", Arg.Set_int seed, " bit-choice seed");
      ("--subsample", Arg.Set_int subsample, " keep every k-th target");
      ("--trace", Arg.Set traced, " attach telemetry, metrics and event log");
      ("--dir", Arg.Set_string dir, " fresh scratch directory for this trial");
      ("--worker-exe", Arg.Set_string worker_exe, " kfi-worker binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "trial.exe --workload W --seed N --subsample K --dir DIR --worker-exe PATH";
  let traced = !traced and dir = !dir in
  if not (List.mem !workload [ "serial"; "fleet"; "sharded" ]) then
    failwith ("unknown workload " ^ !workload);
  if dir = "" || not (Sys.file_exists dir) then failwith "--dir must exist";
  let metrics = if traced then Some (M.create ~name:"perfbench" ()) else None in
  let tele_lines = ref [] in
  let telemetry =
    if traced then Some (T.create ~sink:(fun l -> tele_lines := l :: !tele_lines) ())
    else None
  in
  let speed0 = Calib.rate () in
  (* set-up: Study.prepare, split into its two halves when traced *)
  let (study, runner_create_s, profile_s), setup_s =
    timed (fun () ->
        if traced then begin
          let runner, rc = timed (fun () -> Runner.create ()) in
          let (profile, core), pf =
            timed (fun () ->
                let profile =
                  Profiler.Sampler.profile_all ~build:(Runner.build runner)
                    ~machine:(Runner.machine runner)
                    ~baseline:(Runner.baseline runner) ()
                in
                (profile, Profiler.Sampler.top_functions profile ~coverage:0.95))
          in
          ({ Study.runner; profile; core; fleet = None }, rc, pf)
        end
        else (Study.prepare (), 0., 0.))
  in
  let fleet_boot_s =
    if !workload = "fleet" then
      snd (timed (fun () -> Study.fleet study ~jobs:fleet_jobs))
    else 0.
  in
  let setup_s = setup_s +. fleet_boot_s in
  let speed1 = Calib.rate () in
  let runner = study.Study.runner and profile = study.Study.profile in
  let base =
    Config.make ~subsample:!subsample ~seed:!seed ~backend:Backend.Cached
      ?telemetry ?metrics ()
  in
  let journal, config =
    match !workload with
    | "fleet" ->
      let j = J.open_ (Filename.concat dir "campaign.kj") in
      (Some j, { base with Config.jobs = fleet_jobs; journal = Some j })
    | "sharded" ->
      (* the journal the supervisor would open for itself, opened here
         so a traced trial can attach the metrics registry to it *)
      let j = J.open_ ~resume:true (Filename.concat dir "merged.kj") in
      J.set_metrics j metrics;
      ( Some j,
        {
          base with
          Config.journal = Some j;
          supervisor =
            Some
              {
                Config.default_supervisor with
                sup_workers = shard_workers;
                sup_shard_dir = Some dir;
                sup_worker_exe = Some !worker_exe;
              };
        } )
    | _ -> (None, base)
  in
  let event_log c =
    Filename.concat dir ("events-" ^ Target.campaign_letter c ^ ".jsonl")
  in
  let plan_s = ref 0. in
  let gc0 = Gc.quick_stat () and cpu0 = cpu_s () in
  let records, campaign_s =
    timed (fun () ->
        if not traced then Study.run_campaigns ~config study ()
        else
          List.concat_map
            (fun c ->
              let targets, ps = timed (fun () -> E.plan ~config runner profile c) in
              plan_s := !plan_s +. ps;
              match config.Config.supervisor with
              | Some sup ->
                let sup = { sup with Config.sup_event_log = Some (event_log c) } in
                Shard.Supervisor.run_campaign
                  ~config:{ config with Config.supervisor = Some sup }
                  runner profile c
              | None ->
                E.run_targets ~config ?fleet:study.Study.fleet runner profile c
                  targets)
            campaigns)
  in
  let cpu = cpu_s () -. cpu0 and gc1 = Gc.quick_stat () in
  let speed2 = Calib.rate () in
  let mean (a, _) (b, _) = (a +. b) /. 2. and cpu_mean (_, a) (_, b) = (a +. b) /. 2. in
  Option.iter J.close journal;
  let csv, csv_s = timed (fun () -> Study.to_csv records) in
  (* output checks: every planned target has its record, in order; no
     harness aborts; a pinned sample re-run on the reference interpreter
     reproduces its record *)
  Runner.set_metrics runner None;
  let planned = List.concat_map (fun c -> E.plan ~config runner profile c) campaigns in
  let nplanned = List.length planned in
  let missing =
    if List.map (fun r -> r.E.r_target) records = planned then 0
    else max 1 (nplanned - List.length records)
  in
  let aborts =
    List.length (List.filter (fun r -> class_of r.E.r_outcome = "harness_abort") records)
  in
  let recs = Array.of_list records in
  let nrec = Array.length recs in
  let sample =
    List.init (min check_sample nrec) (fun i -> i * nrec / check_sample)
    |> List.sort_uniq compare
  in
  Runner.set_backend runner Backend.Interp;
  let mismatches =
    List.filter
      (fun i ->
        let r = recs.(i) in
        Runner.run_one runner ~workload:r.E.r_workload r.E.r_target <> r.E.r_outcome)
      sample
  in
  (* per-layer numbers, traced trials only *)
  let layers =
    if not traced then []
    else begin
      let snap = M.snapshot (Option.get metrics) in
      let hsum k = match M.hist snap k with Some h -> h.M.hs_sum | None -> 0. in
      let events = List.rev_map T.parse !tele_lines in
      let targets = List.filter (fun e -> str "type" e = "target") events in
      if List.length targets <> nrec then failwith "telemetry/record count mismatch";
      let sharded = !workload = "sharded" in
      let per = Hashtbl.create 8 in
      List.iter (fun c -> Hashtbl.replace per c (0, 0., 0)) classes;
      let walls =
        List.map2
          (fun r e ->
            if str "fn" e <> r.E.r_target.Target.t_fn then
              failwith "telemetry out of record order";
            let c = class_of r.E.r_outcome in
            let n, w, cy = Hashtbl.find per c in
            let wall = num "wall_ms" e /. 1000. in
            let cycles = int_of_float (num "cycles" e) in
            Hashtbl.replace per c (n + 1, w +. wall, cy + cycles);
            wall)
          records targets
      in
      let sim_cycles = Hashtbl.fold (fun _ (_, _, cy) a -> a + cy) per 0 in
      let inj_wall = hsum "inj.wall" in
      (* workers report no per-target time: on the sharded layout a
         class's wall is its share of simulated cycles times the
         workers' total injection wall *)
      if sharded then
        Hashtbl.filter_map_inplace
          (fun _ (n, _, cy) ->
            Some (n, inj_wall *. float cy /. float (max 1 sim_cycles), cy))
          per;
      let p50, tail_pct, tail =
        let tp = tail_pct nrec in
        if sharded then
          match M.hist snap "inj.wall" with
          | Some h ->
            (M.quantile h 0.5 *. 1000., tp, M.quantile h (tp /. 100.) *. 1000.)
          | None -> (0., tp, 0.)
        else begin
          let a = Array.of_list walls in
          Array.sort compare a;
          (nearest_rank a 50. *. 1000., tp, nearest_rank a tp *. 1000.)
        end
      in
      let replay_s =
        if sharded then
          List.fold_left
            (fun a e ->
              if str "type" e = "campaign_end" then a +. num "wall_s" e else a)
            0. events
        else 0.
      in
      let st =
        { ready_s = 0.; first_shard_s = 0.; work_s = 0.; merge_s = 0.; skipped = 0 }
      in
      if sharded then
        List.iter
          (fun c ->
            if Sys.file_exists (event_log c) then read_event_log st (event_log c))
          campaigns;
      let ctr = M.counter snap in
      let exec_s = hsum "phase.execute" in
      let f k v = (k, T.Float v) and i k v = (k, T.Int v) in
      let cycles_per_s = if exec_s > 0. then float sim_cycles /. exec_s else 0. in
      let gc_delta get = get gc1 - get gc0 in
      [ f "setup.runner_create_s" runner_create_s;
        f "setup.profile_s" profile_s;
        f "setup.fleet_boot_s" fleet_boot_s;
        f "plan.s" !plan_s;
        i "plan.targets" nplanned;
        f "runner.restore_s" (hsum "phase.restore");
        f "runner.execute_s" exec_s;
        f "runner.classify_s" (hsum "phase.classify");
        i "runner.inj_n" nrec;
        f "runner.inj_p50_ms" p50;
        f "runner.inj_tail_pct" tail_pct;
        f "runner.inj_tail_ms" tail;
      ]
      @ List.concat_map
          (fun c ->
            let n, w, cy = Hashtbl.find per c in
            [ i ("runner." ^ c ^ ".n") n;
              f ("runner." ^ c ^ ".wall_s") w;
              i ("runner." ^ c ^ ".cycles") cy;
            ])
          classes
      @ [ i "isa.sim_cycles" sim_cycles;
          f "isa.cycles_per_s" cycles_per_s;
          f "gc.minor_words" (gc1.Gc.minor_words -. gc0.Gc.minor_words);
          i "gc.minor_collections" (gc_delta (fun g -> g.Gc.minor_collections));
          i "gc.major_collections" (gc_delta (fun g -> g.Gc.major_collections));
          i "journal.appends" (ctr "journal.appends");
          f "journal.fsync_s" (hsum "phase.journal_fsync");
          i "fleet.items" (ctr "fleet.items");
          i "fleet.requeued" (ctr "fleet.requeued");
          i "fleet.retries" (ctr "fleet.retries");
          f "fleet.collect_s" (if !workload = "fleet" then hsum "phase.collect" else 0.);
          i "shard.spawns" (ctr "sup.spawns");
          i "shard.restarts" (ctr "sup.restarts");
          i "shard.requeued" (ctr "sup.requeued");
          f "shard.worker_ready_s" st.ready_s;
          f "shard.first_shard_s" st.first_shard_s;
          f "shard.work_s" st.work_s;
          f "shard.merge_s" st.merge_s;
          f "shard.replay_s" replay_s;
          i "shard.log_lines_skipped" st.skipped;
          f "report.csv_s" csv_s;
        ]
    end
  in
  print_endline
    (T.to_string
       (T.Obj
          [ ("workload", T.Str !workload);
            ("seed", T.Int !seed);
            ("subsample", T.Int !subsample);
            ("traced", T.Bool traced);
            ("planned", T.Int nplanned);
            ("records", T.Int nrec);
            ("missing", T.Int missing);
            ("aborts", T.Int aborts);
            ("checked", T.Int (List.length sample));
            ("check_mismatches", T.Int (List.length mismatches));
            ("csv_md5", T.Str (Digest.to_hex (Digest.string csv)));
            ("setup_s", T.Float setup_s);
            ("setup_mops", T.Float (mean speed0 speed1));
            ("campaign_mops", T.Float (mean speed1 speed2));
            ("campaign_cpu_mops", T.Float (cpu_mean speed1 speed2));
            ("campaign_s", T.Float campaign_s);
            ("cpu_s", T.Float cpu);
            ("layers", T.Obj layers);
          ]))
