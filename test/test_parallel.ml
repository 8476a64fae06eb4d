(* Parallel-fleet tests: the Config record defaults, ordered,
   exactly-once collection through Fleet.run, failure propagation out of
   a worker, and the headline determinism property: a jobs:4 campaign
   produces records, CSV, telemetry JSONL (timing fields aside) and
   progress ticks identical to the serial run. *)

open Kfi_injector
module Telemetry = Kfi_trace.Telemetry

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* share the booted runner and profile with the other test modules *)
let runner = Test_injector.runner
let profile = Test_trace.profile

(* one four-runner pool for every fleet test: booted once, by whichever
   test needs it first *)
let pool = lazy (Fleet.create ~jobs:4 (Lazy.force runner))

(* ----- Config ----- *)

(* Config.default must mean exactly what the legacy entry points did
   with no optional arguments. *)
let test_config_default_fields () =
  let d = Config.default in
  check int "subsample" 1 d.Config.subsample;
  check int "seed" 42 d.Config.seed;
  check bool "hardening" false d.Config.hardening;
  check bool "no telemetry" true (d.Config.telemetry = None);
  check bool "no progress" true (d.Config.on_progress = None);
  check int "jobs" 1 d.Config.jobs;
  check bool "no journal" true (d.Config.journal = None);
  check bool "default policy: no deadline" true
    (d.Config.policy.Fleet.deadline_ms = None);
  check int "default policy: retries" 1 d.Config.policy.Fleet.retries;
  (* make () = default *)
  let m = Config.make () in
  check int "make subsample" d.Config.subsample m.Config.subsample;
  check int "make seed" d.Config.seed m.Config.seed;
  check int "make jobs" d.Config.jobs m.Config.jobs

(* ----- Fleet.run collection order ----- *)

(* An all-replayed plan (every item already in the journal) needs no
   machine, so this exercises the claim counter + collector machinery in
   isolation.  Item i replays cycle count i, so a result shows which
   item it came from. *)
let replayed_items () =
  let r = Lazy.force runner in
  Target.enumerate (Runner.build r) ~campaign:Target.A ~seed:1 [ "schedule" ]
  |> Array.of_list
  |> Array.mapi (fun i t ->
         {
           Fleet.it_target = t;
           it_workload = 0;
           it_done =
             Some
               {
                 Fleet.res_outcome = Outcome.Not_manifested;
                 res_timing = { Fleet.timing_zero with Fleet.cycles = i };
                 res_retries = 0;
               };
         })

(* results arrive via on_result in strict index order, each the item's
   replayed result; on_complete fires exactly once per index *)
let test_fleet_ordered_collection () =
  let fleet = Lazy.force pool in
  check int "pool size" 4 (Fleet.size fleet);
  check bool "primary preserved" true
    (Fleet.primary fleet == Lazy.force runner);
  let items = replayed_items () in
  let n = Array.length items in
  let completed = Array.init n (fun _ -> Atomic.make 0) in
  let seen = ref [] in
  let results =
    (* jobs above the pool size must clamp, not crash *)
    Fleet.run ~jobs:5
      ~on_complete:(fun i _ _ -> Atomic.incr completed.(i))
      ~on_result:(fun i it res ->
        seen := i :: !seen;
        check bool "replayed result surfaced" true (Some res = it.Fleet.it_done);
        check int "result of item i" i res.Fleet.res_timing.Fleet.cycles)
      fleet items
  in
  check int "all results" n (Array.length results);
  check (Alcotest.list int) "on_result in serial order" (List.init n Fun.id)
    (List.rev !seen);
  Array.iteri
    (fun i c ->
      if Atomic.get c <> 1 then
        Alcotest.failf "on_complete fired %d times for index %d" (Atomic.get c) i)
    completed;
  (* a collector callback failure must not hang the fleet *)
  Alcotest.check_raises "collector exception propagates" Exit (fun () ->
      ignore (Fleet.run ~on_result:(fun _ _ _ -> raise Exit) fleet items))

(* A worker-side failure (a journal append raising in on_complete) stops
   the run and re-raises on the caller, as the serial path does: no hang,
   and nothing is turned into a Harness_abort record. *)
exception Append_failed

let test_fleet_worker_failure_raises () =
  let fleet = Lazy.force pool in
  let items = replayed_items () in
  let bad = Array.length items / 2 in
  let surfaced = ref [] in
  Alcotest.check_raises "on_complete exception re-raised" Append_failed
    (fun () ->
      ignore
        (Fleet.run ~jobs:2
           ~on_complete:(fun i _ _ -> if i = bad then raise Append_failed)
           ~on_result:(fun _ _ res -> surfaced := res :: !surfaced)
           fleet items));
  check bool "stopped before the failed index surfaced" true
    (List.length !surfaced <= bad);
  check bool "no Harness_abort record" true
    (List.for_all
       (fun res ->
         match res.Fleet.res_outcome with
         | Outcome.Harness_abort _ -> false
         | _ -> true)
       !surfaced);
  (* the pool is left usable: every domain was joined *)
  check int "pool reusable" (Array.length items)
    (Array.length (Fleet.run ~jobs:2 fleet items))

(* ----- the headline determinism property ----- *)

let run_campaign_a ~jobs =
  let r = Lazy.force runner and p = Lazy.force profile in
  let buf = Buffer.create 4096 in
  let tm =
    Telemetry.create
      ~sink:(fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
      ()
  in
  let ticks = ref [] in
  let config =
    Config.make ~subsample:120 ~telemetry:tm
      ~on_progress:(fun ~done_ ~total -> ticks := (done_, total) :: !ticks)
      ~jobs ()
  in
  let fleet = if jobs > 1 then Some (Lazy.force pool) else None in
  let records = Experiment.run_campaign ~config ?fleet r p Target.A in
  (records, Buffer.contents buf, List.rev !ticks)

let test_jobs4_identical_to_serial () =
  let serial, jsonl1, ticks1 = run_campaign_a ~jobs:1 in
  let parallel, jsonl4, ticks4 = run_campaign_a ~jobs:4 in
  check bool "ran something" true (List.length serial > 50);
  check bool "identical record lists" true (serial = parallel);
  check bool "identical CSV" true
    (String.equal (Experiment.to_csv serial) (Experiment.to_csv parallel));
  check (Alcotest.list (Alcotest.pair int int)) "identical progress ticks" ticks1
    ticks4;
  (* the parallel JSONL still passes the schema lint... *)
  (match Telemetry.lint jsonl4 with
   | Ok events -> check int "events = targets + 2" (List.length serial + 2) events
   | Error (l, e) ->
     Alcotest.failf "parallel telemetry lint: line %d: %s" l e);
  (* ...and is line-for-line identical once wall-clock fields are gone *)
  let strip doc =
    Telemetry.strip_volatile doc
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  check (Alcotest.list Alcotest.string) "identical JSONL modulo wall clock"
    (strip jsonl1) (strip jsonl4)

let suite =
  [
    Alcotest.test_case "Config.default fields" `Quick test_config_default_fields;
    Alcotest.test_case "fleet ordered collection" `Slow
      test_fleet_ordered_collection;
    Alcotest.test_case "fleet worker failure re-raised" `Slow
      test_fleet_worker_failure_raises;
    Alcotest.test_case "jobs:4 = jobs:1 (records, CSV, JSONL, ticks)" `Slow
      test_jobs4_identical_to_serial;
  ]
