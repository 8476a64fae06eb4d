(* Analysis tests on synthetic records: aggregation arithmetic must be
   exact and renderers must mention what they're given. *)

open Kfi_injector
module Stats = Kfi_analysis.Stats

let check = Alcotest.check
let int = Alcotest.int

let mk_target ?(fn = "f") ?(subsys = "fs") () =
  {
    Target.t_fn = fn;
    t_subsys = subsys;
    t_addr = 0xC0100000l;
    t_len = 2;
    t_insn = Kfi_isa.Insn.Nop;
    t_kind = Target.Text;
    t_byte = 0;
    t_bit = 0;
  }

let mk ?(campaign = Target.A) ?fn ?subsys outcome =
  {
    Experiment.r_campaign = campaign;
    r_target = mk_target ?fn ?subsys ();
    r_workload = 0;
    r_outcome = outcome;
    r_retries = 0;
  }

let crash ?(cause = Outcome.Null_pointer) ?(latency = 5) ?(crash_subsys = Some "fs")
    ?(severity = Outcome.Normal) ?(dumped = true) ?(propagation = []) () =
  Outcome.Crash
    {
      cause;
      latency;
      crash_fn = Some "g";
      crash_subsys;
      dumped;
      severity;
      crash_eip = 0l;
      crash_cr2 = 0l;
      propagation;
    }

let sample_records =
  [
    mk Outcome.Not_activated;
    mk Outcome.Not_manifested;
    mk Outcome.Not_manifested;
    mk (Outcome.Fail_silence_violation ("exit code 1", Outcome.Normal));
    mk (crash ());
    mk (crash ~cause:Outcome.Paging_request ~latency:50_000 ());
    mk ~subsys:"mm" (crash ~crash_subsys:(Some "fs") ~severity:Outcome.Most_severe ());
    mk (Outcome.Hang Outcome.Severe);
  ]

let test_fig4_totals () =
  let _, total = Stats.fig4_rows sample_records in
  check int "injected" 8 total.Stats.f4_injected;
  check int "activated" 7 total.Stats.f4_activated;
  check int "not manifested" 2 total.Stats.f4_not_manifested;
  check int "fsv" 1 total.Stats.f4_fsv;
  check int "crash/hang" 4 total.Stats.f4_crash_hang

let test_outcome_pie () =
  let p = Stats.outcome_pie sample_records in
  check int "nm" 2 p.Stats.p_not_manifested;
  check int "fsv" 1 p.Stats.p_fsv;
  check int "dumped" 3 p.Stats.p_dumped_crash;
  check int "hang/unknown" 1 p.Stats.p_hang_unknown

let test_crash_causes () =
  let causes = Stats.crash_causes sample_records in
  check int "null pointer count" 2 (List.assoc "NULL pointer" causes);
  check int "paging count" 1 (List.assoc "paging request" causes)

let test_latency_buckets () =
  check int "bucket of 5" 0 (Stats.bucket_of 5);
  check int "bucket of 10" 1 (Stats.bucket_of 10);
  check int "bucket of 99" 1 (Stats.bucket_of 99);
  check int "bucket of 50000" 4 (Stats.bucket_of 50_000);
  check int "bucket of 2M" 5 (Stats.bucket_of 2_000_000);
  let h = Stats.latency_histogram sample_records in
  check int "<10 bucket" 2 h.(0);
  check int "10k-100k bucket" 1 h.(4)

let test_propagation () =
  let prop, total = Stats.propagation_rate sample_records in
  check int "total crashes" 3 total;
  check int "propagated" 1 prop;
  let t, groups = Stats.propagation sample_records ~from_subsys:"mm" in
  check int "mm crashes" 1 t;
  match groups with
  | [ ("fs", 1, _) ] -> ()
  | _ -> Alcotest.fail "expected one mm->fs propagation"

let test_most_severe () =
  check int "most severe" 1 (List.length (Stats.most_severe sample_records));
  check int "severe" 1 (List.length (Stats.severe sample_records))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_report_renders () =
  let fig4 = Kfi_analysis.Report.fig4 sample_records in
  check Alcotest.bool "fig4 header" true (contains fig4 "Figure 4");
  check Alcotest.bool "fig4 has campaign A" true (contains fig4 "Campaign A");
  let fig6 = Kfi_analysis.Report.fig6 sample_records in
  check Alcotest.bool "fig6 causes" true (contains fig6 "NULL pointer");
  let fig7 = Kfi_analysis.Report.fig7 sample_records in
  check Alcotest.bool "fig7 buckets" true (contains fig7 "10k-100k");
  let fig8 = Kfi_analysis.Report.fig8 sample_records in
  check Alcotest.bool "fig8 propagation" true (contains fig8 "propagated");
  let t5 = Kfi_analysis.Report.table5 sample_records in
  check Alcotest.bool "table5" true (contains t5 "most severe: 1")

let test_csv_roundtrip_shape () =
  let csv = Experiment.to_csv sample_records in
  let lines = String.split_on_char '\n' csv |> List.filter (fun s -> s <> "") in
  check int "header + rows" 9 (List.length lines);
  check Alcotest.bool "has crash row" true (contains csv "NULL pointer")

let suite =
  [
    Alcotest.test_case "fig4 totals" `Quick test_fig4_totals;
    Alcotest.test_case "outcome pie" `Quick test_outcome_pie;
    Alcotest.test_case "crash causes" `Quick test_crash_causes;
    Alcotest.test_case "latency buckets" `Quick test_latency_buckets;
    Alcotest.test_case "propagation" `Quick test_propagation;
    Alcotest.test_case "most severe filter" `Quick test_most_severe;
    Alcotest.test_case "report renders" `Quick test_report_renders;
    Alcotest.test_case "csv shape" `Quick test_csv_roundtrip_shape;
  ]
