(* ASCII renderings of every table and figure in the paper's evaluation. *)

open Kfi_injector
module Profiler = Kfi_profiler.Sampler

let line = String.make 78 '-'

let with_buf f =
  let b = Buffer.create 4096 in
  f b;
  Buffer.contents b

let pct = Stats.pct

let campaigns_present records =
  List.filter
    (fun c -> Stats.records_of ~campaign:c records <> [])
    [ Target.A; Target.B; Target.C; Target.R ]

(* ----- Table 1: function distribution among kernel modules ----- *)
let table1 profile ~core =
  with_buf (fun b ->
      Buffer.add_string b "Table 1: Function Distribution Among Kernel Modules\n";
      Buffer.add_string b (line ^ "\n");
      Buffer.add_string b
        (Printf.sprintf "%-10s %24s %28s\n" "Subsystem" "functions profiled"
           (Printf.sprintf "contribution to core %d" (List.length core)));
      let all = Profiler.by_function profile in
      let groups = Hashtbl.create 8 in
      List.iter
        (fun (fn, _) ->
          let s = Profiler.subsys profile fn in
          let tot, c = Option.value ~default:(0, 0) (Hashtbl.find_opt groups s) in
          let in_core = List.exists (fun (f, _) -> f = fn) core in
          Hashtbl.replace groups s (tot + 1, if in_core then c + 1 else c))
        all;
      let rows =
        Hashtbl.fold (fun s (t, c) acc -> (s, t, c) :: acc) groups []
        |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)
      in
      let tt = ref 0 and tc = ref 0 in
      List.iter
        (fun (s, t, c) ->
          tt := !tt + t;
          tc := !tc + c;
          Buffer.add_string b (Printf.sprintf "%-10s %24d %28d\n" s t c))
        rows;
      Buffer.add_string b (Printf.sprintf "%-10s %24d %28d\n" "Total" !tt !tc))

(* top-function detail (supplement to Table 1) *)
let profile_detail profile ~core =
  with_buf (fun b ->
      Buffer.add_string b "Core functions (>=95% of kernel samples):\n";
      List.iteri
        (fun i (fn, n) ->
          Buffer.add_string b
            (Printf.sprintf "  %2d. %-28s %-8s %6d samples (driven by %s)\n" (i + 1) fn
               (Profiler.subsys profile fn) n
               (List.nth Kfi_workload.Progs.names (max 0 (Profiler.best_workload profile fn)))))
        core)

(* ----- Figure 1: subsystem sizes ----- *)
let fig1 build =
  with_buf (fun b ->
      Buffer.add_string b "Figure 1: Size of Kernel Subsystems (text bytes as LoC proxy)\n";
      Buffer.add_string b (line ^ "\n");
      let sizes = Kfi_kernel.Build.subsystem_sizes build in
      let total = List.fold_left (fun a (_, n) -> a + n) 0 sizes in
      List.iter
        (fun (s, n) ->
          let bar = String.make (max 1 (n * 50 / max 1 total)) '#' in
          Buffer.add_string b (Printf.sprintf "%-8s %7d  %s\n" s n bar))
        sizes)

(* ----- Figure 4 ----- *)
let fig4_campaign records campaign =
  with_buf (fun b ->
      Buffer.add_string b
        (Printf.sprintf "Campaign %s\n" (Target.campaign_name campaign));
      Buffer.add_string b (line ^ "\n");
      Buffer.add_string b
        (Printf.sprintf "%-12s %9s %18s %16s %10s %12s\n" "Subsystem" "Injected"
           "Activated" "NotManifested" "FSV" "Crash/Hang");
      let rows, total = Stats.fig4_rows records in
      let show (r : Stats.fig4_row) =
        Buffer.add_string b
          (Printf.sprintf "%-12s %9d %10d (%4.1f%%) %9d (%4.1f%%) %4d (%4.1f%%) %6d (%4.1f%%)\n"
             (Printf.sprintf "%s[%d]" r.Stats.f4_subsys r.Stats.f4_fns)
             r.Stats.f4_injected r.Stats.f4_activated
             (pct r.Stats.f4_activated r.Stats.f4_injected)
             r.Stats.f4_not_manifested
             (pct r.Stats.f4_not_manifested r.Stats.f4_activated)
             r.Stats.f4_fsv
             (pct r.Stats.f4_fsv r.Stats.f4_activated)
             r.Stats.f4_crash_hang
             (pct r.Stats.f4_crash_hang r.Stats.f4_activated))
      in
      List.iter show rows;
      show total;
      let p = Stats.outcome_pie records in
      let act = total.Stats.f4_activated in
      Buffer.add_string b
        (Printf.sprintf
           "Pie (of activated): not manifested %.1f%% | fail silence violation %.1f%% | dumped crash %.1f%% | hang/unknown crash %.1f%%\n"
           (pct p.Stats.p_not_manifested act)
           (pct p.Stats.p_fsv act)
           (pct p.Stats.p_dumped_crash act)
           (pct p.Stats.p_hang_unknown act));
      if total.Stats.f4_aborted > 0 then
        Buffer.add_string b
          (Printf.sprintf
             "Harness aborts: %d target(s) quarantined after retries (excluded from activation)\n"
             total.Stats.f4_aborted))

let fig4 records =
  with_buf (fun b ->
      Buffer.add_string b "Figure 4: Statistics on Error Activation and Failure Distribution\n\n";
      List.iter
        (fun c ->
          Buffer.add_string b (fig4_campaign (Stats.records_of ~campaign:c records) c);
          Buffer.add_string b "\n")
        (campaigns_present records))

(* crash concentration per subsystem (paper Section 6.1) *)
let crash_concentration records =
  with_buf (fun b ->
      Buffer.add_string b "Crash concentration (top crash-causing functions per subsystem)\n";
      Buffer.add_string b (line ^ "\n");
      List.iter
        (fun (s, total, ranked) ->
          Buffer.add_string b (Printf.sprintf "%-8s (%d crashes):" s total);
          List.iteri
            (fun i (fn, n) ->
              if i < 3 then
                Buffer.add_string b
                  (Printf.sprintf "  %s %d (%.0f%%)" fn n (pct n total)))
            ranked;
          Buffer.add_string b "\n")
        (Stats.crash_concentration records))

(* ----- Figure 6: crash causes ----- *)
let fig6 records =
  with_buf (fun b ->
      Buffer.add_string b "Figure 6: Distribution of Crash Causes (dumped crashes)\n";
      Buffer.add_string b (line ^ "\n");
      List.iter
        (fun c ->
          let rs = Stats.records_of ~campaign:c records in
          let causes = Stats.crash_causes rs in
          let total = List.fold_left (fun a (_, n) -> a + n) 0 causes in
          Buffer.add_string b
            (Printf.sprintf "Campaign %s (%d dumped crashes):\n" (Target.campaign_letter c) total);
          List.iter
            (fun (name, n) ->
              Buffer.add_string b
                (Printf.sprintf "  %-22s %6d  (%5.1f%%)\n" name n (pct n total)))
            causes;
          Buffer.add_string b "\n")
        (campaigns_present records))

(* ----- Figure 7: crash latency ----- *)
let fig7 records =
  with_buf (fun b ->
      Buffer.add_string b "Figure 7: Crash Latency in CPU Cycles\n";
      Buffer.add_string b (line ^ "\n");
      List.iter
        (fun c ->
          let rs = Stats.records_of ~campaign:c records in
          Buffer.add_string b (Printf.sprintf "Campaign %s:\n" (Target.campaign_letter c));
          Buffer.add_string b (Printf.sprintf "  %-10s" "subsys");
          for i = 0 to List.length Stats.latency_buckets do
            Buffer.add_string b (Printf.sprintf " %9s" (Stats.bucket_label i))
          done;
          Buffer.add_string b "\n";
          List.iter
            (fun (s, srs) ->
              let h = Stats.latency_histogram srs in
              let total = Array.fold_left ( + ) 0 h in
              if total > 0 then begin
                Buffer.add_string b (Printf.sprintf "  %-10s" s);
                Array.iter
                  (fun n -> Buffer.add_string b (Printf.sprintf " %3d(%3.0f%%)" n (pct n total)))
                  h;
                Buffer.add_string b "\n"
              end)
            (Stats.by_subsystem rs);
          let h = Stats.latency_histogram rs in
          let total = Array.fold_left ( + ) 0 h in
          if total > 0 then begin
            Buffer.add_string b (Printf.sprintf "  %-10s" "all");
            Array.iter
              (fun n -> Buffer.add_string b (Printf.sprintf " %3d(%3.0f%%)" n (pct n total)))
              h;
            Buffer.add_string b "\n"
          end;
          Buffer.add_string b "\n")
        (campaigns_present records))

(* ----- Figure 8: error propagation ----- *)
let fig8 records =
  with_buf (fun b ->
      Buffer.add_string b "Figure 8: Error Propagation\n";
      Buffer.add_string b (line ^ "\n");
      let prop, total = Stats.propagation_rate records in
      Buffer.add_string b
        (Printf.sprintf "Overall: %d of %d crashes (%.1f%%) propagated across subsystems\n\n"
           prop total (pct prop total));
      List.iter
        (fun c ->
          let rs = Stats.records_of ~campaign:c records in
          Buffer.add_string b (Printf.sprintf "Campaign %s:\n" (Target.campaign_letter c));
          List.iter
            (fun src ->
              let total, groups = Stats.propagation rs ~from_subsys:src in
              if total > 0 then begin
                Buffer.add_string b (Printf.sprintf "  injected in %-7s (%d crashes):\n" src total);
                List.iter
                  (fun (dst, n, cs) ->
                    let causes = Hashtbl.create 4 in
                    List.iter
                      (fun (ci : Outcome.crash_info) ->
                        let k = Outcome.cause_name ci.Outcome.cause in
                        Hashtbl.replace causes k
                          (1 + Option.value ~default:0 (Hashtbl.find_opt causes k)))
                      cs;
                    let cause_str =
                      Hashtbl.fold (fun k v acc -> Printf.sprintf "%s %s:%d" acc k v) causes ""
                    in
                    Buffer.add_string b
                      (Printf.sprintf "    -> crash in %-8s %5d (%5.1f%%) %s\n" dst n
                         (pct n total) cause_str))
                  groups
              end)
            Stats.subsystems;
          Buffer.add_string b "\n")
        (campaigns_present records))

(* ----- propagation paths from the flight recorder ----- *)

(* Subsystem-level view of a (function, subsystem) path: consecutive
   same-subsystem hops merge. *)
let subsys_chain p =
  List.fold_left
    (fun acc (_, s) -> match acc with s' :: _ when s' = s -> acc | _ -> s :: acc)
    [] p
  |> List.rev

let propagation_paths records =
  with_buf (fun b ->
      Buffer.add_string b
        "Propagation paths (flight-recorder reconstruction, crashes only)\n";
      Buffer.add_string b (line ^ "\n");
      let paths =
        List.filter_map
          (fun (r : Experiment.record) ->
            match r.Experiment.r_outcome with
            | Outcome.Crash { propagation = _ :: _ as p; _ } -> Some p
            | _ -> None)
          records
      in
      if paths = [] then Buffer.add_string b "no crashes with a recorded path\n"
      else begin
        let tally = Hashtbl.create 16 in
        List.iter
          (fun p ->
            let k = String.concat " -> " (subsys_chain p) in
            Hashtbl.replace tally k
              (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)))
          paths;
        let rows =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
          |> List.sort (fun (_, a) (_, b) -> compare b a)
        in
        let total = List.length paths in
        let crossing =
          Stats.count (fun p -> List.length (subsys_chain p) > 1) paths
        in
        let hops = List.fold_left (fun a p -> a + List.length p) 0 paths in
        Buffer.add_string b
          (Printf.sprintf
             "%d crash paths, %.1f hops on average, %d (%.1f%%) crossing subsystems\n\n"
             total
             (float_of_int hops /. float_of_int total)
             crossing (pct crossing total));
        Buffer.add_string b (Printf.sprintf "%6s  %s\n" "count" "subsystem path");
        List.iter
          (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%6d  %s\n" v k))
          rows;
        let longest =
          List.sort (fun a b -> compare (List.length b) (List.length a)) paths
        in
        Buffer.add_string b "\nlongest function-level paths:\n";
        List.iteri
          (fun i p ->
            if i < 5 then
              Buffer.add_string b
                (Printf.sprintf "  %s\n" (Kfi_trace.Forensics.path_to_string p)))
          longest
      end)

(* ----- campaign telemetry ----- *)
let telemetry_summary tm =
  Kfi_trace.Telemetry.summary_to_string (Kfi_trace.Telemetry.summary tm)

(* ----- Table 5: most severe crashes ----- *)
let table5 records =
  with_buf (fun b ->
      Buffer.add_string b "Table 5: Summary of Most Severe Crashes (reformat required)\n";
      Buffer.add_string b (line ^ "\n");
      let ms = Stats.most_severe records in
      let sv = Stats.severe records in
      Buffer.add_string b
        (Printf.sprintf "most severe: %d   severe (fsck): %d\n" (List.length ms)
           (List.length sv));
      List.iteri
        (fun i r ->
          let t = r.Experiment.r_target in
          let detail =
            match r.Experiment.r_outcome with
            | Outcome.Crash c ->
              Printf.sprintf "crash: %s at %08lx" (Outcome.cause_name c.Outcome.cause)
                c.Outcome.crash_eip
            | Outcome.Hang _ -> "hang"
            | Outcome.Fail_silence_violation (why, _) -> "no crash, but " ^ why
            | _ -> ""
          in
          Buffer.add_string b
            (Printf.sprintf "%2d. campaign %s  %s: %s (+0x%x bit %d)  %s\n" (i + 1)
               (Target.campaign_letter r.Experiment.r_campaign)
               t.Target.t_subsys t.Target.t_fn t.Target.t_byte t.Target.t_bit detail))
        ms)

(* ----- oracle validation: predicted vs observed confusion matrix ----- *)

module Oracle = Kfi_staticoracle.Oracle

(* Observed category with dumped/undumped crashes merged (the oracle
   cannot predict dump success). *)
let observed_bucket = function
  | Outcome.Not_activated -> "not activated"
  | Outcome.Not_manifested -> "not manifested"
  | Outcome.Fail_silence_violation _ -> "fsv"
  | Outcome.Crash _ -> "crash"
  | Outcome.Hang _ -> "hang"
  | Outcome.Harness_abort _ -> "aborted"

let observed_buckets =
  [ "not activated"; "not manifested"; "fsv"; "crash"; "hang"; "aborted" ]

let oracle_matrix oracle records =
  with_buf (fun b ->
      Buffer.add_string b "Oracle validation: static prediction vs observed outcome\n";
      Buffer.add_string b (line ^ "\n");
      let cells = Hashtbl.create 64 in
      let bump k = Hashtbl.replace cells k (1 + Option.value ~default:0 (Hashtbl.find_opt cells k)) in
      let classified =
        List.map (fun r -> (r, Oracle.classify oracle r.Experiment.r_target)) records
      in
      List.iter
        (fun ((r : Experiment.record), cls) ->
          bump (Oracle.class_name cls, observed_bucket r.Experiment.r_outcome))
        classified;
      Buffer.add_string b (Printf.sprintf "%-22s %7s" "predicted class" "total");
      List.iter (fun c -> Buffer.add_string b (Printf.sprintf " %8s" c)) observed_buckets;
      Buffer.add_string b (Printf.sprintf " %9s\n" "disagree");
      let disagreements = ref [] in
      List.iter
        (fun cname ->
          let row =
            List.map
              (fun obs -> Option.value ~default:0 (Hashtbl.find_opt cells (cname, obs)))
              observed_buckets
          in
          let total = List.fold_left ( + ) 0 row in
          if total > 0 then begin
            let dis =
              Stats.count
                (fun ((r : Experiment.record), cls) ->
                  Oracle.class_name cls = cname
                  && not
                       (Oracle.agrees ~target:r.Experiment.r_target
                          (Oracle.predict cls) r.Experiment.r_outcome))
                classified
            in
            Buffer.add_string b (Printf.sprintf "%-22s %7d" cname total);
            List.iter (fun n -> Buffer.add_string b (Printf.sprintf " %8d" n)) row;
            Buffer.add_string b (Printf.sprintf " %9d\n" dis)
          end)
        Oracle.all_class_names;
      let claims =
        List.filter
          (fun (_, cls) -> Oracle.predict cls <> Oracle.P_divergent)
          classified
      in
      let ok =
        Stats.count
          (fun ((r : Experiment.record), cls) ->
            Oracle.agrees ~target:r.Experiment.r_target (Oracle.predict cls)
              r.Experiment.r_outcome)
          claims
      in
      List.iter
        (fun ((r : Experiment.record), cls) ->
          if
            not
              (Oracle.agrees ~target:r.Experiment.r_target (Oracle.predict cls)
                 r.Experiment.r_outcome)
          then disagreements := (r, cls) :: !disagreements)
        claims;
      Buffer.add_string b
        (if claims = [] then
           "agreement on checkable claims: none made (all predictions divergent)\n"
         else
           Printf.sprintf "agreement on checkable claims: %d/%d (%.1f%%)\n" ok
             (List.length claims)
             (pct ok (List.length claims)));
      let dis = List.rev !disagreements in
      if dis <> [] then begin
        Buffer.add_string b "disagreements:\n";
        List.iteri
          (fun i ((r : Experiment.record), cls) ->
            if i < 15 then
              let t = r.Experiment.r_target in
              Buffer.add_string b
                (Printf.sprintf "  %s %s+0x%x bit %d: %s -> predicted %s, observed %s\n"
                   (Target.campaign_letter r.Experiment.r_campaign)
                   t.Target.t_fn t.Target.t_byte t.Target.t_bit
                   (Oracle.class_detail cls)
                   (Oracle.prediction_name (Oracle.predict cls))
                   (Outcome.category r.Experiment.r_outcome)))
          dis;
        if List.length dis > 15 then
          Buffer.add_string b (Printf.sprintf "  ... and %d more\n" (List.length dis - 15))
      end)

(* ----- propagation slices: predicted vs observed paths ----- *)

module Slice = Kfi_staticoracle.Slice

(* Per-class hop containment of observed error-propagation paths inside
   the predicted slices.  Each hop of a reconstructed corruption->crash
   path is scored against the slice's two layers: inside the data slice
   (the corrupted value was predicted to flow there), inside the sound
   reach layer only, or outside both — a soundness violation. *)
let slice_matrix oracle records =
  with_buf (fun b ->
      Buffer.add_string b
        "Propagation slices: predicted slice vs observed propagation path\n";
      Buffer.add_string b (line ^ "\n");
      let per_class = Hashtbl.create 16 in
      let bump cname d r o v =
        let pd, pr, po, pp, pv =
          Option.value ~default:(0, 0, 0, 0, 0) (Hashtbl.find_opt per_class cname)
        in
        Hashtbl.replace per_class cname
          (pd + d, pr + r, po + o, pp + 1, pv + if v then 1 else 0)
      in
      let shapes = Hashtbl.create 8 in
      let n_whole = ref 0 and n_masked = ref 0 in
      let reach_sum = ref 0 and data_sum = ref 0 and n_slices = ref 0 in
      let audited = ref 0 and violating = ref 0 in
      List.iter
        (fun (r : Experiment.record) ->
          let sl = Oracle.slice oracle r.Experiment.r_target in
          incr n_slices;
          if sl.Slice.sl_whole then incr n_whole;
          if sl.Slice.sl_masked then incr n_masked;
          reach_sum := !reach_sum + List.length sl.Slice.sl_reach;
          data_sum := !data_sum + List.length sl.Slice.sl_data_fns;
          let k = Slice.kind_name sl.Slice.sl_kind in
          Hashtbl.replace shapes k
            (1 + Option.value ~default:0 (Hashtbl.find_opt shapes k));
          match r.Experiment.r_outcome with
          | Outcome.Crash ci when ci.Outcome.propagation <> [] ->
            incr audited;
            let d, ro, o = Slice.hop_confusion sl ci.Outcome.propagation in
            if o > 0 then incr violating;
            bump
              (Oracle.class_name (Oracle.classify oracle r.Experiment.r_target))
              d ro o (o > 0)
          | _ -> ())
        records;
      Buffer.add_string b
        (Printf.sprintf "%-22s %7s %9s %11s %9s %10s\n" "predicted class" "paths"
           "hops" "in-data" "reach-only" "outside");
      List.iter
        (fun cname ->
          match Hashtbl.find_opt per_class cname with
          | None -> ()
          | Some (d, ro, o, paths, _) ->
            Buffer.add_string b
              (Printf.sprintf "%-22s %7d %9d %11d %9d %10d\n" cname paths
                 (d + ro + o) d ro o))
        Oracle.all_class_names;
      Buffer.add_string b
        (Printf.sprintf
           "slice shapes over %d targets: %s; %d whole-kernel, %d masked\n"
           !n_slices
           (String.concat ", "
              (List.filter_map
                 (fun k ->
                   Option.map
                     (fun n -> Printf.sprintf "%s %d" k n)
                     (Hashtbl.find_opt shapes k))
                 [ "masked"; "trap"; "control"; "data"; "whole" ]))
           !n_whole !n_masked);
      if !n_slices > 0 then
        Buffer.add_string b
          (Printf.sprintf
             "mean slice size: %.1f functions (data layer), %.1f (sound reach layer)\n"
             (float_of_int !data_sum /. float_of_int !n_slices)
             (float_of_int !reach_sum /. float_of_int !n_slices));
      Buffer.add_string b
        (Printf.sprintf
           "slice soundness: %d observed propagation paths audited, %d with hops outside the predicted slice%s\n"
           !audited !violating
           (if !violating = 0 then " (sound)" else " (VIOLATIONS)")))

(* ----- Table 4 header ----- *)
let table4 =
  String.concat "\n"
    [
      "Table 4: Fault Injection Campaigns";
      line;
      "A - Any Random Error:          random bit in each byte of non-branch instructions";
      "B - Random Branch Error:       random bit in each byte of conditional branches";
      "C - Valid but Incorrect Branch: the bit that reverses the branch condition";
      "";
    ]

(* full report *)
let full ?oracle ?telemetry ~build ~profile ~core records =
  String.concat "\n"
    ([
       table1 profile ~core;
       profile_detail profile ~core;
       fig1 build;
       table4;
       fig4 records;
       crash_concentration records;
       fig6 records;
       fig7 records;
       fig8 records;
       propagation_paths records;
       table5 records;
     ]
    @ (match oracle with
      | Some o -> [ oracle_matrix o records; slice_matrix o records ]
      | None -> [])
    @ match telemetry with Some tm -> [ telemetry_summary tm ] | None -> [])
