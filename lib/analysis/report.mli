(** ASCII renderings of every table and figure of the paper's
    evaluation section. *)

open Kfi_injector

val table1 : Kfi_profiler.Sampler.profile -> core:(string * int) list -> string
(** Table 1: function distribution among kernel modules and the core-set
    contribution. *)

val profile_detail : Kfi_profiler.Sampler.profile -> core:(string * int) list -> string
(** The core functions with sample counts and driving workloads. *)

val fig1 : Kfi_kernel.Build.t -> string
(** Figure 1: subsystem sizes. *)

val table4 : string
(** Table 4: the campaign definitions. *)

val fig4_campaign : Experiment.record list -> Target.campaign -> string
val fig4 : Experiment.record list -> string
(** Figure 4: activation and failure distribution per campaign. *)

val crash_concentration : Experiment.record list -> string
(** The top crash-causing functions per subsystem (Section 6.1). *)

val fig6 : Experiment.record list -> string
(** Figure 6: crash-cause distribution per campaign. *)

val fig7 : Experiment.record list -> string
(** Figure 7: crash-latency histograms per subsystem per campaign. *)

val fig8 : Experiment.record list -> string
(** Figure 8: error-propagation graphs. *)

val propagation_paths : Experiment.record list -> string
(** The flight-recorder view of error propagation: subsystem-level path
    tallies, cross-subsystem rate, average hop count and the longest
    function-level corruption-site -> crash-site chains. *)

val telemetry_summary : Kfi_trace.Telemetry.t -> string
(** The campaign-telemetry aggregate block (throughput, activation rate,
    restore cost, simulated cycles). *)

val table5 : Experiment.record list -> string
(** Table 5: the most severe crashes. *)

val oracle_matrix :
  Kfi_staticoracle.Oracle.t -> Experiment.record list -> string
(** The static-oracle validation section: a predicted-class vs
    observed-outcome confusion matrix, agreement on
    checkable claims (equivalence / invalid-opcode / dead-write
    predictions) and a listing of disagreements. *)

val slice_matrix :
  Kfi_staticoracle.Oracle.t -> Experiment.record list -> string
(** The propagation-slice validation section: per predicted class, how
    the hops of observed corruption->crash paths score against the
    predicted slice (inside the data layer, inside the sound reach layer
    only, or outside — a soundness violation), slice shape statistics
    and the soundness tally. *)

val full :
  ?oracle:Kfi_staticoracle.Oracle.t ->
  ?telemetry:Kfi_trace.Telemetry.t ->
  build:Kfi_kernel.Build.t ->
  profile:Kfi_profiler.Sampler.profile ->
  core:(string * int) list ->
  Experiment.record list ->
  string
(** The whole report in paper order, with the {!propagation_paths}
    section after Figure 8; [oracle] appends the {!oracle_matrix} and
    {!slice_matrix} validations and [telemetry] the
    {!telemetry_summary} block. *)
