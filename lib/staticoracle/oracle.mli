(** The static mutation oracle: FastFlip-style pre-classification of
    every injection target by decoding the mutated byte stream in place,
    without booting the machine.

    An analysis tool: campaigns never consult it (every target runs).
    The oracle predicts an outcome class per target; the [Equivalent]
    class is {e sound} (the flip provably cannot change behavior, value
    or timing).  All classes are validated against real runs by the
    confusion and slice matrices in [Kfi_analysis.Report]. *)

open Kfi_isa
open Kfi_injector

(** Result of the resynchronization walk after a length-changing
    mutation (the paper's Table 6/7 boundary-shift case studies). *)
type resync = {
  rs_mut_len : int;        (** length of the mutated first instruction *)
  rs_resync : int option;  (** bytes past the target where the shifted
                               stream realigns with an original
                               instruction boundary, if it ever does *)
  rs_invalid : bool;       (** hits an undecodable hole first *)
  rs_control : bool;       (** crosses a control transfer first *)
}

type clazz =
  | Equivalent of string   (** provably benign; the payload says why *)
  | Invalid_opcode         (** mutant is undecodable or ud2 *)
  | Cond_reversed          (** campaign C's bit: same branch, reversed *)
  | Priv_change            (** mutant is privileged / io / system *)
  | Control_change         (** control flow added, removed or retargeted *)
  | Boundary_shift of resync (** mutant length differs: stream shifts *)
  | Operand_change of { dead_write : bool }
      (** same shape, different data flow; [dead_write] flags mutants
          that only write dead registers (likely benign, not provable) *)
  | Register_target        (** campaign R targets are not text mutations *)

type prediction =
  | P_not_manifested       (** sound: cannot manifest *)
  | P_crash of Outcome.crash_cause
      (** expected crash cause, {e if} the error activates and crashes *)
  | P_likely_benign
  | P_divergent            (** no claim *)

type t

val create : ?interprocedural:bool -> Kfi_kernel.Build.t -> t
(** An oracle over the assembled kernel.  CFGs and liveness are computed
    per function on demand and cached.  With [interprocedural] (the
    default), deadness queries use the whole-kernel call graph and
    section summaries — strictly more targets classify as [Equivalent];
    [~interprocedural:false] reproduces the per-function baseline. *)

val fn_cfg : t -> string -> Cfg.t
val fn_liveness : t -> string -> (int32, int) Hashtbl.t

val callgraph : t -> Callgraph.t
(** The whole-kernel call graph (built and cached on first use). *)

val summaries : t -> Summary.table
(** Per-function section summaries (built and cached on first use). *)

val interprocedural : t -> bool

val classify : t -> Target.t -> clazz
(** Classify one target by decoding its mutated bytes.  Total: every
    campaign A/B/C/R target gets a class. *)

val predict : clazz -> prediction

val agrees : ?target:Target.t -> prediction -> Outcome.t -> bool
(** Whether an observed outcome is consistent with a prediction
    ([P_divergent] claims nothing; [P_crash] is conditional on the error
    activating; a [Harness_abort] observed nothing and never
    contradicts).  [?target] tightens [P_crash]: a dumped crash must
    place its eip in the targeted function. *)

val slice_kind : clazz -> Slice.kind
(** How a class can manifest, for the slicer: classes that can corrupt
    control flow itself map to [K_whole]. *)

val slice_env : t -> Slice.env
val slice : t -> Target.t -> Slice.t
(** The predicted propagation slice of one target: classify, derive the
    taint seed from the original and mutated instructions' defs (and
    store operand, if any), and run {!Slice.compute}.  A mutant that
    stores to a statically different address than the original
    escalates to a whole-kernel slice. *)

val is_pure : Insn.t -> bool
(** No memory access, no control transfer, no privileged effect, cannot
    fault, single-cycle.  Exposed for tests. *)

val writes_mem : Insn.t -> bool

val class_name : clazz -> string

val class_detail : clazz -> string
(** Like {!class_name} but with resync / equivalence detail. *)

val prediction_name : prediction -> string
val all_class_names : string list

val histogram : t -> Target.t list -> (string * int) list
(** Class-name counts over a target list, in {!all_class_names} order. *)
