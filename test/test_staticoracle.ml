(* Static-oracle tests: CFG construction and liveness on hand-assembled
   snippets, decoder totality under every possible single-bit text
   corruption, classification totality over the real campaigns, and the
   soundness of the Equivalent class against real injection runs. *)

open Kfi_isa
open Kfi_injector
module Asm = Kfi_asm.Assembler
module Cfg = Kfi_staticoracle.Cfg
module Oracle = Kfi_staticoracle.Oracle
module Callgraph = Kfi_staticoracle.Callgraph
module Summary = Kfi_staticoracle.Summary
module Slice = Kfi_staticoracle.Slice

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let build = lazy (Kfi_kernel.Build.build ())
let oracle = lazy (Oracle.create (Lazy.force build))

(* One shared runner for the slow soundness test. *)
let runner = lazy (Runner.create ())

let injectable_fns () =
  let b = Lazy.force build in
  List.filter_map
    (fun (f : Asm.fn_info) ->
      if List.mem f.Asm.f_subsys Experiment.injectable_subsystems then Some f.Asm.f_name
      else None)
    b.Kfi_kernel.Build.funcs

(* Assemble a snippet and build the CFG of one of its functions. *)
let snippet_cfg fn items =
  let r = Asm.assemble ~base:0x1000l items in
  let insns =
    List.filter_map
      (fun (i : Asm.insn_info) ->
        if i.Asm.i_fn = Some fn then
          Some
            {
              Cfg.a = Int32.add r.Asm.base (Int32.of_int i.Asm.i_off);
              len = i.Asm.i_len;
              i = i.Asm.i_insn;
            }
        else None)
      r.Asm.insns
  in
  Cfg.build ~fn insns

(* {2 CFG units} *)

let test_cfg_diamond () =
  let open Insn in
  let c =
    snippet_cfg "diamond"
      [
        Asm.Fn_start ("diamond", "test");
        Asm.Ins (Alu_rm_r (Cmp, Reg eax, ebx));
        Asm.Jcc_sym (E, "else_");
        Asm.Ins (Mov_ri (ecx, 1l));
        Asm.Jmp_sym "join";
        Asm.Label "else_";
        Asm.Ins (Mov_ri (ecx, 2l));
        Asm.Label "join";
        Asm.Ins Ret;
        Asm.Fn_end "diamond";
      ]
  in
  check int "blocks" 4 (Cfg.n_blocks c);
  check int "edges" 4 (Cfg.n_edges c);
  check int "back edges" 0 (Cfg.n_back_edges c);
  check bool "no indirect" false (Cfg.has_indirect c);
  check int "no external" 0 (Cfg.n_external c);
  (* the entry block ends in the conditional and has both successors *)
  let entry = c.Cfg.c_blocks.(0) in
  check int "entry succ count" 2 (List.length entry.Cfg.b_succ)

let test_cfg_loop () =
  let open Insn in
  let c =
    snippet_cfg "loop"
      [
        Asm.Fn_start ("loop", "test");
        Asm.Ins (Mov_ri (eax, 10l));
        Asm.Label "top";
        Asm.Ins (Dec_r eax);
        Asm.Jcc_sym (NE, "top");
        Asm.Ins Ret;
        Asm.Fn_end "loop";
      ]
  in
  check int "blocks" 3 (Cfg.n_blocks c);
  check int "back edges" 1 (Cfg.n_back_edges c)

let test_cfg_indirect_and_external () =
  let open Insn in
  let ind =
    snippet_cfg "ind"
      [
        Asm.Fn_start ("ind", "test");
        Asm.Ins (Call_rm (Reg eax));
        Asm.Ins Ret;
        Asm.Fn_end "ind";
      ]
  in
  check bool "indirect call detected" true (Cfg.has_indirect ind);
  let ext =
    snippet_cfg "f"
      [
        Asm.Fn_start ("f", "test");
        Asm.Jmp_sym "g";
        Asm.Fn_end "f";
        Asm.Fn_start ("g", "test");
        Asm.Ins Ret;
        Asm.Fn_end "g";
      ]
  in
  check int "tail jump is external" 1 (Cfg.n_external ext)

let test_liveness_dead_overwrite () =
  let open Insn in
  let c =
    snippet_cfg "dead"
      [
        Asm.Fn_start ("dead", "test");
        Asm.Ins (Mov_ri (eax, 1l));
        Asm.Ins (Mov_ri (eax, 2l));
        Asm.Ins Ret;
        Asm.Fn_end "dead";
      ]
  in
  let live = Cfg.liveness c in
  let addr_of_nth n =
    let b = c.Cfg.c_blocks.(0) in
    (List.nth b.Cfg.b_insns n).Cfg.a
  in
  (* eax is overwritten before any use: dead after the first mov *)
  check bool "eax dead after first mov" true (Cfg.is_dead live (addr_of_nth 0) Insn.eax);
  (* after the second mov, Ret is an all-live exit: eax is live *)
  check bool "eax live before ret" false (Cfg.is_dead live (addr_of_nth 1) Insn.eax)

let test_cfg_covers_all_kernel_functions () =
  (* CFG construction is total over the real kernel and accounts for
     every decoded instruction. *)
  let o = Lazy.force oracle in
  List.iter
    (fun fn ->
      let c = Oracle.fn_cfg o fn in
      let by_blocks =
        Array.fold_left (fun acc b -> acc + List.length b.Cfg.b_insns) 0 c.Cfg.c_blocks
      in
      check int (fn ^ " instruction partition") (Cfg.n_insns c) by_blocks;
      check bool (fn ^ " nonempty") true (Cfg.n_blocks c > 0))
    (injectable_fns ())

(* {2 Decoder totality under corruption} *)

let test_decode_total_under_bit_flips () =
  (* Property: for every byte of kernel text and each of its 8 bit
     flips, the decoder terminates without raising, and a successful
     decode consumes at least one byte.  This is the ground the whole
     oracle (and the injector) stands on. *)
  let b = Lazy.force build in
  let code = Bytes.copy b.Kfi_kernel.Build.asm.Asm.code in
  let n = b.Kfi_kernel.Build.text_size in
  let checked = ref 0 in
  for off = 0 to n - 1 do
    let orig = Char.code (Bytes.get code off) in
    for bit = 0 to 7 do
      Bytes.set code off (Char.chr (orig lxor (1 lsl bit)));
      (match Decode.decode_bytes code off with
      | Decode.Ok (_, len) ->
          if len < 1 then Alcotest.failf "zero-length decode at 0x%x bit %d" off bit
      | Decode.Invalid -> ());
      incr checked
    done;
    Bytes.set code off (Char.chr orig)
  done;
  check bool "flips checked" true (!checked = 8 * n)

let test_disasm_total_under_bit_flips () =
  (* The disassembler must render any corrupted window without raising
     (it is used on mutants in reports and case studies). *)
  let b = Lazy.force build in
  let code = Bytes.copy b.Kfi_kernel.Build.asm.Asm.code in
  let base = b.Kfi_kernel.Build.asm.Asm.base in
  let n = b.Kfi_kernel.Build.text_size in
  let off = ref 0 in
  while !off < n - 16 do
    let orig = Char.code (Bytes.get code !off) in
    let bit = !off mod 8 in
    Bytes.set code !off (Char.chr (orig lxor (1 lsl bit)));
    let s = Disasm.range ~base code ~off:!off ~len:16 in
    check bool "disasm nonempty" true (String.length s > 0);
    Bytes.set code !off (Char.chr orig);
    off := !off + 37
  done

(* {2 Classification} *)

let test_classify_total_and_campaign_c () =
  let b = Lazy.force build in
  let o = Lazy.force oracle in
  let fns = injectable_fns () in
  List.iter
    (fun campaign ->
      let targets = Target.enumerate b ~campaign ~seed:7 fns in
      check bool "targets nonempty" true (targets <> []);
      (* histogram is total: every target lands in exactly one class *)
      let h = Oracle.histogram o targets in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 h in
      check int "all targets classified" (List.length targets) total;
      if campaign = Target.C then
        List.iter
          (fun t ->
            match Oracle.classify o t with
            | Oracle.Cond_reversed -> ()
            | c -> Alcotest.failf "C target classified %s" (Oracle.class_name c))
          targets)
    [ Target.A; Target.B; Target.C ]

let test_classify_expected_classes () =
  let b = Lazy.force build in
  let o = Lazy.force oracle in
  let targets = Target.enumerate b ~campaign:Target.A ~seed:42 (injectable_fns ()) in
  let classes = List.map (fun t -> (t, Oracle.classify o t)) targets in
  let count p = List.length (List.filter (fun (_, c) -> p c) classes) in
  (* the opcode map is sparse: a healthy share of flips hit holes *)
  check bool "invalid opcodes found" true
    (count (function Oracle.Invalid_opcode -> true | _ -> false) > 0);
  check bool "boundary shifts found" true
    (count (function Oracle.Boundary_shift _ -> true | _ -> false) > 0);
  check bool "equivalents found" true
    (count (function Oracle.Equivalent _ -> true | _ -> false) > 0);
  check bool "dead writes found" true
    (count (function Oracle.Operand_change { dead_write = true } -> true | _ -> false) > 0);
  (* invalid-opcode mutants predict the invalid-opcode crash cause *)
  List.iter
    (fun (_, c) ->
      match c with
      | Oracle.Invalid_opcode ->
          check bool "invalid predicts trap 6" true
            (Oracle.predict c = Oracle.P_crash Outcome.Invalid_opcode)
      | _ -> ())
    classes

let test_register_targets () =
  let b = Lazy.force build in
  let o = Lazy.force oracle in
  let targets = Target.enumerate b ~campaign:Target.R ~seed:42 [ "schedule" ] in
  check bool "R targets nonempty" true (targets <> []);
  List.iter
    (fun t ->
      match Oracle.classify o t with
      | Oracle.Register_target -> ()
      | c -> Alcotest.failf "R target classified %s" (Oracle.class_name c))
    targets

(* {2 Call graph} *)

let test_callgraph_real_kernel () =
  let o = Lazy.force oracle in
  let cg = Oracle.callgraph o in
  check bool "functions found" true (Callgraph.n_fns cg > 50);
  check bool "edges found" true (Callgraph.n_edges cg > 100);
  check bool "roots found" true (Callgraph.roots cg <> []);
  (* every direct transfer in the assembled kernel resolves *)
  List.iter
    (fun fn -> check int (fn ^ " unresolved") 0 (Callgraph.unresolved cg fn))
    (Callgraph.fns cg);
  (* callee/caller duality *)
  List.iter
    (fun fn ->
      List.iter
        (fun (callee, k) ->
          check bool
            (Printf.sprintf "%s -> %s has reverse edge" fn callee)
            true
            (List.mem (fn, k) (Callgraph.callers cg callee)))
        (Callgraph.callees cg fn))
    (Callgraph.fns cg);
  (* the context switcher is recognized *)
  check bool "__switch_to switches stacks" true
    (Callgraph.is_stack_switcher cg "__switch_to");
  (* indirect calls exist (the scheduler dispatches through pointers) *)
  check bool "some function has indirect transfers" true
    (List.exists (Callgraph.has_indirect cg) (Callgraph.fns cg))

let test_callgraph_recursion_and_sccs () =
  let o = Lazy.force oracle in
  let cg = Oracle.callgraph o in
  (* the kernel has at least one call-graph cycle (e.g. do_exit <-> iput
     via error paths); every member of a multi-function SCC is
     recursive, and no singleton non-recursive function is *)
  let sccs = Callgraph.sccs cg in
  let total = List.fold_left (fun acc s -> acc + List.length s) 0 sccs in
  check int "sccs partition the functions" (Callgraph.n_fns cg) total;
  check bool "a non-trivial scc exists" true
    (List.exists (fun s -> List.length s > 1) sccs);
  List.iter
    (fun scc ->
      if List.length scc > 1 then
        List.iter
          (fun fn -> check bool (fn ^ " recursive") true (Callgraph.recursive cg fn))
          scc)
    sccs;
  (* callee-first: an edge leaving its SCC points at an earlier SCC *)
  let index = Hashtbl.create 64 in
  List.iteri (fun i scc -> List.iter (fun fn -> Hashtbl.replace index fn i) scc) sccs;
  List.iter
    (fun fn ->
      List.iter
        (fun (callee, _) ->
          let fi = Hashtbl.find index fn and ci = Hashtbl.find index callee in
          if fi <> ci then
            check bool (Printf.sprintf "%s's callee %s ordered first" fn callee)
              true (ci < fi))
        (Callgraph.callees cg fn))
    (Callgraph.fns cg);
  (* reach is a sound containment set: it contains the function itself
     and is closed under direct call edges *)
  (match Callgraph.reach cg "schedule" with
  | `Whole -> ()
  | `Set fns ->
    check bool "schedule reaches itself" true (List.mem "schedule" fns);
    List.iter
      (fun fn ->
        List.iter
          (fun (callee, _) ->
            check bool (Printf.sprintf "reach closed: %s -> %s" fn callee) true
              (List.mem callee fns))
          (Callgraph.callees cg fn))
      fns)

(* {2 Section summaries} *)

let test_summary_hash_invalidation () =
  let b = Lazy.force build in
  let o = Lazy.force oracle in
  let sums = Oracle.summaries o in
  let code = Bytes.copy b.Kfi_kernel.Build.asm.Asm.code in
  (* pristine code: nothing is stale *)
  check (Alcotest.list Alcotest.string) "pristine code, no stale entries" []
    (Summary.stale sums code);
  (* flip one bit in the middle of one function body: exactly that
     function's summary is invalidated (the FastFlip property) *)
  let f =
    List.find
      (fun (f : Asm.fn_info) -> f.Asm.f_name = "schedule")
      b.Kfi_kernel.Build.funcs
  in
  let off = f.Asm.f_off + (f.Asm.f_size / 2) in
  let orig = Char.code (Bytes.get code off) in
  Bytes.set code off (Char.chr (orig lxor 0x10));
  check (Alcotest.list Alcotest.string) "one function stale" [ "schedule" ]
    (Summary.stale sums code);
  check bool "hash changed" true
    (Summary.hash sums "schedule" <> Some (Summary.body_hash code f));
  (* restoring the byte revalidates the summary *)
  Bytes.set code off (Char.chr orig);
  check (Alcotest.list Alcotest.string) "restored code, no stale entries" []
    (Summary.stale sums code)

let test_summary_liveness_refines_intraprocedural () =
  (* interprocedural live-out is always a subset of the per-function
     answer, so interprocedural deadness is at least as strong *)
  let o = Lazy.force oracle in
  let sums = Oracle.summaries o in
  List.iter
    (fun fn ->
      let c = Oracle.fn_cfg o fn in
      let live = Oracle.fn_liveness o fn in
      Array.iter
        (fun blk ->
          List.iter
            (fun (i : Cfg.insn) ->
              let intra =
                match Hashtbl.find_opt live i.Cfg.a with
                | Some m -> m
                | None -> Cfg.all_live
              in
              let inter = Summary.live_out sums fn i.Cfg.a in
              check bool
                (Printf.sprintf "%s 0x%lx live-out subset" fn i.Cfg.a)
                true
                (inter land lnot intra = 0))
            blk.Cfg.b_insns)
        c.Cfg.c_blocks)
    (injectable_fns ())

(* {2 Slices} *)

let test_slice_terminates_on_cycles () =
  (* the taint fixpoint must terminate on every function with CFG
     cycles, and the data layer must stay inside the sound layer *)
  let b = Lazy.force build in
  let o = Lazy.force oracle in
  let loopy =
    List.filter (fun fn -> Cfg.n_back_edges (Oracle.fn_cfg o fn) > 0) (injectable_fns ())
  in
  check bool "kernel has loops" true (loopy <> []);
  let targets = Target.enumerate b ~campaign:Target.A ~seed:42 loopy in
  List.iter
    (fun (t : Target.t) ->
      let sl = Oracle.slice o t in
      check bool "slice names its function" true (sl.Slice.sl_fn = t.Target.t_fn);
      if not sl.Slice.sl_whole then begin
        check bool "sound layer nonempty" true (sl.Slice.sl_reach <> []);
        check bool "fn inside its own slice" true
          (List.mem t.Target.t_fn sl.Slice.sl_reach);
        List.iter
          (fun fn ->
            check bool (fn ^ " data layer inside sound layer") true
              (List.mem fn sl.Slice.sl_reach))
          sl.Slice.sl_data_fns
      end;
      if sl.Slice.sl_masked then begin
        check bool "masked slice has no data fns" true (sl.Slice.sl_data_fns = []);
        check bool "masked slice is not whole" false sl.Slice.sl_whole
      end)
    targets

let test_slice_kinds_follow_classes () =
  let b = Lazy.force build in
  let o = Lazy.force oracle in
  let targets = Target.enumerate b ~campaign:Target.A ~seed:42 (injectable_fns ()) in
  List.iter
    (fun t ->
      let sl = Oracle.slice o t in
      match (Oracle.classify o t, sl.Slice.sl_kind) with
      | Oracle.Equivalent _, Slice.K_masked -> ()
      | Oracle.Equivalent _, k ->
        Alcotest.failf "equivalent target sliced as %s" (Slice.kind_name k)
      | Oracle.Invalid_opcode, Slice.K_trap -> ()
      | Oracle.Invalid_opcode, k ->
        Alcotest.failf "invalid opcode sliced as %s" (Slice.kind_name k)
      | ( (Oracle.Priv_change | Oracle.Control_change | Oracle.Boundary_shift _),
          Slice.K_whole ) -> ()
      | (Oracle.Priv_change | Oracle.Control_change | Oracle.Boundary_shift _), k ->
        Alcotest.failf "control-corrupting class sliced as %s" (Slice.kind_name k)
      | _ -> ())
    targets

(* {2 Prediction agreement} *)

let test_agrees_matrix () =
  let mk_ci ?(cause = Outcome.Null_pointer) ?(fn = Some "schedule")
      ?(dumped = true) () =
    {
      Outcome.cause;
      latency = 10;
      crash_fn = fn;
      crash_subsys = Some "kernel";
      dumped;
      severity = Outcome.Normal;
      crash_eip = 0l;
      crash_cr2 = 0l;
      propagation = [];
    }
  in
  let crash = Outcome.Crash (mk_ci ()) in
  let outcomes =
    [
      ("not activated", Outcome.Not_activated);
      ("not manifested", Outcome.Not_manifested);
      ("fsv", Outcome.Fail_silence_violation ("exit", Outcome.Normal));
      ("crash", crash);
      ("hang", Outcome.Hang Outcome.Normal);
      ("abort", Outcome.Harness_abort { ha_reason = "deadline"; ha_retries = 2 });
    ]
  in
  (* expected agreement for each (prediction, outcome) pair; a harness
     abort observed nothing, so it never contradicts any prediction *)
  let expect =
    [
      (Oracle.P_not_manifested, [ true; true; false; false; false; true ]);
      (Oracle.P_crash Outcome.Null_pointer, [ true; true; false; true; false; true ]);
      (Oracle.P_crash Outcome.Divide_error, [ true; true; false; false; false; true ]);
      (Oracle.P_likely_benign, [ true; true; false; false; false; true ]);
      (Oracle.P_divergent, [ true; true; true; true; true; true ]);
    ]
  in
  List.iter
    (fun (p, row) ->
      List.iter2
        (fun (tag, o) e ->
          check bool
            (Printf.sprintf "%s vs %s" (Oracle.prediction_name p) tag)
            e (Oracle.agrees p o))
        outcomes row)
    expect;
  (* ?target tightens P_crash: a dumped crash must land in the targeted
     function *)
  let b = Lazy.force build in
  let t = List.hd (Target.enumerate b ~campaign:Target.A ~seed:42 [ "schedule" ]) in
  let p = Oracle.P_crash Outcome.Null_pointer in
  check bool "dumped crash in targeted fn agrees" true
    (Oracle.agrees ~target:t p crash);
  check bool "dumped crash elsewhere disagrees" false
    (Oracle.agrees ~target:t p (Outcome.Crash (mk_ci ~fn:(Some "sys_write") ())));
  check bool "undumped crash elsewhere tolerated" true
    (Oracle.agrees ~target:t p
       (Outcome.Crash (mk_ci ~fn:(Some "sys_write") ~dumped:false ())));
  check bool "crash with unknown fn tolerated" true
    (Oracle.agrees ~target:t p (Outcome.Crash (mk_ci ~fn:None ())))

(* {2 Interprocedural equivalences} *)

let test_interprocedural_prunes_strictly_more () =
  let b = Lazy.force build in
  let o = Lazy.force oracle in
  let intra = Oracle.create ~interprocedural:false b in
  let targets = Target.enumerate b ~campaign:Target.A ~seed:42 (injectable_fns ()) in
  let equivalents o =
    List.filter
      (fun t -> match Oracle.classify o t with Oracle.Equivalent _ -> true | _ -> false)
      targets
  in
  let ip = equivalents o and base = equivalents intra in
  (* the interprocedural upgrade may only add equivalences, never drop
     one the per-function analysis already proved *)
  List.iter
    (fun t ->
      check bool "intraprocedural equivalence kept" true
        (match Oracle.classify o t with Oracle.Equivalent _ -> true | _ -> false))
    base;
  check bool
    (Printf.sprintf "interprocedural %d > intraprocedural %d" (List.length ip)
       (List.length base))
    true
    (List.length ip > List.length base)

(* {2 Soundness (slow): proven-Equivalent targets really are benign} *)

let test_equivalent_soundness () =
  (* Every target the oracle proves Equivalent must, when actually run,
     be Not_activated or Not_manifested — never a crash, hang or fail
     silence violation.  A single counterexample is an oracle bug. *)
  let b = Lazy.force build in
  let o = Lazy.force oracle in
  let targets = Target.enumerate b ~campaign:Target.A ~seed:42 (injectable_fns ()) in
  let equivalents =
    List.filter (fun t -> match Oracle.classify o t with Oracle.Equivalent _ -> true | _ -> false) targets
  in
  check bool "have equivalents to audit" true (equivalents <> []);
  (* cap the audit: real runs are expensive *)
  let audit = List.filteri (fun i _ -> i mod 7 = 0) equivalents in
  let r = Lazy.force runner in
  let wl = Kfi_workload.Progs.index_of "fstime" in
  List.iter
    (fun (t : Target.t) ->
      match Runner.run_one r ~workload:wl t with
      | Outcome.Not_activated | Outcome.Not_manifested -> ()
      | out ->
          Alcotest.failf "proven-Equivalent target %s+0x%x bit %d manifested as %s"
            t.Target.t_fn t.Target.t_byte t.Target.t_bit (Outcome.category out))
    audit

let suite =
  [
    Alcotest.test_case "cfg diamond" `Quick test_cfg_diamond;
    Alcotest.test_case "cfg loop back edge" `Quick test_cfg_loop;
    Alcotest.test_case "cfg indirect + external" `Quick test_cfg_indirect_and_external;
    Alcotest.test_case "liveness dead overwrite" `Quick test_liveness_dead_overwrite;
    Alcotest.test_case "cfg total over kernel" `Quick test_cfg_covers_all_kernel_functions;
    Alcotest.test_case "decode total under bit flips" `Quick test_decode_total_under_bit_flips;
    Alcotest.test_case "disasm total under bit flips" `Quick test_disasm_total_under_bit_flips;
    Alcotest.test_case "classification total; C = cond reversed" `Quick
      test_classify_total_and_campaign_c;
    Alcotest.test_case "expected classes present" `Quick test_classify_expected_classes;
    Alcotest.test_case "campaign R classified" `Quick test_register_targets;
    Alcotest.test_case "callgraph over real kernel" `Quick test_callgraph_real_kernel;
    Alcotest.test_case "callgraph recursion + sccs" `Quick
      test_callgraph_recursion_and_sccs;
    Alcotest.test_case "summary hash invalidation" `Quick test_summary_hash_invalidation;
    Alcotest.test_case "summary liveness refines intraprocedural" `Quick
      test_summary_liveness_refines_intraprocedural;
    Alcotest.test_case "slice terminates on cycles" `Quick test_slice_terminates_on_cycles;
    Alcotest.test_case "slice kinds follow classes" `Quick test_slice_kinds_follow_classes;
    Alcotest.test_case "agrees prediction-outcome matrix" `Quick test_agrees_matrix;
    Alcotest.test_case "interprocedural prunes strictly more" `Quick
      test_interprocedural_prunes_strictly_more;
    Alcotest.test_case "equivalent class is sound" `Slow test_equivalent_soundness;
  ]
