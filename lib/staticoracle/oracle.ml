(* The static mutation oracle (FastFlip-style pre-classification).

   For every text injection target the oracle decodes the *mutated* byte
   stream in place and predicts the outcome class without booting the
   machine.  The classification is layered:

   - [Equivalent]: the flip provably cannot change behavior — either the
     mutated bytes decode to the identical instruction (a don't-care bit,
     e.g. the SIB scale with no index), a same-register direction flip
     (add %eax,%eax <-> add %eax,%eax), or a pure register instruction
     whose every destination (including flags) is dead in the CFG
     liveness.  Every instruction except disk DMA costs one cycle, so a
     same-length pure substitution also preserves timing, interrupt
     arrival and scheduling; an [Equivalent] target is therefore
     predicted [Not_manifested] exactly (the fuzz property
     oracle.equivalent_sound re-runs them to hold it to that).
   - [Invalid_opcode]: the mutant lands in an opcode hole (or on ud2);
     activation must trap with the paper's "invalid opcode" crash cause.
   - [Cond_reversed]: campaign C's bit — same branch, reversed sense.
   - [Priv_change]: the flip turns a plain instruction into a
     privileged/system one (cli/sti/hlt/in/out/mov-cr/iret/disk DMA).
   - [Control_change]: control flow appears, disappears or retargets.
   - [Boundary_shift]: the mutant has a different length, so the
     instruction stream de-synchronizes; a resynchronization walk over
     the rest of the function (the paper's Table 6/7 case-study
     mechanics) records whether the shifted stream realigns, hits an
     undecodable hole or crosses a control transfer first.
   - [Operand_change]: same shape, different data flow; the liveness
     analysis flags mutants that only write dead registers (and no
     memory) as likely benign. *)

open Kfi_isa
module Asm = Kfi_asm.Assembler
module Build = Kfi_kernel.Build
module Target = Kfi_injector.Target
module Outcome = Kfi_injector.Outcome

type resync = {
  rs_mut_len : int;        (* length of the mutated first instruction *)
  rs_resync : int option;  (* bytes past the target where streams realign *)
  rs_invalid : bool;       (* undecodable hole before realigning *)
  rs_control : bool;       (* control transfer in the shifted stream *)
}

type clazz =
  | Equivalent of string
  | Invalid_opcode
  | Cond_reversed
  | Priv_change
  | Control_change
  | Boundary_shift of resync
  | Operand_change of { dead_write : bool }
  | Register_target

type prediction =
  | P_not_manifested
  | P_crash of Outcome.crash_cause
  | P_likely_benign
  | P_divergent

type ip = { ip_cg : Callgraph.t; ip_sums : Summary.table }

type t = {
  build : Build.t;
  code : bytes;  (* private copy of the image, mutated and restored in place *)
  base : int;
  cfgs : (string, Cfg.t) Hashtbl.t;
  live : (string, (int32, int) Hashtbl.t) Hashtbl.t;
  interprocedural : bool;
  mutable ip : ip option;  (* call graph + summaries, built on demand *)
}

let create ?(interprocedural = true) build =
  {
    build;
    code = Bytes.copy build.Build.asm.Asm.code;
    base = Kfi_kernel.Layout.kernel_text_base;
    cfgs = Hashtbl.create 64;
    live = Hashtbl.create 64;
    interprocedural;
    ip = None;
  }

let fn_cfg t fn =
  match Hashtbl.find_opt t.cfgs fn with
  | Some c -> c
  | None ->
    let insns =
      Target.fn_insns t.build fn
      |> List.map (fun (i : Asm.insn_info) ->
             {
               Cfg.a = Int32.of_int (t.base + i.Asm.i_off);
               len = i.Asm.i_len;
               i = i.Asm.i_insn;
             })
    in
    let c = Cfg.build ~fn insns in
    Hashtbl.replace t.cfgs fn c;
    c

let fn_liveness t fn =
  match Hashtbl.find_opt t.live fn with
  | Some l -> l
  | None ->
    let l = Cfg.liveness (fn_cfg t fn) in
    Hashtbl.replace t.live fn l;
    l

(* Call graph and section summaries, built once on first use (an eager
   whole-kernel pass, then cached; a kernel rebuild invalidates per
   function through the summary hashes, see [Summary.stale]). *)
let force_ip t =
  match t.ip with
  | Some s -> s
  | None ->
    let cg = Callgraph.build t.build in
    let sums = Summary.compute t.build ~cfg_of:(fn_cfg t) cg in
    let s = { ip_cg = cg; ip_sums = sums } in
    t.ip <- Some s;
    s

let callgraph t = (force_ip t).ip_cg
let summaries t = (force_ip t).ip_sums
let interprocedural t = t.interprocedural

(* Deadness at the classification point: interprocedurally refined when
   enabled, plain CFG liveness otherwise.  The refined answer is always
   a subset of the intraprocedural one, so "dead" only grows. *)
let dead_after t fn addr r =
  if t.interprocedural then Summary.is_dead (summaries t) fn addr r
  else Cfg.is_dead (fn_liveness t fn) addr r

(* ----- instruction predicates ----- *)

let is_priv (i : Insn.t) =
  match i with
  | Insn.Cli | Insn.Sti | Insn.Hlt | Insn.In_al | Insn.Out_al
  | Insn.Mov_cr_r _ | Insn.Mov_r_cr _ | Insn.Iret | Insn.Lret
  | Insn.Int_ _ | Insn.Int3 | Insn.Diskrd | Insn.Diskwr -> true
  | _ -> false

let writes_mem (i : Insn.t) =
  let open Insn in
  match i with
  | Mov_rm_r (Mem _, _) | Mov_rm_i (Mem _, _) | Movb_rm_r (Mem _, _)
  | Alu_rm_r ((Add | Or | And | Sub | Xor), Mem _, _)
  | Alu_rm_i ((Add | Or | And | Sub | Xor), Mem _, _)
  | Alu_rm_i8 ((Add | Or | And | Sub | Xor), Mem _, _)
  | Not_rm (Mem _) | Neg_rm (Mem _)
  | Shift_i (_, Mem _, _) | Shift_cl (_, Mem _) | Shrd (Mem _, _, _)
  | Inc_rm (Mem _) | Dec_rm (Mem _)
  | Push_r _ | Push_i _ | Push_i8 _ | Push_rm _ | Pusha
  | Call _ | Call_rm _ | Int_ _ | Int3 | Diskwr -> true
  | _ -> false

(* Pure register instructions: no memory access, no control transfer, no
   privileged side effect, cannot fault, and (like everything but disk
   DMA) cost exactly one cycle.  Substituting one pure instruction for
   another whose destinations are all dead is invisible to the rest of
   the run.  Div is excluded (divide-by-zero faults); memory operands
   are excluded (loads and stores can page-fault). *)
let is_pure (i : Insn.t) =
  let open Insn in
  match i with
  | Nop | Mov_ri _ | Cdq | Rdtsc
  | Mov_rm_r (Reg _, _) | Mov_r_rm (_, Reg _) | Mov_rm_i (Reg _, _)
  | Movb_rm_r (Reg _, _) | Movb_r_rm (_, Reg _) | Movzbl (_, Reg _)
  | Inc_r _ | Dec_r _ | Inc_rm (Reg _) | Dec_rm (Reg _)
  | Alu_rm_r (_, Reg _, _) | Alu_r_rm (_, _, Reg _) | Alu_eax_i _
  | Alu_rm_i (_, Reg _, _) | Alu_rm_i8 (_, Reg _, _)
  | Test_rm_r (Reg _, _) | Not_rm (Reg _) | Neg_rm (Reg _)
  | Mul_rm (Reg _) | Imul_r_rm (_, Reg _)
  | Shift_i (_, Reg _, _) | Shift_cl (_, Reg _) | Shrd (Reg _, _, _)
  | Lea _ -> true (* lea computes an address but never dereferences it *)
  | _ -> false

(* Same-register direction flips: with a register r/m operand the 01<->03
   (and 89<->8B, 88<->8A) opcode-direction bit swaps source and
   destination, which is a no-op when both are the same register. *)
let same_reg_direction_flip (a : Insn.t) (b : Insn.t) =
  let open Insn in
  match (a, b) with
  | Alu_rm_r (op, Reg d, r), Alu_r_rm (op', r', Reg d')
  | Alu_r_rm (op', r', Reg d'), Alu_rm_r (op, Reg d, r) ->
    op = op' && d = d' && r = r' && d = r
  | Mov_rm_r (Reg d, r), Mov_r_rm (r', Reg d')
  | Mov_r_rm (r', Reg d'), Mov_rm_r (Reg d, r) ->
    d = d' && r = r' && d = r
  | Movb_rm_r (Reg d, r), Movb_r_rm (r', Reg d')
  | Movb_r_rm (r', Reg d'), Movb_rm_r (Reg d, r) ->
    d = d' && r = r' && d = r
  | _ -> false

(* Mutations that only swap the destination register: the flip landed in
   the reg field of the ModRM (or the low bits of the opcode), leaving
   the operation and every other operand intact.  The two instructions
   have identical cost, identical memory reads (hence identical faulting
   behaviour) and no memory writes; they differ only in which register
   receives the result (and which keeps its stale value).  If every
   register either instruction defines — flags included — is dead along
   all interprocedural paths, the substitution is provably invisible. *)
let same_shape_modulo_dest (a : Insn.t) (b : Insn.t) =
  let open Insn in
  match (a, b) with
  | Mov_r_rm (_, rm), Mov_r_rm (_, rm')
  | Movb_r_rm (_, rm), Movb_r_rm (_, rm')
  | Movzbl (_, rm), Movzbl (_, rm')
  | Imul_r_rm (_, rm), Imul_r_rm (_, rm') -> rm = rm'
  | Mov_ri (_, i), Mov_ri (_, i') -> i = i'
  | Lea (_, m), Lea (_, m') -> m = m'
  | Pop_r _, Pop_r _ -> true
  | Inc_r _, Inc_r _ | Dec_r _, Dec_r _ -> true
  | _ -> false

let reversed_cond (a : Insn.t) (b : Insn.t) =
  let open Insn in
  match (a, b) with
  | Jcc (c, rel), Jcc (c', rel') | Jcc8 (c, rel), Jcc8 (c', rel') ->
    rel = rel' && cond_code c' = cond_code c lxor 1
  | _ -> false

(* ----- the resynchronization walk (boundary-shifted streams) ----- *)

(* After a length-changing mutation execution continues at [start],
   de-synchronized from the original instruction boundaries.  Decode the
   (original) bytes from there until the stream realigns with a boundary
   recorded in the CFG, hits an undecodable hole, or crosses a control
   transfer. *)
let resync_walk t cfg ~target_addr ~mut_len =
  let rec walk addr invalid control =
    if Int32.unsigned_compare addr cfg.Cfg.c_hi >= 0 then (None, invalid, control)
    else if Cfg.find_insn cfg addr <> None then
      (Some (Int32.to_int (Int32.sub addr target_addr)), invalid, control)
    else
      let off = Int32.to_int addr land 0xFFFFFFFF - t.base in
      match Decode.decode_bytes t.code off with
      | Decode.Invalid -> (None, true, control)
      | Decode.Ok (i, _) when i = Insn.Ud2 -> (None, true, control)
      | Decode.Ok (i, len) ->
        if Insn.is_control_flow i then (None, invalid, true)
        else walk (Int32.add addr (Int32.of_int len)) invalid control
  in
  let start = Int32.add target_addr (Int32.of_int mut_len) in
  let rs_resync, rs_invalid, rs_control = walk start false false in
  { rs_mut_len = mut_len; rs_resync; rs_invalid; rs_control }

(* ----- classification ----- *)

let classify t (tg : Target.t) =
  match tg.Target.t_kind with
  | Target.Register -> Register_target
  | Target.Text ->
    let off = (Int32.to_int tg.Target.t_addr land 0xFFFFFFFF) - t.base in
    let pos = off + tg.Target.t_byte in
    let orig_byte = Char.code (Bytes.get t.code pos) in
    Bytes.set t.code pos (Char.chr (orig_byte lxor (1 lsl tg.Target.t_bit)));
    let mutated = Decode.decode_bytes t.code off in
    let orig = tg.Target.t_insn and olen = tg.Target.t_len in
    let result =
      match mutated with
      | Decode.Invalid -> Invalid_opcode
      | Decode.Ok (Insn.Ud2, _) -> Invalid_opcode
      | Decode.Ok (mi, mlen) ->
        if mlen <> olen then
          Boundary_shift
            (resync_walk t (fn_cfg t tg.Target.t_fn) ~target_addr:tg.Target.t_addr
               ~mut_len:mlen)
        else if mi = orig then Equivalent "identical decode (don't-care bit)"
        else if reversed_cond orig mi then Cond_reversed
        else if is_priv mi && not (is_priv orig) then Priv_change
        else if Insn.is_control_flow mi || Insn.is_control_flow orig then
          Control_change
        else if same_reg_direction_flip orig mi then
          Equivalent "same-register direction flip"
        else begin
          let dead_defs i =
            let defs, _ = Cfg.defs_uses i in
            List.for_all (fun r -> dead_after t tg.Target.t_fn tg.Target.t_addr r) defs
          in
          if is_pure orig && is_pure mi && dead_defs orig && dead_defs mi then
            Equivalent "pure instruction, all destinations dead"
          else if
            t.interprocedural && same_shape_modulo_dest orig mi
            && dead_defs orig && dead_defs mi
          then
            Equivalent "destination dead along all interprocedural paths"
          else
            Operand_change
              {
                dead_write =
                  (not (is_priv orig)) && (not (writes_mem mi)) && dead_defs mi;
              }
        end
    in
    Bytes.set t.code pos (Char.chr orig_byte);
    result

(* ----- propagation slices ----- *)

let slice_env t =
  let s = force_ip t in
  { Slice.sl_cg = s.ip_cg; Slice.sl_sums = s.ip_sums; Slice.sl_cfg_of = fn_cfg t }

(* How a class can manifest, for the slicer.  [Priv_change],
   [Control_change] and [Boundary_shift] can corrupt control flow itself
   (wild iret / retarget / arbitrary shifted stream), so they get no
   smaller containment than the whole kernel; register targets corrupt a
   live register chosen at run time, same story. *)
let slice_kind = function
  | Equivalent _ -> Slice.K_masked
  | Invalid_opcode -> Slice.K_trap
  | Cond_reversed -> Slice.K_control
  | Priv_change | Control_change | Boundary_shift _ | Register_target ->
    Slice.K_whole
  | Operand_change _ -> Slice.K_data

let slice t (tg : Target.t) =
  let env = slice_env t in
  let fn = tg.Target.t_fn in
  let compute = Slice.compute env ~fn ~addr:tg.Target.t_addr in
  match tg.Target.t_kind with
  | Target.Register -> compute ~seed_regs:0 ~seed_mem:0 ~kind:Slice.K_whole
  | Target.Text -> (
    match slice_kind (classify t tg) with
    | Slice.K_data -> (
      (* re-decode the mutant for the taint seed *)
      let off = (Int32.to_int tg.Target.t_addr land 0xFFFFFFFF) - t.base in
      let pos = off + tg.Target.t_byte in
      let orig_byte = Char.code (Bytes.get t.code pos) in
      Bytes.set t.code pos (Char.chr (orig_byte lxor (1 lsl tg.Target.t_bit)));
      let mutated = Decode.decode_bytes t.code off in
      Bytes.set t.code pos (Char.chr orig_byte);
      match mutated with
      | Decode.Invalid -> compute ~seed_regs:0 ~seed_mem:0 ~kind:Slice.K_trap
      | Decode.Ok (mi, _) -> (
        let orig = tg.Target.t_insn in
        let mask_of = List.fold_left (fun m r -> m lor (1 lsl r)) 0 in
        let defs_o, _ = Cfg.defs_uses orig and defs_m, _ = Cfg.defs_uses mi in
        let seed_regs = mask_of defs_o lor mask_of defs_m in
        match (Slice.store_operand orig, Slice.store_operand mi) with
        | Some m, Some m' when m = m' ->
          (* same address, wrong value: the write stays inside the
             golden run's write set *)
          compute ~seed_regs ~seed_mem:(Slice.mem_class m) ~kind:Slice.K_data
        | Some m, None ->
          (* the store is lost: its location keeps a stale value *)
          compute ~seed_regs ~seed_mem:(Slice.mem_class m) ~kind:Slice.K_data
        | None, None -> compute ~seed_regs ~seed_mem:0 ~kind:Slice.K_data
        | _ ->
          (* the mutant stores to a statically different address: the
             write can land on anything, including control-feeding
             slots — no golden-write-set argument applies *)
          compute ~seed_regs:0 ~seed_mem:0 ~kind:Slice.K_whole))
    | k -> compute ~seed_regs:0 ~seed_mem:0 ~kind:k)

(* ----- prediction ----- *)

let predict = function
  | Equivalent _ -> P_not_manifested
  | Invalid_opcode -> P_crash Outcome.Invalid_opcode
  | Boundary_shift r when r.rs_invalid && not r.rs_control ->
    P_crash Outcome.Invalid_opcode
  | Operand_change { dead_write = true } -> P_likely_benign
  | Cond_reversed | Priv_change | Control_change | Boundary_shift _
  | Operand_change _ | Register_target -> P_divergent

(* Does an observed outcome contradict the prediction?  [P_crash] only
   claims the crash cause *if the error activates and crashes* (a flip
   that is never reached, or whose invalid instruction is reached on a
   never-taken path, stays benign); [P_divergent] claims nothing, and a
   [Harness_abort] observed nothing about the kernel so it can never
   contradict any claim.  With [?target], a [P_crash] agreement is
   tightened: the predicted trap fires at the mutated instruction, so a
   dumped crash must place the crash eip in the targeted function — a
   same-cause crash somewhere unrelated no longer counts as agreement. *)
let agrees ?target p (o : Outcome.t) =
  match (p, o) with
  | _, Outcome.Harness_abort _ -> true
  | P_not_manifested, (Outcome.Not_activated | Outcome.Not_manifested) -> true
  | P_not_manifested, _ -> false
  | P_crash _, (Outcome.Not_activated | Outcome.Not_manifested) -> true
  | P_crash c, Outcome.Crash ci ->
    ci.Outcome.cause = c
    && (match (target, ci.Outcome.crash_fn) with
       | Some tg, Some f when ci.Outcome.dumped -> f = tg.Target.t_fn
       | _ -> true)
  | P_crash _, _ -> false
  | P_likely_benign, (Outcome.Not_activated | Outcome.Not_manifested) -> true
  | P_likely_benign, _ -> false
  | P_divergent, _ -> true

let class_name = function
  | Equivalent _ -> "equivalent"
  | Invalid_opcode -> "invalid opcode"
  | Cond_reversed -> "cond reversed"
  | Priv_change -> "priv change"
  | Control_change -> "control change"
  | Boundary_shift _ -> "boundary shift"
  | Operand_change { dead_write = true } -> "operand change (dead)"
  | Operand_change _ -> "operand change"
  | Register_target -> "register target"

let class_detail = function
  | Equivalent why -> "equivalent: " ^ why
  | Boundary_shift r ->
    Printf.sprintf "boundary shift: mutant %dB, %s%s%s" r.rs_mut_len
      (match r.rs_resync with
       | Some n -> Printf.sprintf "resyncs after %dB" n
       | None -> "never resyncs")
      (if r.rs_invalid then ", hits opcode hole" else "")
      (if r.rs_control then ", crosses control flow" else "")
  | c -> class_name c

let prediction_name = function
  | P_not_manifested -> "not manifested"
  | P_crash c -> "crash: " ^ Outcome.cause_name c
  | P_likely_benign -> "likely benign"
  | P_divergent -> "divergent"

let all_class_names =
  [
    "equivalent"; "invalid opcode"; "cond reversed"; "priv change";
    "control change"; "boundary shift"; "operand change (dead)";
    "operand change"; "register target";
  ]

let histogram t targets =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun tg ->
      let k = class_name (classify t tg) in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    targets;
  List.filter_map
    (fun k -> Option.map (fun n -> (k, n)) (Hashtbl.find_opt tbl k))
    all_class_names
