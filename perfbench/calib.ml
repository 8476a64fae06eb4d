(* The speed of this host right now, measured on a fixed workload.

   The benchmark runs on a few cores of a shared host whose speed drifts
   by tens of percent over minutes (neighbours on the same physical
   cores, memory bandwidth, frequency).  A throughput measured in wall
   or CPU seconds drifts with it.  [rate] times a fixed amount of work
   that does what the simulator does — an interpretive dispatch loop
   over a pseudo-random op stream, boxed int32 arithmetic, and loads and
   stores scattered over a 1 MiB memory — so that the trial can state
   its timings in reference seconds as well as host seconds.

   The memory is sized to the part of the simulator's working set that
   is hot.  On a 2-vCPU Xeon VM, the same loop scattered over 16 MiB
   slowed 2.6-fold in a busy spell in which the campaigns slowed
   1.9-fold.  At 1 MiB, the log of a trial's campaign speed follows the
   log of this reading with a slope near 1 over 50 trials.  Neither
   follows the second-to-second noise inside a trial; the median over a
   run's trials is what damps that.

   The code is part of the benchmark, not of the program, so it is the
   same on both sides of any comparison, and no change to [lib/] can
   move it. *)

let mem_bytes = 1 lsl 20
let ops = 4_000_000

(* One pass: [ops] dispatched operations.  Returns a checksum so the
   work cannot be optimised away. *)
let pass mem =
  let st = ref 0x2545F491 and acc = ref 0l and regs = Array.make 8 0l in
  let mask = mem_bytes - 4 in
  for i = 1 to ops do
    st := (!st * 1103515245 + 12345) land 0x3FFFFFFF;
    let a = (!st lsr 2) land mask land lnot 3 and r = !st land 7 in
    match (!st lsr 27) land 7 with
    | 0 -> Bytes.set_int32_le mem a (Int32.add !acc regs.(r))
    | 1 | 2 -> regs.(r) <- Int32.logxor regs.(r) (Bytes.get_int32_le mem a)
    | 3 -> regs.(r) <- Int32.add regs.(r) (Int32.of_int i)
    | 4 -> acc := Int32.mul !acc (Int32.logor regs.(r) 1l)
    | 5 -> regs.(r) <- Int32.shift_right_logical !acc (r + 1)
    | 6 -> acc := Int32.sub !acc (Bytes.get_int32_le mem (a land 0xFFFC))
    | _ -> if Int32.compare regs.(r) !acc < 0 then acc := Int32.neg !acc
  done;
  Int32.to_int !acc + Array.fold_left (fun s x -> s + Int32.to_int x) 0 regs

let sink = ref 0

(* Millions of operations per wall second and per CPU second, each the
   median of three timed passes: the median drops a pass that the
   scheduler interrupted.  The two differ when the hypervisor or another
   process takes the core: wall time counts that, CPU time does not. *)
let rate () =
  let n = 3 in
  let mem = Bytes.make mem_bytes '\000' in
  let passes =
    List.init n (fun _ ->
        let t0 = Unix.gettimeofday () and c0 = Sys.time () in
        sink := !sink lxor pass mem;
        (Unix.gettimeofday () -. t0, Sys.time () -. c0))
  in
  let mops get =
    let xs = List.sort compare (List.map get passes) in
    float ops /. 1e6 /. List.nth xs (n / 2)
  in
  (mops fst, mops snd)
