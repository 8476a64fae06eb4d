#!/usr/bin/env python3
"""The study benchmark: serial, fleet and sharded campaigns A+B+C.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload study-serial --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --smoke

One run builds perfbench/trial.exe and bin/kfi_worker.exe with dune,
then starts timed trials, each a fresh trial.exe process, until
--seconds have been spent.  Every trial runs the same pinned A+B+C plan
(SUBSAMPLE) for the seed on the cached backend and checks its records
(see perfbench/trial.ml).  The run reports medians over its trials.

The host is a few cores of a shared machine whose speed drifts by tens
of percent from minute to minute, and wall or CPU throughput drifts
with it.  So every trial reads the host's speed before its set-up,
between set-up and campaigns, and after the campaigns (a fixed
interpreter-like loop, see perfbench/calib.ml), and the end-to-end
timings are stated at the reference speed REF_MOPS: a throughput is
scaled by REF_MOPS / speed and a time by speed / REF_MOPS, with speed
the mean of the two readings around what is timed.  Wall figures use the loop's speed per wall second,
CPU figures its speed per CPU second, so that time the hypervisor takes
from the core is counted where the program's own figure counts it.
The calibration loop is benchmark code, identical on both sides of any
comparison, so a change to the program moves the scaled figures exactly
as it moves the raw ones.  The raw figures and the host speed are
per-layer metrics (host.*).

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates traced and untraced trials, prints a per-outcome cost table
and the tracing overhead, and reports the per-layer metrics.  Every
run prints a line of host facts.  The last line of stdout is always
{"correct", "attempted", "failed", "metrics"}.

--smoke runs every workload at a tiny subsample: twice traced and once
untraced.  It checks that every metric of BENCHMARK.json is emitted
once with its unit, that the exact counts repeat across the two traced
runs, and that the CSV is byte-identical across the three workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

# The three workloads run one plan: campaigns A, B and C at this
# subsample.  They differ only in the execution layout.  study-fleet is
# not in BENCHMARK.json: its two domains stall each other at every
# stop-the-world minor GC, so its throughput swings with the CPU time
# the host steals from either core, and its run-to-run spread exceeded
# the bound.  It stays runnable by hand and in --smoke.
WORKLOADS = {
    "study-serial": "serial",
    "study-fleet": "fleet",
    "study-sharded": "sharded",
}
SUBSAMPLE = 90
SMOKE_SUBSAMPLE = 400
# A trial that takes longer than this is killed and the run fails.
TRIAL_TIMEOUT_S = 60
MIN_TRIALS = 3
# Host speed, in calibration Mop/s, at which end-to-end timings are
# stated.  Any fixed value serves; this is about what the 2-vCPU Xeon
# VM the benchmark was tuned on usually reads.
REF_MOPS = 50.0

# Per-layer metrics that are exact counts: they must repeat exactly
# across the traced trials of one seed.
EXACT = ("plan.targets", "isa.sim_cycles", "runner.inj_n")

OUT = ".perfbench"


def is_exact(name):
    return name in EXACT or name.endswith((".n", ".cycles"))


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench:", msg)
    sys.exit(2)


def load_spec():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    units = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        units[m["name"]] = m["unit"]
    return spec, units


def build():
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(need):
            fail(f"not a source checkout: {need} is missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/trial.exe",
         "./bin/kfi_worker.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed")
    return (os.path.abspath("_build/default/perfbench/trial.exe"),
            os.path.abspath("_build/default/bin/kfi_worker.exe"))


def source_digest():
    """A digest of the sources the benchmark measures.  The checkout is
    not always a git repository, so the git revision alone cannot name
    the code."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune", ".py")):
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def cmd_out(args):
    try:
        return subprocess.run(args, capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def host_facts(args, digest):
    rev = cmd_out(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None
    return {
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "ocaml": cmd_out(["ocamlfind", "ocamlopt", "-version"]),
            "flambda": cmd_out(["ocamlfind", "ocamlopt", "-config-var", "flambda"]),
            "git_rev": rev or None,
            "source_digest": digest,
            "backend": "cached",
            "workload": args.workload,
            "subsample": args.subsample,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }
    }


def stop_on_signal(pgid):
    """Make SIGTERM/SIGINT kill the running trial's process group (the
    trial and its kfi-workers) before this process exits."""
    def handler(signum, _frame):
        try:
            os.killpg(pgid, signal.SIGKILL)
            os.waitpid(pgid, 0)
        except OSError:
            pass
        sys.exit(128 + signum)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, handler)


def run_trial(exe, worker, layout, seed, subsample, traced, n):
    """One trial in a fresh process.  Returns its JSON result plus the
    peak resident set of its process tree."""
    d = os.path.abspath(os.path.join(OUT, f"trial-{os.getpid()}-{n}"))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    out_path = d + ".out"
    argv = [exe, "--workload", layout, "--seed", str(seed), "--subsample",
            str(subsample), "--dir", d, "--worker-exe", worker] + \
        (["--trace"] if traced else [])
    try:
        with open(out_path, "w") as out:
            p = subprocess.Popen(argv, stdout=out, start_new_session=True)
        stop_on_signal(p.pid)
        timer = threading.Timer(TRIAL_TIMEOUT_S, os.killpg, (p.pid, signal.SIGKILL))
        timer.start()
        _, status, ru = os.wait4(p.pid, 0)
        timer.cancel()
        if status == signal.SIGKILL:
            fail(f"trial killed after {TRIAL_TIMEOUT_S}s")
        if os.waitstatus_to_exitcode(status) != 0:
            fail(f"trial exited with status {status}")
        with open(out_path) as f:
            lines = f.read().strip().splitlines()
        res = json.loads(lines[-1])
        res["peak_rss_mb"] = ru.ru_maxrss / 1024.0
        return res
    finally:
        shutil.rmtree(d, ignore_errors=True)
        if os.path.exists(out_path):
            os.remove(out_path)


def csv_cross_check(digest, seed, subsample, md5):
    """The CSV for a seed must be byte-identical across the workloads:
    the first run of a seed records its digest, later runs compare."""
    d = os.path.join(OUT, "csv")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{digest}-{subsample}-{seed}.md5")
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == md5
    tmp = f"{path}.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(md5)
    os.replace(tmp, path)
    return True


def plan_seed(seed, i):
    """The bit-choice seed of trial i of a run with --seed seed."""
    return seed * 1000 + i


def median(xs):
    return statistics.median(xs)


def raw(trials):
    return {
        "inj_per_s": median([t["planned"] / t["campaign_s"] for t in trials]),
        "inj_per_cpu_s": median([t["planned"] / t["cpu_s"] for t in trials]),
        "setup_s": median([t["setup_s"] for t in trials]),
    }


def end_to_end(trials):
    return {
        "inj_per_s": median([t["planned"] / t["campaign_s"] * REF_MOPS /
                             t["campaign_mops"] for t in trials]),
        "inj_per_cpu_s": median([t["planned"] / t["cpu_s"] * REF_MOPS /
                                 t["campaign_cpu_mops"] for t in trials]),
        "setup_s": median([t["setup_s"] * t["setup_mops"] / REF_MOPS
                           for t in trials]),
        "peak_rss_mb": median([t["peak_rss_mb"] for t in trials]),
    }


def outcome_table(layers):
    classes = [k[len("runner."):-len(".n")] for k in layers
               if k.startswith("runner.") and k.endswith(".n")]
    total = sum(layers[f"runner.{c}.wall_s"] for c in classes) or 1.0
    rows = [f"{'outcome':<15} {'count':>6} {'wall_s':>9} {'cycles':>12} {'share':>7}"]
    for c in classes:
        w = layers[f"runner.{c}.wall_s"]
        rows.append(f"{c:<15} {layers[f'runner.{c}.n']:>6} {w:>9.3f} "
                    f"{layers[f'runner.{c}.cycles']:>12} {100 * w / total:>6.1f}%")
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--subsample", type=int, default=SUBSAMPLE,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")

    spec, units = load_spec()
    exe, worker = build()
    os.makedirs(OUT, exist_ok=True)
    layout = WORKLOADS[args.workload]
    digest = source_digest()
    print(json.dumps(host_facts(args, digest)), flush=True)

    # Timed trials until --seconds are spent: a new trial starts only
    # when the median trial so far still fits.  An untraced run gives
    # trial i the plan of seed plan_seed(seed, i), so a run measures
    # more distinct injections than one plan holds.  A traced run
    # repeats the plan of plan_seed(seed, 0), alternating traced and
    # untraced trials, so its exact counts must repeat and the tracing
    # overhead is measured on one plan within the run.
    start = time.monotonic()
    trials, durations = [], []
    while True:
        elapsed = time.monotonic() - start
        if len(trials) >= MIN_TRIALS * (1 + args.trace) and \
                elapsed + median(durations) > args.seconds:
            break
        i = len(trials)
        traced = args.trace == 1 and i % 2 == 0
        seed = plan_seed(args.seed, 0 if args.trace else i)
        t0 = time.monotonic()
        trials.append(run_trial(exe, worker, layout, seed, args.subsample,
                                traced, i))
        durations.append(time.monotonic() - t0)

    attempted = sum(t["planned"] for t in trials)
    failed = 0
    for t in trials:
        failed += t["missing"] + t["aborts"] + t["check_mismatches"]
        if not csv_cross_check(digest, t["seed"], args.subsample, t["csv_md5"]):
            log(f"perfbench: CSV of seed {t['seed']} differs from an earlier run")
            failed += t["planned"]
    correct = failed == 0

    untraced = [t for t in trials if not t["traced"]]
    if args.trace == 0:
        values = end_to_end(untraced)
    else:
        traced = [t for t in trials if t["traced"]]
        names = traced[0]["layers"].keys()
        values = {}
        for k in names:
            xs = [t["layers"][k] for t in traced]
            if is_exact(k):
                if len(set(xs)) != 1:
                    log(f"perfbench: exact count {k} differs across trials: {xs}")
                    correct = False
                values[k] = xs[0]
            else:
                values[k] = median(xs)
        tr = raw(traced)["inj_per_s"]
        un = raw(untraced)["inj_per_s"]
        for k, v in raw(untraced).items():
            values[f"host.{k}"] = v
        values["host.speed_mops"] = median([t["campaign_mops"] for t in trials])
        values["host.cpu_speed_mops"] = median([t["campaign_cpu_mops"]
                                                for t in trials])
        values["trace.inj_per_s"] = tr
        values["trace.untraced_inj_per_s"] = un
        values["trace.overhead_ratio"] = un / tr
        values["check.failed_frac"] = failed / attempted
        print(outcome_table(values))
        print(f"tracing overhead: traced {tr:.3f} inj/s vs untraced {un:.3f} inj/s "
              f"({100 * (un / tr - 1):+.1f}%)")

    print(json.dumps({
        "trials": [{"seed": t["seed"], "traced": t["traced"], "planned": t["planned"],
                    "checked": t["checked"], "csv_md5": t["csv_md5"],
                    "wall_s": round(d, 3), "setup_s": round(t["setup_s"], 3),
                    "inj_per_s": round(t["planned"] / t["campaign_s"], 3),
                    "campaign_mops": round(t["campaign_mops"], 2)}
                   for t, d in zip(trials, durations)]}), flush=True)
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    metrics = {}
    for m in spec[kind]:
        name = m["name"]
        if name not in values:
            fail(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def smoke():
    spec, units = load_spec()

    def run(workload, trace):
        argv = [sys.executable, __file__, "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace),
                "--subsample", str(SMOKE_SUBSAMPLE)]
        r = subprocess.run(argv, capture_output=True, text=True)
        if r.returncode != 0:
            log(r.stderr)
            fail(f"smoke: {workload} --trace {trace} exited {r.returncode}")
        lines = r.stdout.strip().splitlines()

        def no_dups(pairs):
            keys = [k for k, _ in pairs]
            if len(keys) != len(set(keys)):
                fail(f"smoke: duplicate key in {keys}")
            return dict(pairs)

        return json.loads(lines[-1], object_pairs_hook=no_dups), json.loads(lines[-2])

    digests = {}
    for workload in WORKLOADS:
        runs = [run(workload, 1), run(workload, 1), run(workload, 0)]
        for (res, detail), kind in zip(runs, ("per_layer", "per_layer", "end_to_end")):
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"smoke: {workload}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] != 0:
                fail(f"smoke: {workload}: run not correct")
            want = [m["name"] for m in spec[kind]]
            if sorted(res["metrics"]) != sorted(want):
                odd = sorted(set(want) ^ set(res["metrics"]))
                fail(f"smoke: {workload}: metrics differ from BENCHMARK.json: {odd}")
            for name, m in res["metrics"].items():
                value = m.get("value")
                if m.get("unit") != units[name] or not isinstance(value, (int, float)):
                    fail(f"smoke: {workload}: bad metric {name}: {m}")
            for t in detail["trials"]:
                digests.setdefault(t["seed"], set()).add(t["csv_md5"])
        a, b = runs[0][0]["metrics"], runs[1][0]["metrics"]
        for name in a:
            if is_exact(name):
                if a[name]["value"] != b[name]["value"]:
                    fail(f"smoke: {workload}: {name} differs across runs")
        log(f"smoke: {workload} ok")
    for seed, ds in digests.items():
        if len(ds) != 1:
            fail(f"smoke: CSV of seed {seed} differs across workloads: {sorted(ds)}")
    log("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
