#!/usr/bin/env python3
"""gpulp benchmark: one command, four workloads, host and simulated metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

Builds perfbench/perfbench.cc (with the gpulp libraries from the
enclosing checkout) into .bench_build/perfbench, runs one workload in
its own process, checks its outputs and prints every metric by name and
unit. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
run is split into an untraced and a traced half and the metrics are the
per-layer ones, derived from the trace spans (see perfbench/README.md).
Exits 1 when an output check fails and 2 on a usage or build error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")

WORKLOADS = ("suite", "suite-parallel", "kv-zipf", "crash-sweep")
KERNELS = ("tmm", "tpacf", "mri-gridding", "spmv", "sad", "histo", "cutcp",
           "mri-q")
MODELS = ("lazy", "eager", "strict", "epoch-block", "epoch-kernel")
RUN_TIMEOUT_S = 170

# (name, unit, better, kind). kind "host" is time the simulator takes;
# "sim" is what the modelled GPU/NVM would take or do, and must be
# bit-identical for a fixed seed and across worker counts.
END_TO_END = [
    ("setup_s", "s", "lower", "host"),
    ("peak_rss_mib", "MiB", "lower", "host"),
    ("sim_blocks_per_s", "1/s", "higher", "host"),
]

PER_LAYER = (
    [("workloads.setup_s", "s", "lower", "host")]
    + [(f"workloads.{k}.{run}_s", "s", "lower", "host")
       for k in KERNELS for run in ("baseline", "lp")]
    + [
        ("sim.baseline_launch_s", "s", "lower", "host"),
        ("sim.switches_per_block", "count", "lower", "host"),
        ("sim.host_ns_per_switch", "ns", "lower", "host"),
        ("sim.worker_busy_ratio", "ratio", "higher", "host"),
        ("sim.gate_waits_per_block", "count", "lower", "host"),
        ("sim.blocks", "count", "lower", "sim"),
        ("sim.fiber_switches", "count", "lower", "host"),
        ("sim.barrier_waits", "count", "lower", "sim"),
        ("sim.shuffles", "count", "lower", "sim"),
        ("sim.gate_waits", "count", "lower", "host"),
        ("mem.global_accesses", "count", "lower", "sim"),
        ("mem.host_ns_per_access", "ns", "lower", "host"),
        ("mem.atomic_wait_cycles", "cycles", "lower", "sim"),
        ("core.lp_launch_s", "s", "lower", "host"),
        ("core.lp_host_overhead", "ratio", "lower", "host"),
        ("core.shuffles_per_commit", "count", "lower", "sim"),
        ("core.store_collisions_per_insert", "ratio", "lower", "sim"),
        ("recovery.validate_s", "s", "lower", "host"),
        ("recovery.recover_s", "s", "lower", "host"),
        ("recovery.persist_recover_s", "s", "lower", "host"),
        ("recovery.rounds_per_trial", "count", "lower", "sim"),
        ("recovery.reexec_blocks_per_trial", "count", "lower", "sim"),
        ("recovery.useful_reexec_ratio", "ratio", "higher", "sim"),
    ]
    + [(f"harness.model_s.{m}", "s", "lower", "host") for m in MODELS]
    + [
        ("nvm.store_hit_ratio", "ratio", "higher", "sim"),
        ("nvm.load_hit_ratio", "ratio", "higher", "sim"),
        ("nvm.dirty_evictions_per_kreq", "count", "lower", "sim"),
        ("nvm.persist_all_s", "s", "lower", "host"),
        ("nvm.torn_lines_per_trial", "count", "lower", "sim"),
        ("service.serve_s", "s", "lower", "host"),
        ("service.self_s", "s", "lower", "host"),
        ("service.coalesce_ratio", "ratio", "higher", "sim"),
        ("service.insert_drop_ratio", "ratio", "lower", "sim"),
        ("obs.trace_overhead", "ratio", "lower", "host"),
        ("obs.layer_coverage", "ratio", "higher", "host"),
        # Workload outcomes: one workload each, 0 on the others.
        ("lp_overhead_gmean", "ratio", "lower", "sim"),
        ("paper_err_pp", "pp", "lower", "sim"),
        ("kv_req_per_s", "1/s", "higher", "host"),
        ("kv_lat_p50_cycles", "cycles", "lower", "sim"),
        ("kv_lat_p999_cycles", "cycles", "lower", "sim"),
        ("kv_sim_req_per_kcycle", "1/kcycle", "higher", "sim"),
        ("crash_trials_per_s", "1/s", "higher", "host"),
        ("recovery_kcycles_p50", "kcycles", "lower", "sim"),
        ("recovery_kcycles_p95", "kcycles", "lower", "sim"),
    ]
)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary; return False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"perfbench: {ROOT} is not a gpulp checkout (no src/)")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return True


def run_binary(workload, seed, seconds, trace_path):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if trace_path:
        cmd += ["--trace", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"perfbench binary did not finish within {RUN_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"perfbench binary exited with code {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


# --------------------------------------------------------------------------
# Trace analysis: a span's self time is its duration minus its children's.

class Span:
    __slots__ = ("key", "arg", "ts", "dur", "tid", "parent", "child_us")

    def __init__(self, ev):
        self.key = f"{ev['cat']}/{ev['name']}"
        self.arg = next((v for k, v in ev.items() if k not in (
            "ts_us", "dur_us", "tid", "name", "cat")), None)
        self.ts = ev["ts_us"]
        self.dur = ev["dur_us"]
        self.tid = ev["tid"]
        self.parent = None
        self.child_us = 0

    @property
    def self_us(self):
        return self.dur - self.child_us

    def inside(self, key):
        p = self.parent
        while p is not None:
            if p.key == key:
                return p
            p = p.parent
        return None


def load_spans(jsonl_path):
    spans = []
    with open(jsonl_path) as f:
        for line in f:
            ev = json.loads(line)
            if "dur_us" in ev:
                spans.append(Span(ev))
    by_tid = defaultdict(list)
    for s in spans:
        by_tid[s.tid].append(s)
    for tid_spans in by_tid.values():
        # Parents open first and, on ties, last longer.
        tid_spans.sort(key=lambda s: (s.ts, -s.dur))
        stack = []
        for s in tid_spans:
            while stack and stack[-1].ts + stack[-1].dur < s.ts + s.dur:
                stack.pop()
            if stack:
                s.parent = stack[-1]
                stack[-1].child_us += s.dur
            stack.append(s)
    return spans


def layer_table(spans, timed):
    """Per span key: total/self us and count. Spans recorded on worker
    threads (the parallel block engine) are keyed apart, since their
    time overlaps the timing thread's."""
    rows = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        row = rows[s.key if s.tid == timed.tid else s.key + " [worker]"]
        row[0] += s.dur
        row[1] += s.self_us
        row[2] += 1
    return rows


# --------------------------------------------------------------------------
# Metrics.

def ratio(num, den):
    return num / den if den else 0.0


def best_pass_s(raw, key="pass_s"):
    """Host seconds of the fastest pass. Passes repeat identical work and
    host noise only ever slows one down, so min-of-N is the steadiest
    estimate of what the code costs (ROADMAP item 1 asks for min-of-N)."""
    return min(raw[key])


def end_to_end(raw):
    blocks = raw["counters_per_pass"]["sim.blocks"]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mib": raw["peak_rss_mib"],
        "sim_blocks_per_s": blocks / best_pass_s(raw),
    }


def workload_outcomes(raw):
    """The workload's own headline numbers (sim, plus host throughput)."""
    sim = raw["sim"]
    pass_s = best_pass_s(raw)
    out = {k: sim.get(k, 0.0) for k in (
        "lp_overhead_gmean", "paper_err_pp", "kv_lat_p50_cycles",
        "kv_lat_p999_cycles", "kv_sim_req_per_kcycle",
        "recovery_kcycles_p50", "recovery_kcycles_p95")}
    out["kv_req_per_s"] = sim.get("service.requests_acked", 0.0) / pass_s
    out["crash_trials_per_s"] = sim.get("crash_trials", 0.0) / pass_s
    return out


def per_layer(raw, spans):
    c = raw["counters_per_pass"]
    sim = raw["sim"]
    labels = raw["labels"]
    passes = raw["traced_passes"]
    by_key = defaultdict(list)
    for s in spans:
        by_key[s.key].append(s)
    timed = by_key["perfbench/timed"][0]

    def per_pass_s(key, pred=lambda s: True):
        return sum(s.dur for s in by_key[key] if pred(s)) / passes / 1e6

    def inside(key):
        return lambda s: s.inside(key) is not None

    m = {name: 0.0 for name, _, _, _ in PER_LAYER}
    m["workloads.setup_s"] = statistics.median(raw["setup_s"])
    for i, k in labels.items():
        for run in ("baseline", "lp"):
            if f"workloads.{k}.{run}_s" in m:
                m[f"workloads.{k}.{run}_s"] = per_pass_s(
                    f"perfbench/{run}", lambda s, i=i: str(s.arg) == i)
        if f"harness.model_s.{k}" in m:
            m[f"harness.model_s.{k}"] = per_pass_s(
                "perfbench/campaign", lambda s, i=i: str(s.arg) == i)

    launch_s = per_pass_s("sim/launch")
    block_s = per_pass_s("sim/block")
    blocks = c["sim.blocks"]
    m["sim.baseline_launch_s"] = per_pass_s("sim/launch",
                                            inside("perfbench/baseline"))
    m["sim.switches_per_block"] = ratio(c["sim.fiber_switches"], blocks)
    m["sim.host_ns_per_switch"] = ratio(launch_s * 1e9,
                                        c["sim.fiber_switches"])
    m["sim.worker_busy_ratio"] = ratio(block_s, raw["workers"] * launch_s)
    m["sim.gate_waits_per_block"] = ratio(c["sim.gate_waits"], blocks)
    for name in ("sim.blocks", "sim.fiber_switches", "sim.barrier_waits",
                 "sim.shuffles", "sim.gate_waits"):
        m[name] = c[name]

    accesses = sim.get("mem.global_accesses", 0.0)
    m["mem.global_accesses"] = accesses
    m["mem.host_ns_per_access"] = ratio(launch_s * 1e9, accesses)
    m["mem.atomic_wait_cycles"] = sim.get("mem.atomic_wait_cycles", 0.0)

    m["core.lp_launch_s"] = per_pass_s("sim/launch", inside("perfbench/lp"))
    if m["sim.baseline_launch_s"]:
        m["core.lp_host_overhead"] = (m["core.lp_launch_s"]
                                      / m["sim.baseline_launch_s"] - 1)
    m["core.shuffles_per_commit"] = ratio(c["sim.shuffles"],
                                          c["core.region_commits"])
    inserts = sum(v for k, v in c.items()
                  if k.startswith("store.") and k.endswith(".inserts"))
    collisions = sum(v for k, v in c.items()
                     if k.startswith("store.") and k.endswith(".collisions"))
    m["core.store_collisions_per_insert"] = ratio(collisions, inserts)

    m["recovery.validate_s"] = per_pass_s("recovery/validate")
    m["recovery.recover_s"] = per_pass_s("recovery/recover")
    m["recovery.persist_recover_s"] = per_pass_s(
        "persist_recovery/recovery_round")
    for name in ("recovery.rounds_per_trial",
                 "recovery.reexec_blocks_per_trial",
                 "recovery.useful_reexec_ratio", "nvm.torn_lines_per_trial",
                 "service.coalesce_ratio", "service.insert_drop_ratio"):
        m[name] = sim.get(name, 0.0)

    m["nvm.store_hit_ratio"] = ratio(
        c["nvm.store_hits"], c["nvm.store_hits"] + c["nvm.store_misses"])
    m["nvm.load_hit_ratio"] = ratio(
        c["nvm.load_hits"], c["nvm.load_hits"] + c["nvm.load_misses"])
    m["nvm.dirty_evictions_per_kreq"] = ratio(
        c["nvm.dirty_evictions"], sim.get("service.requests_acked", 0) / 1e3)
    m["nvm.persist_all_s"] = per_pass_s("nvm/persist_all")

    serve_s = per_pass_s("perfbench/serve")
    m["service.serve_s"] = serve_s
    if serve_s:
        m["service.self_s"] = (
            serve_s - per_pass_s("sim/launch", inside("perfbench/serve"))
            - per_pass_s("nvm/persist_all", inside("perfbench/serve")))

    m["obs.trace_overhead"] = (best_pass_s(raw, "traced_pass_s")
                               / best_pass_s(raw) - 1)
    rows = layer_table(spans, timed)
    glue = sum(rows[k][1] for k in ("perfbench/timed", "perfbench/pass"))
    m["obs.layer_coverage"] = 1 - glue / timed.dur
    m.update(workload_outcomes(raw))
    return m, rows, timed


# --------------------------------------------------------------------------

def print_table(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, kind in rows:
        print(f"  {name:<{width}}  {value:>16.6g} {unit:<9} {kind}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 < args.seconds <= 120:
        ap.error("--seconds must be in (0, 120]")
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be a non-negative 64-bit integer")

    if not build():
        return 2
    trace_path = (os.path.join(BUILD_DIR, f"trace-{args.workload}.json")
                  if args.trace else None)
    raw, err = run_binary(args.workload, args.seed, args.seconds, trace_path)
    if raw is None:
        log(f"perfbench: {err}")
        return 2

    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    correct = failed == 0 and not raw["why"]
    print(f"== {args.workload}: seed {args.seed}, {raw['workers']} worker(s), "
          f"{len(raw['pass_s'])} timed passes ==")
    print(f"digest {raw['digest']}")
    print(f"checks {attempted - failed}/{attempted} passed, fail_ratio "
          f"{ratio(failed, attempted):.6g}" +
          (f"  FAILED: {raw['why']}" if not correct else ""))

    kinds = {n: k for n, _, _, k in END_TO_END + PER_LAYER}
    units = {n: u for n, u, _, _ in END_TO_END + PER_LAYER}
    if args.trace:
        metrics, rows, timed = per_layer(raw, load_spans(trace_path + ".jsonl"))
        passes = raw["traced_passes"]
        print(f"per-layer host time over {passes} traced passes "
              f"({timed.dur / passes / 1e6:.4f} s/pass); self = span "
              "minus child spans")
        print(f"  {'span':<32} {'self s/pass':>12} {'total s/pass':>13} "
              f"{'count/pass':>11} {'self share':>10}")
        for key, (total, own, count) in sorted(rows.items(),
                                               key=lambda kv: -kv[1][1]):
            print(f"  {key:<32} {own / passes / 1e6:>12.5f} "
                  f"{total / passes / 1e6:>13.5f} {count / passes:>11.1f} "
                  f"{own / timed.dur:>10.1%}")
        print(f"layer coverage {metrics['obs.layer_coverage']:.1%}, "
              f"trace overhead {metrics['obs.trace_overhead']:+.1%}")
        print_table("per-layer metrics:", [
            (n, metrics[n], units[n], kinds[n]) for n, _, _, _ in PER_LAYER])
    else:
        metrics = end_to_end(raw)
        outcomes = workload_outcomes(raw)
        print_table("end-to-end metrics:", [
            (n, metrics[n], units[n], kinds[n]) for n, _, _, _ in END_TO_END]
            + [(n, v, units[n], kinds[n]) for n, v in outcomes.items() if v])

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
