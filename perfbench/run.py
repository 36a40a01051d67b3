#!/usr/bin/env python3
"""End-to-end benchmark: one in-process `nearclique run` per operation.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selfcheck
    python3 perfbench/run.py --pin        # re-pin goldens.json at the default seed

One operation is one dist_near_clique run from scenario params to evaluated
result, executed by the `nc_op` binary (nc_op.cpp) in a process of its own.
This script is the single closed-loop client: it starts the next operation
only after the previous one has exited, for --seconds seconds (at least
MIN_OPS operations), and never runs two at once, so a workload uses at most
its own `threads` delivery threads.

--trace 0 runs untraced operations and prints the end-to-end metrics.
--trace 1 alternates untraced and traced operations and prints the per-layer
ledger of the traced ones (see README.md). Every operation passes the output
gate or counts as failed: at the default seed its RunStats, labels hash,
cluster size, recall and density must equal goldens.json; at any other seed
the largest cluster must satisfy the sweep runner's `effective` predicate.
Within a run all operations must agree bit-for-bit, traced ones included.

The last stdout line is the result JSON; the line before it holds the
provenance, which is also written with the raw per-operation values to
perfbench/out/. Build output and diagnostics go to stderr.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(HERE, ".build")
OUT_DIR = os.path.join(HERE, "out")
NC_OP = os.path.join(BUILD_DIR, "nc_op")
GOLDENS = os.path.join(HERE, "goldens.json")

DEFAULT_SEED = 3  # --seed picks the graph; nc_op fixes the protocol's seed
MIN_OPS = 3
# No operation starts after RUN_BUDGET_S and none may run past OP_TIMEOUT_S
# (healthy ones take 2-7 s), so a run exits within 180 s whatever happens.
RUN_BUDGET_S = 100.0
OP_TIMEOUT_S = 60.0

# permute_ids=0 keeps the planted set at ids [0, clique_size), so nc_op's
# fixed protocol seed samples the same planted nodes on every graph (with
# permute_ids=1 one seed of ten found no cluster); the halo is kept thin so
# a sampled outsider rarely joins the planted component. See README.md for
# the measurements and the layer shares.
WORKLOADS = {
    "planted_200k_t2": (
        "n=200000,clique_size=400,background_p=5e-5,halo_p=5e-6,permute_ids=0",
        "eps=0.2,pn=1000,threads=2",
    ),
    "dense_20k_t1": (
        "n=20000,clique_size=300,background_p=0.0025,halo_p=1e-4,permute_ids=0",
        "eps=0.2,pn=150,threads=1",
    ),
    "lossy_arq_100k_t1": (
        "n=100000,clique_size=300,background_p=1e-4,halo_p=1e-5,permute_ids=0",
        "eps=0.2,pn=1500,max_rounds=1000000,loss=0.01,delay_max=2,"
        "rel_mode=1,threads=1",
    ),
}

# name -> (unit, value of the run). `ops` are the untraced operations.
END_TO_END = {
    "wall_s": ("s", lambda ops, ok: median(o["wall_s"] for o in ops)),
    "setup_s": ("s", lambda ops, ok: median(o["setup_s"] for o in ops)),
    "peak_rss_mb": ("MB", lambda ops, ok: median(o["peak_rss_mb"] for o in ops)),
    "messages": ("count", lambda ops, ok: ops[0]["stats"]["messages"]),
    "wire_bits": ("bits", lambda ops, ok: ops[0]["stats"]["bits"]),
    "recall": ("fraction", lambda ops, ok: ops[0]["recall"]),
    "density": ("fraction", lambda ops, ok: ops[0]["density"]),
    "success_frac": ("fraction", lambda ops, ok: ok),
}


def _phases(t):
    p = t["profile"]
    return p["fused_s"] + p["stage_s"] + p["deliver_s"] + p["wake_s"]


def _ratio(a, b):
    return a / b if b else 0.0


MB = float(1 << 20)

# name -> (unit, value for one traced operation `t`; `u` is the median
# untraced wall_s of the same run). Span names are nc_op's top-level spans.
PER_LAYER = {
    "graph.build_s": ("s", lambda t, u: _span(t, "graph.make")),
    "graph.edges_per_s": ("1/s", lambda t, u: _ratio(t["m"], _span(t, "graph.make"))),
    "graph.rss_mb": ("MB", lambda t, u: _rss(t, "graph.make")),
    "runtime.construct_s": ("s", lambda t, u: _span(t, "runtime.construct")),
    "runtime.construct_rss_mb": ("MB", lambda t, u: _rss(t, "runtime.construct")),
    "runtime.run_s": ("s", lambda t, u: _span(t, "runtime.run")),
    "runtime.run_rss_mb": ("MB", lambda t, u: _rss(t, "runtime.run")),
    "runtime.serial_s": ("s", lambda t, u: _span(t, "runtime.run") - _phases(t)),
    "runtime.fused_s": ("s", lambda t, u: t["profile"]["fused_s"]),
    "runtime.stage_s": ("s", lambda t, u: t["profile"]["stage_s"]),
    "runtime.deliver_s": ("s", lambda t, u: t["profile"]["deliver_s"]),
    "runtime.wake_s": ("s", lambda t, u: t["profile"]["wake_s"]),
    "runtime.teardown_s": ("s", lambda t, u: _span(t, "runtime.teardown")),
    "runtime.msgs_per_s": ("1/s", lambda t, u: _ratio(
        t["stats"]["messages"],
        t["profile"]["fused_s"] + t["profile"]["stage_s"] + t["profile"]["deliver_s"])),
    "runtime.arena_mb": ("MB", lambda t, u: t["profile"]["arena_bytes_total"] / MB),
    "runtime.arena_shard_mb": (
        "MB", lambda t, u: t["profile"]["arena_bytes_peak_shard"] / MB),
    "runtime.lane_msgs_peak": ("count", lambda t, u: t["profile"]["lane_msgs_peak"]),
    "runtime.bcast_saved_mb": (
        "MB", lambda t, u: t["profile"]["broadcast_payload_bytes_saved"] / MB),
    "runtime.rounds": ("rounds", lambda t, u: t["stats"]["rounds"]),
    "runtime.max_msg_bits": ("bits", lambda t, u: t["stats"]["max_message_bits"]),
    "runtime.retransmitted": ("count", lambda t, u: t["stats"]["messages_retransmitted"]),
    "runtime.acks": ("count", lambda t, u: t["stats"]["acks_sent"]),
    "runtime.lost": ("count", lambda t, u: t["stats"]["messages_lost"]),
    "runtime.delayed": ("count", lambda t, u: t["stats"]["messages_delayed"]),
    "runtime.goodput": ("fraction", lambda t, u: _ratio(
        t["stats"]["messages"],
        t["stats"]["messages"] + t["stats"]["messages_retransmitted"])),
    "runtime.ctrl_bits_frac": ("fraction", lambda t, u: _ratio(
        t["stats"]["bits_by_kind"].get("30", 0) + t["stats"]["bits_by_kind"].get("31", 0),
        t["stats"]["bits"])),
    "core.schedule_s": ("s", lambda t, u: _span(t, "core.schedule")),
    "core.extract_s": ("s", lambda t, u: _span(t, "core.extract")),
    "core.local_ops": ("count", lambda t, u: t["local_ops"]),
    "core.candidates": ("count", lambda t, u: t["candidates"]),
    "expt.eval_s": ("s", lambda t, u: _span(t, "expt.eval")),
    "expt.free_s": ("s", lambda t, u: _span(t, "expt.free")),
    # getrusage over the traced operation: where its wall time went.
    "proc.user_s": ("s", lambda t, u: t["rusage"]["user_s"]),
    "proc.sys_s": ("s", lambda t, u: t["rusage"]["sys_s"]),
    "proc.minflt": ("count", lambda t, u: t["rusage"]["minflt"]),
    "proc.nivcsw": ("count", lambda t, u: t["rusage"]["nivcsw"]),
    "trace.wall_s": ("s", lambda t, u: t["wall_s"]),
    "trace.residual_s": ("s", lambda t, u: t["wall_s"] - sum(
        s["s"] for s in t["spans"].values())),
    "trace.overhead_s": ("s", lambda t, u: t["wall_s"] - u),
}


def _span(t, name):
    return t["spans"][name]["s"]


def _rss(t, name):
    return t["spans"][name]["rss_delta_mb"]


def median(values):
    return statistics.median(list(values))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds nc_op; build output goes to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("run.py: no src/ beside perfbench/; run from a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("run.py: build failed: " + " ".join(cmd))


def run_op(params, algo_params, seed, trace_path=None):
    """One operation in its own process; returns its JSON, or None on failure."""
    cmd = [NC_OP, "--params=" + params, "--algo-params=" + algo_params,
           "--seed=%d" % seed]
    if trace_path:
        cmd.append("--trace=" + trace_path)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("operation timed out: " + " ".join(cmd))
        return None
    if proc.returncode != 0:
        log("operation exited %d: %s" % (proc.returncode, proc.stderr.strip()))
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("operation printed no result: " + proc.stdout[-200:])
        return None


GATE_KEYS = ("stats", "labels_hash", "cluster_size", "recall", "density")


def gate(op, reference, golden):
    """True when `op` passes the output gate (see module docstring)."""
    if op is None or op["aborted"]:
        return False
    if any(op[k] != reference[k] for k in GATE_KEYS):
        return False  # identical inputs must give identical outputs
    if golden is not None:
        return all(op[k] == golden[k] for k in GATE_KEYS)
    return op["effective"]


def measure(params, algo_params, seed, seconds, trace, golden, trace_path):
    """Runs the closed loop; returns (result dict, raw operations)."""
    start = time.monotonic()
    deadline = start + seconds
    untraced, traced, results = [], [], []
    while True:
        is_traced = bool(trace) and len(untraced) > len(traced)
        op = run_op(params, algo_params, seed, trace_path if is_traced else None)
        results.append(op)
        if op is not None:
            (traced if is_traced else untraced).append(op)
        done = len(results) >= MIN_OPS + (1 if trace else 0)
        now = time.monotonic()
        if (now >= deadline and done) or now - start > RUN_BUDGET_S:
            break
    reference = untraced[0] if untraced else None
    failed = sum(1 for op in results if reference is None or not gate(op, reference, golden))
    attempted = len(results)
    if trace and not traced:  # the traced operation never ran or never succeeded
        attempted += 1
        failed += 1
    metrics = {}
    if trace == 0 and untraced:
        ok = (attempted - failed) / attempted
        for name, (unit, fn) in END_TO_END.items():
            metrics[name] = {"value": fn(untraced, ok), "unit": unit}
    elif traced and untraced:
        u = median(o["wall_s"] for o in untraced)
        for name, (unit, fn) in PER_LAYER.items():
            metrics[name] = {"value": median(fn(t, u) for t in traced), "unit": unit}
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, [op for op in results if op is not None]


def source_digest():
    """sha256 over the sources nc_op is built from (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in (".build", "out"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    # The ceiling keeps git from resolving a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(workload, params, algo_params, seed, ops):
    build_info = ops[0]["build"] if ops else {}
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "compiler": build_info.get("compiler"),
        "flags": build_info.get("flags"),
        "build_type": build_info.get("build_type"),
        "nproc": os.cpu_count(),
        "hardware_concurrency": build_info.get("hardware_concurrency"),
        "workload": workload,
        "scenario_params": params,
        "algo_params": algo_params,
        "threads": ops[0]["threads"] if ops else None,
        "seed": seed,
        "algo_seed": ops[0]["algo_seed"] if ops else None,
    }


def load_goldens():
    with open(GOLDENS) as f:
        return json.load(f)


def run_workload(args):
    params, algo_params = WORKLOADS[args.workload]
    golden = None
    if args.seed == DEFAULT_SEED:
        golden = load_goldens()["workloads"][args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    result, ops = measure(params, algo_params, args.seed, args.seconds, args.trace,
                          golden, stem + ".perfetto.json")
    prov = provenance(args.workload, params, algo_params, args.seed, ops)
    with open(stem + ".json", "w") as f:
        json.dump({"provenance": prov, "result": result,
                   "operations": [{k: op.get(k) for k in (
                       "mode", "wall_s", "setup_s", "peak_rss_mb", "rusage")}
                                  for op in ops]},
                  f, indent=1)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))


def pin():
    """Writes goldens.json from one untraced operation per workload."""
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, (params, algo_params) in WORKLOADS.items():
        op = run_op(params, algo_params, DEFAULT_SEED)
        if op is None or op["aborted"] or not op["effective"]:
            raise SystemExit("run.py: cannot pin %s: operation failed" % name)
        out["algo_seed"] = op["algo_seed"]
        out["workloads"][name] = {k: op[k] for k in GATE_KEYS}
        log("pinned %s: %s" % (name, op["stats"]))
    with open(GOLDENS, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


# Tiny instances for --selfcheck: the fused path (t1), the pool and staged
# path (t2), and the fault + ARQ path; none is a benchmark workload.
TINY = "n=6000,clique_size=120,background_p=0.002,halo_p=1e-4,permute_ids=0"
TINY_ALGO = {
    "t1": "eps=0.2,pn=150,threads=1",
    "t2": "eps=0.2,pn=150,threads=2",
    "arq_t1": "eps=0.2,pn=150,threads=1,loss=0.01,delay_max=2,rel_mode=1",
    "arq_t2": "eps=0.2,pn=150,threads=2,loss=0.01,delay_max=2,rel_mode=1",
}


def selfcheck():
    """Seconds-long check of the benchmark itself; returns an exit code."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, "selfcheck.perfetto.json")

    # 1. Every BENCHMARK.json metric is printed with its name and unit.
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = measure(TINY, TINY_ALGO["t2"], DEFAULT_SEED + 1, 0, trace, None, trace_path)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if want != got:
            problems.append("%s metrics differ from BENCHMARK.json: want %s, got %s"
                            % (key, sorted(want.items()), sorted(got.items())))
        if not result["correct"]:
            problems.append("tiny run with trace %d failed: %s" % (trace, result))

    # 2. Traced and untraced operations agree, at threads 1 and 2, clean and
    # under faults + ARQ (measure() fails a run on any disagreement); the
    # thread counts agree with each other too.
    outputs = {}
    for name, algo_params in TINY_ALGO.items():
        result, ops = measure(TINY, algo_params, DEFAULT_SEED + 1, 0, 1, None, trace_path)
        if not result["correct"] or not any(o["mode"] == "traced" for o in ops):
            problems.append("traced/untraced disagree on %s: %s" % (name, result))
        outputs[name] = ops[0] if ops else None
    for a, b in (("t1", "t2"), ("arq_t1", "arq_t2")):
        if outputs[a] is None or outputs[b] is None or any(
                outputs[a][k] != outputs[b][k] for k in GATE_KEYS):
            problems.append("%s and %s outputs differ" % (a, b))

    # 3. The default-seed gate: a correct golden passes, a wrong one fails
    # every operation.
    ref = outputs["t1"]
    if ref is not None:
        golden = {k: ref[k] for k in GATE_KEYS}
        right, _ = measure(TINY, TINY_ALGO["t1"], DEFAULT_SEED + 1, 0, 0, golden, trace_path)
        wrong_golden = json.loads(json.dumps(golden))
        wrong_golden["stats"]["messages"] += 1
        wrong, _ = measure(TINY, TINY_ALGO["t1"], DEFAULT_SEED + 1, 0, 0, wrong_golden,
                           trace_path)
        if right["metrics"]["success_frac"]["value"] != 1.0:
            problems.append("a correct golden failed: %s" % right)
        if wrong["metrics"]["success_frac"]["value"] != 0.0 or wrong["correct"]:
            problems.append("a wrong golden did not fail every operation: %s" % wrong)

    for p in problems:
        log("selfcheck: " + p)
    print("selfcheck: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if not (args.selfcheck or args.pin or args.workload):
        ap.error("one of --workload, --selfcheck, --pin is required")
    build()
    if args.selfcheck:
        return selfcheck()
    if args.pin:
        pin()
        return 0
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
