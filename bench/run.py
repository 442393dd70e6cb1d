"""Seeded benchmark of the rca library and CLI.

Usage, from the repository root:

    python3 bench/run.py --workload dense_fit --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --seed 1 --seconds 34     # every workload in turn

Workloads (see BENCHMARK.json for why each is there): dense_fit,
itrca_sweep, cli_roundtrip. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, taken
from a traced second half of the run.

Load model: one process, one caller, closed loop. Each workload runs in a
child process whose BLAS is pinned to one thread through its own
environment. setup_s, the time from process start to the first timed
operation, is the median over SETUP_RUNS child processes: SETUP_RUNS - 1
that only set up and the one that then measures. The timed loop always ends
on a whole cycle, so every run carries the same mix of operations.

A run record (environment, all metrics, sample counts and, when traced,
every span) is written to bench/out/. Modules that import numpy are imported
only in the child, after its environment has pinned the BLAS threads.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_RUNS = 5
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
RUN_TIMEOUT_S = 170  # the whole run, all children included
WORKLOADS = ("dense_fit", "itrca_sweep", "cli_roundtrip")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all",
                        help="one workload, or all of them in turn (default)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ------------------------------------------------------------------ parent

def spawn(args, role, deadline):
    """Run one child; return its result dict (last stdout line)."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role,
           "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def parent(args):
    if not os.path.isdir(os.path.join(SRC, "rca")):
        print(f"error: no rca package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return max(parent(argparse.Namespace(**dict(vars(args), workload=w)))
                   for w in WORKLOADS)
    spec = load_spec()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    child = spawn(args, "measure", deadline)
    setups.append(child["setup_s"])
    samples = child["samples"]
    if args.trace:
        declared = spec["per_layer"]
        values = child["layers"]
    else:
        declared = spec["end_to_end"]
        values = dict(child["end_to_end"], setup_s=statistics.median(setups))
        samples["setup_s"] = len(setups)
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        n = samples.get(m["name"], samples["ops"])
        print(f"{args.workload} {m['name']} = {metrics[m['name']]['value']:.6g} "
              f"{m['unit']} (n={n})")
    print("env: " + json.dumps(child["env"], sort_keys=True))
    print(json.dumps({"correct": child["failed"] == 0, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


# ------------------------------------------------------------------ child

def environment(args, workload):
    import numpy as np
    import rca

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    pkg = os.path.dirname(rca.__file__)
    src_lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "input_sha256": workload.input_hash,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in sorted(PINNED)},
            "src_lines": src_lines, "public_api_size": len(getattr(rca, "__all__", ()))}


@dataclass
class Loop:
    """What one timed loop saw: per-op wall latency (run only), the time
    since loop start at which each op's check finished, its kind, the facts
    its check returned, and one message per failed op."""
    elapsed: float = 0.0
    latencies: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    facts: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def ops_per_s(self):
        return len(self.latencies) / self.elapsed


def run_loop(cycle, seconds, start=0, tracer=None, clock=time.perf_counter):
    """Closed loop over the cycle for at least `seconds`, ending on a whole
    cycle."""
    loop = Loop()
    t0 = clock()
    i = start
    while True:
        op = cycle[i % len(cycle)]
        error, fact = None, {}
        began = clock()
        try:
            with tracer.op(op.kind) if tracer else nullcontext():
                result = op.run()
        except Exception as exc:  # a failed op is counted, the loop goes on
            error = exc
        loop.latencies.append(clock() - began)
        if error is None:
            try:
                fact = op.check(result)
            except Exception as exc:
                error = exc
        if error is not None:
            loop.failures.append(f"{op.kind}: {type(error).__name__}: {error}")
        loop.facts.append(fact)
        loop.kinds.append(op.kind)
        loop.ends.append(clock() - t0)
        i += 1
        if (i - start) % len(cycle) == 0 and loop.ends[-1] >= seconds:
            loop.elapsed = loop.ends[-1]
            return loop


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(loop):
    import resource

    ms = [1e3 * t for t in loop.latencies]
    return {"ops_per_s": loop.ops_per_s,
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": percentile(ms, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - len(loop.failures) / len(loop.latencies)}


def layer_metrics(tracer, facts, eigh_equiv, overhead_frac):
    """Every per-layer number the trace supports, keyed by metric name."""
    from spans import NAME, START, END, OP, COUNTS

    n_ops = len(tracer.op_kinds)
    calls, selfs, totals = Counter(), Counter(), Counter()
    counts, layers = Counter(), Counter()
    for span, self_t in zip(tracer.spans, tracer.self_times()):
        name = span[NAME]
        calls[name] += 1
        selfs[name] += self_t
        totals[name] += span[END] - span[START]
        layers[name.split(".", 1)[0]] += self_t
        for key, value in (span[COUNTS] or {}).items():
            counts[name, key] += value
    out = {}
    for name in calls:
        out[f"{name}.calls_per_op"] = calls[name] / n_ops
        out[f"{name}.self_ms_per_op"] = 1e3 * selfs[name] / n_ops
    for layer, total in layers.items():
        out[f"{layer}.self_ms_per_op"] = 1e3 * total / n_ops

    fits = calls.get("core.rca_fit", 0)
    in_fit = sum(1 for i, s in enumerate(tracer.spans)
                 if s[NAME].startswith("lapack.") and tracer.has_ancestor(i, "core.rca_fit"))
    out["lapack.decomp_per_fit"] = in_fit / fits if fits else 0.0

    by_kind = {}
    for s in tracer.spans:
        if s[NAME] == "core.rca_fit":
            by_kind.setdefault(tracer.op_kinds[s[OP]], []).append(s[END] - s[START])
    for kind in ("explicit", "identity", "blocks", "lowrank"):
        durations = by_kind.get(f"rca_fit.{kind}")
        out[f"core.rca_fit.{kind}_ms"] = 1e3 * statistics.median(durations) if durations else 0.0
    out["core.rca_fit.eigh_equiv"] = eigh_equiv

    n_iter = [f["n_iter"] for f in facts if "n_iter" in f]
    out["itrca.iterations_per_fit"] = float(statistics.mean(n_iter)) if n_iter else 0.0
    for name in ("io.load_csv", "io.save_csv"):
        cells = counts[name, "cells"]
        out[f"{name}.cells_per_s"] = cells / totals[name] if cells else 0.0
    for key in ("bytes_read", "bytes_written"):
        out[f"io.{key}_per_op"] = sum(v for (_, k), v in counts.items() if k == key) / n_ops
    out["trace.overhead_frac"] = overhead_frac
    return out


def child(args):
    started = args.spawned
    import rca
    import workloads
    from spans import Tracer

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        workload = workloads.SETUPS[args.workload](args.seed, workdir)
        cycle = workload.cycle
        try:
            cycle[0].run()  # warm-up; the loop checks and counts this op when it repeats it
        except Exception as exc:
            print(f"warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        setup_s = time.monotonic() - started
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        env = environment(args, workload)
        record = {"env": env, "setup_s": setup_s}
        if args.trace:
            half = args.seconds / 2.0
            plain = run_loop(cycle, half, start=1)
            tracer = Tracer()
            record["traced_names"] = tracer.install(rca)
            try:
                traced = run_loop(cycle, half, start=1, tracer=tracer)
            finally:
                tracer.uninstall()
            eigh_equiv = workload.eigh_equiv() if workload.eigh_equiv else 0.0
            overhead = 1.0 - traced.ops_per_s / plain.ops_per_s
            result = {"layers": layer_metrics(tracer, traced.facts, eigh_equiv, overhead)}
            record["spans"] = tracer.dump()
            loops = (plain, traced)
        else:
            loop = run_loop(cycle, args.seconds, start=1)
            result = {"end_to_end": end_to_end(loop)}
            loops = (loop,)
        record.update(result)
        record["ops"] = [{"kind": k, "latency_ms": 1e3 * t, "end_s": e}
                         for k, t, e in zip(loops[-1].kinds, loops[-1].latencies,
                                            loops[-1].ends)]
        attempted = sum(len(lp.latencies) for lp in loops)
        failures = [f for lp in loops for f in lp.failures]
        for message in failures[:5]:
            print(f"failed: {message}", file=sys.stderr)
        record["failures"] = failures
        samples = {"ops": len(loops[-1].latencies)}
        record["samples"] = samples
        os.makedirs(OUT, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        print(json.dumps(dict(result, env=env, setup_s=setup_s, samples=samples,
                              attempted=attempted, failed=len(failures))))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    if args.role is None:
        try:
            return parent(args)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    return child(args)


if __name__ == "__main__":
    sys.exit(main())
