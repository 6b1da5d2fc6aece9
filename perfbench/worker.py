"""One workload in one fresh process; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints one JSON object as its last line of output.  Set-up time counts from
the first line of this file: importing xxchain (with numpy and scipy),
building the seeded inputs, loading references.json and one warm-up op of
each kind.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Tail percentile: the highest of these with at least ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail_latency(latencies):
    """(percentile, value) for the highest ladder entry that leaves at least
    TAIL_BEYOND samples above it (p50 if none does)."""
    n = len(latencies)
    q = next((q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= TAIL_BEYOND), 50.0)
    return q, percentile(latencies, q)


def measure(wl, seconds, tr):
    """Run round(seconds / (wl.repeats * wl.pass_seconds)) passes, at least one.

    The number of passes comes from `seconds` and the workload's nominal
    pass time, not from the clock, so every run measures the same mix of
    work and uses the same tail percentile.  Every op runs wl.repeats times,
    each round over all ops in a fresh seeded order, and its latency is its
    slowest run.  Shared 2-core x86 VMs run in a common state and in bursts
    of a state 1.6x faster that last from a tenth of a second to minutes;
    the share of a 20 s window spent in bursts varies from none to over
    half.  The fastest run of an op measures whether the run caught a
    burst; the slowest of runs spread across the whole measurement reads
    the common state, which most runs contain.  An op fails if any of its
    runs fails.  Only the op calls are timed.
    """
    from workloads import CliSession, Failure

    passes = max(1, round(seconds / (wl.repeats * wl.pass_seconds)))
    ops = [op for _ in range(passes) for op in wl.next_pass()]
    slowest = [0.0] * len(ops)
    failed = [None] * len(ops)
    counters = dict(search=0, search_ok=0, worst=0, worst_certified=0,
                    mc_samples=0, cli_bytes=0)
    t_phase = time.perf_counter()
    for repeat in range(wl.repeats):
        for i in range(len(ops)) if repeat == 0 else wl.rng.permutation(len(ops)):
            op = ops[i]
            tr.op_id = int(i)
            result = None
            t0 = time.perf_counter()
            try:
                with tr.span("op"):
                    result = wl.run(op, tr)
                failure = None
            except Exception as exc:  # an op that raises is a failed op
                failure = Failure("exception", "".join(
                    traceback.format_exception_only(type(exc), exc)).strip())
            slowest[i] = max(slowest[i], time.perf_counter() - t0)
            if failure is None:
                failure = wl.check(op, result)
            if failure is not None and failed[i] is None:
                failed[i] = {"op": int(i), "repeat": repeat, "input": op,
                             "kind": failure.kind, "reason": failure.reason}
            kind = op["kind"]
            if kind == "search":
                counters["search"] += 1
                counters["search_ok"] += failure is None
            elif kind == "worst" and result is not None:
                counters["worst"] += 1
                counters["worst_certified"] += result["certified"]
            elif kind == "mc" and result is not None:
                counters["mc_samples"] += result["samples"]
            elif result is not None and "exit_code" in result:
                counters["cli_bytes"] += CliSession.bytes_written(result)
    return {"latencies": slowest, "failures": [f for f in failed if f is not None],
            "counters": counters, "passes": passes * wl.repeats,
            "wall_s": time.perf_counter() - t_phase}


def end_to_end(phase):
    lat = phase["latencies"]
    q, tail = tail_latency(lat)
    n, failed = len(lat), len(phase["failures"])
    return {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": percentile(lat, 50.0) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ok_ratio": (n - failed) / n,
    }, {"tail_percentile": q, "ops": n, "failed": failed, "passes": phase["passes"],
        "op_time_s": sum(lat), "wall_s": phase["wall_s"]}


def layer_metrics(tracer, traced, untraced_ops_per_s):
    c = traced["counters"]
    out = tracer.layer_metrics(traced["passes"])
    mc_self = out["fidelity.haar_average_mc.self_s"] * traced["passes"]
    traced_ops_per_s = len(traced["latencies"]) / sum(traced["latencies"])
    out.update({
        # 0 when the workload makes no such call
        "protocol.search_ok_ratio": c["search_ok"] / c["search"] if c["search"] else 0.0,
        "fidelity.worst_case_certified_ratio":
            c["worst_certified"] / c["worst"] if c["worst"] else 0.0,
        "fidelity.mc_samples_per_s": c["mc_samples"] / mc_self if mc_self else 0.0,
        "cli.bytes_written": c["cli_bytes"] / traced["passes"],
        "trace.overhead_ratio": untraced_ops_per_s / traced_ops_per_s,
    })
    return out


def provenance():
    import numpy as np
    import scipy

    import xxchain

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "xxchain": xxchain.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}".strip(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "xxchain" / "__init__.py").is_file():
        print(f"error: no xxchain sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import xxchain

    if Path(xxchain.__file__).resolve().parent != (src / "xxchain").resolve():
        print(f"error: imported xxchain from {xxchain.__file__}, not {src}", file=sys.stderr)
        return 2
    from tracing import NoTrace, Tracer
    from workloads import KNOWN_FAILURE_KINDS, WORKLOADS

    refs = json.loads((HERE / "references.json").read_text())
    workdir = OUT_DIR / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, refs, str(workdir))
        for op in wl.warmup_inputs():
            wl.run(op, NoTrace())
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = measure(wl, seconds, NoTrace())
        metrics, info = end_to_end(untraced)
        failures = list(untraced["failures"])
        attempted = len(untraced["latencies"])
        result = {"setup_s": setup_s, "provenance": provenance(), "e2e_info": info}
        if args.trace:
            tracer = Tracer()
            traced = measure(wl, seconds, tracer)
            for f in traced["failures"]:
                f["phase"] = "traced"
            failures += traced["failures"]
            attempted += len(traced["latencies"])
            result["layers"] = layer_metrics(tracer, traced, metrics["ops_per_s"])
            result["traced_info"] = end_to_end(traced)[1]
            spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
            tracer.write(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct = all(f["kind"] in KNOWN_FAILURE_KINDS for f in failures)
        result.update(e2e=metrics, attempted=attempted, failures=failures, correct=correct)
        print(json.dumps(result, default=str))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
