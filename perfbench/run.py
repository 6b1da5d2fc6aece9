"""xxchain benchmark: four workloads, end-to-end metrics, per-layer spans.

    python3 perfbench/run.py --workload rabi_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh worker process (worker.py) with BLAS and
OpenMP pinned to one thread.  Set-up is measured in that process and in
SETUP_PROBES more fresh processes before it and as many after it, so the
samples span the run; setup_s is the slowest of them, which reads the
machine's common state as op latencies do (see worker.measure).  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it runs
half the time untraced and half traced and reports the per-layer metrics.
Every op's result is checked; failed ops are listed with their input and
reason.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full record, with the
run's provenance, goes to .perfbench_out/<workload>-seed<seed>-trace<t>.json.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("rabi_sweep", "quasi_rabi_sweep", "fidelity_eval", "cli_session")
SETUP_PROBES = 2
TIME_LIMIT_S = 170.0
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "ok_ratio": "ratio", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def worker(args, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker could start")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", name, "--seed", str(seed)]
    probe = base + ["--setup-only"]
    setups = [worker(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    res = worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups += [res["setup_s"]] + [worker(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    e2e = dict(res["e2e"], setup_s=max(setups))
    failures = res["failures"]
    values, units = (res["layers"], layer_units()) if trace else (e2e, E2E_UNITS)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    record = {
        "seconds": seconds, "trace": trace,
        "provenance": dict(res["provenance"], git_revision=git_revision(),
                           command=sys.argv, workload=name, seed=seed,
                           op_count=res["attempted"]),
        "setup_samples_s": setups,
        "end_to_end": e2e, "end_to_end_info": res["e2e_info"],
        "per_layer": res.get("layers"), "traced_info": res.get("traced_info"),
        "spans_file": res.get("spans_file"),
        "correct": res["correct"], "attempted": res["attempted"], "failed": len(failures),
        "failures": failures,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    report(record, e2e, res, path, units)
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": len(failures),
            "metrics": metrics}


def report(record, e2e, res, path, units):
    info = res["e2e_info"]
    prov = record["provenance"]
    print(f"== {prov['workload']} seed={prov['seed']} trace={record['trace']}: "
          f"{info['ops']} ops in {info['passes']} passes, {info['op_time_s']:.2f} s in ops")
    notes = {
        "setup_s": f"slowest of {len(record['setup_samples_s'])} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in record["setup_samples_s"]),
        "op_tail_ms": f"p{info['tail_percentile']:g} of {info['ops']} ops",
        "ok_ratio": f"fail_ratio {1 - e2e['ok_ratio']:.4f}: "
                    f"{info['failed']} of {info['ops']} ops failed",
    }
    for k, unit in E2E_UNITS.items():
        print(f"  {k:<12} {e2e[k]:>14.6g} {unit:<6} {notes.get(k, '')}")
    if record["trace"]:
        for k, v in res["layers"].items():
            print(f"  {k:<44} {v:>14.6g} {units[k]}")
    for f in record["failures"]:
        print(f"  FAILED op {f['op']} (run {f['repeat'] + 1}{', traced' if f.get('phase') else ''}) "
              f"{json.dumps(f['input'])}: {f['kind']}: {f['reason']}")
    print(f"  record: {path.relative_to(ROOT)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "xxchain" / "__init__.py").is_file():
        print(f"error: no xxchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
