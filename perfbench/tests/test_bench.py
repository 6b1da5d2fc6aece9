"""Self-tests of the benchmark (not of xxchain).

    python3 -m pytest perfbench/tests -q

The smoke runs take about three minutes: one quasi_rabi_sweep pass, run five
times, alone takes about 20 s.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    report = lines[:-1]
    for m in expected + SPEC["end_to_end"] * trace:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()[2:3]
                   for line in report), m["name"]


def test_checker_flags_a_fidelity_shifted_by_1e_2():
    from workloads import check_search

    refs = json.loads((BENCH_DIR / "references.json").read_text())
    ref = next(r for r in refs["rabi_sweep"] if (r["N"], r["h"]) == (46, 100.0))
    good = {"t_star": ref["t_ref"], "F": ref["F_ref"], "F_exact_at_t_star": ref["F_ref"]}
    assert check_search(good, ref) is None
    for shift in (-1e-2, 1e-2):
        # F no longer equals Fbar(t*)
        assert check_search(dict(good, F=good["F"] + shift), ref).kind == "inconsistent"
    # a self-consistent result 1e-2 below the reference optimum
    low = dict(good, F=good["F"] - 1e-2, F_exact_at_t_star=good["F"] - 1e-2)
    assert check_search(low, ref).kind == "search_miss"


def test_tail_is_the_highest_ladder_percentile_with_ten_samples_beyond():
    from worker import tail_latency

    assert tail_latency(list(range(40))) == (75.0, 29)
    assert tail_latency(list(range(420))) == (95.0, 398)
    assert tail_latency(list(range(12)))[0] == 50.0
