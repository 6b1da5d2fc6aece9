"""The benchmark's use of xxchain, checked in a second.

perfbench/ runs its workloads against the sources in src/, and its own tests
take half a minute.  These catch a change in src/ that would break it:
every name perfbench imports from xxchain resolves, and a t* sweep op, a
Monte-Carlo op and the worst-case op of fidelity_eval and the `verify` and
`amplitudes` ops of cli_session each pass the workload's own run and check.
"""

import ast
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_xxchain_imports_resolve():
    # each `from xxchain... import ...` statement, run as written
    statements = [
        (path, node)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "xxchain"
    ]
    assert statements
    for path, node in statements:
        exec(compile(ast.Module([node], type_ignores=[]), str(path), "exec"), {})


def test_sweep_op_passes_the_benchmark_check(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    refs = json.loads((PERFBENCH / "references.json").read_text())
    ref = next(r for r in refs["rabi_sweep"] if (r["N"], r["h"]) == (30, 40.0))
    result = workloads.sweep_op(30, 40.0, tracing.NoTrace())
    assert workloads.check_search(result, ref) is None


def test_monte_carlo_op_passes_the_benchmark_check(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    refs = json.loads((PERFBENCH / "references.json").read_text())
    wl = workloads.FidelityEval(1, refs, "")
    op = wl._op("mc", 46)
    result = wl.run(op, tracing.NoTrace())
    assert isinstance(result["mean"], float) and isinstance(result["stderr"], float)
    assert wl.check(op, result) is None


def test_worst_case_op_passes_the_benchmark_check(monkeypatch):
    # fidelity_eval's one fixed worst-case input, which its tail reads; the
    # search must certify its minimum there
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    refs = json.loads((PERFBENCH / "references.json").read_text())
    wl = workloads.FidelityEval(1, refs, "")
    op = wl._op("worst", workloads.WORST_N)
    result = wl.run(op, tracing.NoTrace())
    assert result["certified"]
    assert wl.check(op, result) is None


def test_verify_op_passes_the_benchmark_check(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    wl = workloads.CliSession(1, {}, str(tmp_path))
    op = wl._op("verify")
    result = wl.run(op, tracing.NoTrace())
    assert result["exit_code"] == 0, result["log"]
    assert wl.check(op, result) is None


def test_amplitudes_op_passes_the_benchmark_check(monkeypatch, tmp_path):
    # the op that sets cli_session's tail: 2000 rows at N = 46
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    wl = workloads.CliSession(1, {}, str(tmp_path))
    op = wl._op("amplitudes")
    result = wl.run(op, tracing.NoTrace())
    assert result["exit_code"] == 0, result["log"]
    assert wl.check(op, result) is None
    with open(result["output"]) as fh:
        assert sum(1 for line in fh if not line.startswith("#")) == 1 + 2000
