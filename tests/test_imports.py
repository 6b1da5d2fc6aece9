"""No xxchain step imports scipy.optimize, and the fast path no oracle code.

The t* refinement and the worst-case search both run Newton's method on
exact derivatives, so no command needs an optimizer library; the README
gives the import cost this saves.  No import statement of the package
names it, at module level or inside a function, and each command runs in
a fresh interpreter, since this test session has imported scipy.optimize
already.

The dense sector oracle is the fast path's reference, so no fast-path
module imports from it, and the CLI reads `verify`'s table from the oracle
without reaching into the oracle's or the fidelity kernel's internals.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import xxchain

SRC = Path(xxchain.__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import contextlib, io, sys

    def check(step):
        if "scipy.optimize" in sys.modules:
            sys.exit(f"scipy.optimize imported by {step}")

    import xxchain
    check("import xxchain")
    from xxchain import ChainSpec, find_transfer_time, scan
    spec = ChainSpec(N=15, h=20.0)
    find_transfer_time(spec)
    check("find_transfer_time")
    scan(spec, "h", [20.0, 30.0])
    check("scan")

    from xxchain.cli import run
    spec_flags = ["--N", "15", "--h", "20"]
    for argv in (
        ["spectrum"],
        ["perturb"],
        ["transfer-time"],
        ["scan", "--axis", "h", "--values", "20,30"],
        ["amplitudes", "--t", "100"],
        ["verify", "--seed", "1"],
        ["fidelity", "--t-star", "--mc-samples", "2000", "--seed", "1"],
        ["fidelity", "--t", "2.0", "--worst-case", "--seed", "1", "-o", "worst_case.csv"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(argv + spec_flags)
        if code != 0:
            sys.exit(f"xxchain {argv[0]} exited {code}")
        check("xxchain " + " ".join(argv))
    """
)


def test_no_step_imports_scipy_optimize(tmp_path):
    env = dict(os.environ, XXCHAIN_OUTPUT_DIR=str(tmp_path), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.manifest.json"))) == 8


def test_no_module_imports_scipy_optimize():
    package = Path(xxchain.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(n.startswith("scipy.optimize") for n in names), (path.name, names)


def imports(path):
    """(module, name) of every import statement in the file, at any depth:
    (module, None) for `import module`, and a relative module without its dots."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module, alias.name) for alias in node.names)


FAST_PATH = ("chain", "spectral", "amplitudes", "perturbation", "fidelity", "protocol")


def test_no_fast_path_module_imports_the_oracle():
    package = Path(xxchain.__file__).resolve().parent
    for name in FAST_PATH:
        found = [
            (module, alias)
            for module, alias in imports(package / f"{name}.py")
            if "sector_oracle" in (module or "").split(".") or alias == "sector_oracle"
        ]
        assert found == [], name


# Oracle and fidelity-kernel internals the CLI has no use for: `verify`'s
# checks are sector_oracle.verify, and `fidelity` reads F_approx's
# amplitudes from the exact breakdown
CLI_DROPPED = {
    "_sector_eig", "evolve", "reduced_receiver_state", "TwoQubitState", "propagator",
    "_design_average", "_evaluator_weights", "_fidelity_at", "edge_products",
}


def test_cli_imports_no_oracle_internals():
    package = Path(xxchain.__file__).resolve().parent
    assert {alias for _, alias in imports(package / "cli.py")} & CLI_DROPPED == set()
