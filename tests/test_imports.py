"""scipy.optimize stays off the import path and off the t* search path.

Only the worst-case search (L-BFGS-B) needs it; the README gives its
import cost.  Each check runs in a fresh interpreter, since this test
session has imported scipy.optimize already.
"""

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
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = run(argv + spec_flags)
        if code != 0:
            sys.exit(f"xxchain {argv[0]} exited {code}")
        check(f"xxchain {argv[0]}")

    with contextlib.redirect_stdout(io.StringIO()):
        code = run(["fidelity", "--t", "2.0", "--worst-case", "--seed", "1", *spec_flags,
                   "-o", "worst_case.csv"])
    if code != 0 or "scipy.optimize" not in sys.modules:
        sys.exit(f"xxchain fidelity --worst-case exited {code}")
    """
)


def test_scipy_optimize_only_for_the_worst_case(tmp_path):
    env = dict(os.environ, XXCHAIN_OUTPUT_DIR=str(tmp_path), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.manifest.json"))) == 8
