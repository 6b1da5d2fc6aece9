"""The four workloads: seeded inputs, one op per input, and the check of
each op's result.

A workload hands out *passes*: lists of op inputs with a fixed composition
(the same kinds and sizes every pass) in a seeded order with seeded
parameters.  Runs measure whole passes, so the seed changes which inputs
are drawn but not how much work a run measures.

Every call into xxchain is wrapped in ``tracer.span(<layer>.<function>)``;
with tracing off that is a shared no-op context manager.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from xxchain import cli
from xxchain.amplitudes import propagator
from xxchain.chain import ChainSpec, build_single_particle
from xxchain.fidelity import (
    average_fidelity_approx,
    average_fidelity_exact,
    fidelity_from_edge_amplitudes,
    haar_average_mc,
    worst_case_fidelity,
)
from xxchain.protocol import find_transfer_time
from xxchain.spectral import diagonalize

from menus import QUASI_MENU, RABI_MENU, REFERENCE_TOLERANCE

# Failure kinds that are known, counted behaviour of the program rather than
# an inconsistent result: a t* search that stops short of the brute-force
# optimum, and the two statistical checks, which a correct program fails by
# chance: the 3-sigma Monte-Carlo row of `xxchain verify` (about 0.8% of
# calls) and the 4-standard-error check of haar_average_mc here (about 6e-5).
# Every other kind makes the run's `correct` flag false.
KNOWN_FAILURE_KINDS = ("search_miss", "verify_mc_3sigma", "mc_outside_4se")


@dataclass
class Failure:
    kind: str
    reason: str


class Workload:
    """Base: subclasses define passes, ops and checks."""

    name = ""
    # nominal seconds for one pass on a 2-core x86 VM at the commit that
    # introduced the benchmark; with `repeats`, sets how many passes a run makes
    pass_seconds = 1.0
    # runs of every op; its latency is the slowest (see worker.measure)
    repeats = 3

    def __init__(self, seed: int, refs: dict, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir

    def warmup_inputs(self) -> list[dict]:
        raise NotImplementedError

    def next_pass(self) -> list[dict]:
        raise NotImplementedError

    def run(self, op: dict, tr) -> dict:
        raise NotImplementedError

    def check(self, op: dict, result: dict) -> Failure | None:
        raise NotImplementedError

    def shuffled(self, ops: list[dict]) -> list[dict]:
        return [ops[i] for i in self.rng.permutation(len(ops))]


# ------------------------------------------------------------- t* searches


def sweep_op(N: int, h: float, tr) -> dict:
    """diagonalize -> find_transfer_time -> exact Fbar(t*) -> propagator +
    truncated Fbar(t*)."""
    spec = ChainSpec(N=N, h=h)
    with tr.span("chain.build_single_particle"):
        m = build_single_particle(spec)
    with tr.span("spectral.diagonalize"):
        sd = diagonalize(m)
    with tr.span("protocol.find_transfer_time"):
        res = find_transfer_time(spec, sd)
    with tr.span("fidelity.average_fidelity_exact"):
        bd = average_fidelity_exact(spec, res.t_star, sd)
    with tr.span("amplitudes.propagator"):
        amp = propagator(sd, res.t_star)
    s1, s2 = spec.senders
    r1, r2 = spec.receivers
    with tr.span("fidelity.average_fidelity_approx"):
        fa = average_fidelity_approx(amp.entry(s1, r1), amp.entry(s1, r2), amp.entry(s2, r1))
    return {"t_star": res.t_star, "F": res.fidelity, "F_exact_at_t_star": bd.value, "F_approx": fa}


def check_search(result: dict, ref: dict) -> Failure | None:
    """A search result fails if its F is not Fbar(t*) or misses the
    brute-force reference optimum by more than REFERENCE_TOLERANCE."""
    F, F_exact = result["F"], result["F_exact_at_t_star"]
    if not abs(F - F_exact) <= 1e-9:
        return Failure("inconsistent", f"F={F:.12f} differs from average_fidelity_exact(t*)="
                                       f"{F_exact:.12f} by {abs(F - F_exact):.2e} > 1e-9")
    if not F >= ref["F_ref"] - REFERENCE_TOLERANCE:
        return Failure("search_miss", f"F={F:.6f} at t*={result['t_star']:.4f} is below "
                                      f"F_ref={ref['F_ref']:.6f} at t_ref={ref['t_ref']:.4f} "
                                      f"by {ref['F_ref'] - F:.4f} > {REFERENCE_TOLERANCE:g}")
    return None


class SweepWorkload(Workload):
    menu: tuple = ()

    def __init__(self, seed, refs, workdir):
        super().__init__(seed, refs, workdir)
        table = {(r["N"], r["h"]): r for r in refs[self.name]}
        missing = [s for s in self.menu if s not in table]
        if missing:
            raise ValueError(f"references.json has no row for {missing}; "
                             "run python3 perfbench/make_references.py")
        self.table = table

    def warmup_inputs(self):
        N, h = min(self.menu, key=lambda s: s[0] * s[1])
        return [{"kind": "search", "N": N, "h": h}]

    def next_pass(self):
        return self.shuffled([{"kind": "search", "N": N, "h": h} for N, h in self.menu])

    def run(self, op, tr):
        return sweep_op(op["N"], op["h"], tr)

    def check(self, op, result):
        return check_search(result, self.table[(op["N"], op["h"])])


class RabiSweep(SweepWorkload):
    name = "rabi_sweep"
    pass_seconds = 0.65
    repeats = 5
    menu = RABI_MENU


class QuasiRabiSweep(SweepWorkload):
    name = "quasi_rabi_sweep"
    pass_seconds = 4.0
    # one pass per run: five runs of each search spread over the whole run
    repeats = 5
    menu = QUASI_MENU


# ------------------------------------------------------ fixed-time fidelity

FIDELITY_H = 100.0
MC_SAMPLES = 100_000
# worst_case_fidelity costs 1.4-6.8 s depending on t and its restart seed, so
# its input is fixed: N = 100 at the reference t*, restart seed 1 (about
# 1.4 s).  Only the order of the op within a pass is seeded.
WORST_N = 100
WORST_SEED = 1
# one pass: 15 + 15 + 1 exact, 5 + 5 Monte-Carlo, 1 worst case
PASS_MIX = (("exact", 46, 15), ("exact", 200, 15), ("exact", 1000, 1),
            ("mc", 46, 5), ("mc", 200, 5), ("worst", WORST_N, 1))


class FidelityEval(Workload):
    name = "fidelity_eval"
    pass_seconds = 1.8
    # the worst-case search is three quarters of a pass
    repeats = 5

    def __init__(self, seed, refs, workdir):
        super().__init__(seed, refs, workdir)
        self.t_max = math.pi * FIDELITY_H**2
        self.chains = {}
        for N in sorted({N for _, N, _ in PASS_MIX}):
            spec = ChainSpec(N=N, h=FIDELITY_H)
            self.chains[N] = (spec, diagonalize(build_single_particle(spec)))
        ref = {(r["N"], r["h"]): r for r in refs["rabi_sweep"]}[(WORST_N, FIDELITY_H)]
        self.t_worst = ref["t_ref"]

    def _op(self, kind, N):
        op = {"kind": kind, "N": N}
        if kind == "worst":
            op.update(t=self.t_worst, seed=WORST_SEED)
        else:
            op["t"] = float(self.rng.uniform(0.0, self.t_max))
        if kind == "mc":
            op["seed"] = int(self.rng.integers(2**31))
        return op

    def warmup_inputs(self):
        return [self._op("exact", 46), self._op("mc", 46), self._op("worst", WORST_N)]

    def next_pass(self):
        return self.shuffled([self._op(k, N) for k, N, n in PASS_MIX for _ in range(n)])

    def run(self, op, tr):
        spec, sd = self.chains[op["N"]]
        t = op["t"]
        if op["kind"] == "exact":
            with tr.span("fidelity.average_fidelity_exact"):
                bd = average_fidelity_exact(spec, t, sd)
            return {"value": bd.value, "terms": bd.terms, "amplitudes": bd.amplitudes}
        if op["kind"] == "mc":
            with tr.span("fidelity.haar_average_mc"):
                mean, stderr = haar_average_mc(spec, t, MC_SAMPLES, op["seed"], sd)
            return {"mean": mean, "stderr": stderr, "samples": MC_SAMPLES}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            with tr.span("fidelity.worst_case_fidelity"):
                _, fmin = worst_case_fidelity(spec, t, seed=op["seed"], sd=sd)
        budget = any("budget" in str(w.message) for w in caught)
        return {"fmin": fmin, "certified": not budget}

    def check(self, op, result):
        spec, sd = self.chains[op["N"]]
        if op["kind"] == "exact":
            value, a = result["value"], result["amplitudes"]
            total = sum(result["terms"].values())
            compact = fidelity_from_edge_amplitudes(a["f11"], a["f22"], a["g"])
            if not abs(total - value) <= 1e-10:
                return Failure("inconsistent", f"terms sum to {total:.15f}, value is {value:.15f}")
            if not abs(compact - value) <= 1e-10:
                return Failure("inconsistent", f"value {value:.15f} differs from "
                                               f"fidelity_from_edge_amplitudes {compact:.15f}")
            return None
        exact = average_fidelity_exact(spec, op["t"], sd).value
        if op["kind"] == "mc":
            dev = abs(result["mean"] - exact)
            if not dev <= 4.0 * result["stderr"]:
                return Failure("mc_outside_4se", f"MC mean {result['mean']:.6f} is "
                                                 f"{dev / result['stderr']:.1f} SE from exact {exact:.6f}")
            return None
        if not result["fmin"] <= exact:
            return Failure("inconsistent", f"worst case {result['fmin']:.6f} exceeds "
                                           f"the average {exact:.6f}")
        return None


# --------------------------------------------------------------- CLI session

RABI_SMALL_N = (30, 31, 33, 34, 36, 37, 39, 40, 42, 43, 45, 46)
CLI_SUBCOMMANDS = ("spectrum", "perturb", "transfer-time", "scan", "amplitudes",
                   "fidelity", "verify")


class CliSession(Workload):
    """Short `xxchain.cli.run` invocations, each with a fresh seeded h so the
    sector-oracle cache never hits."""

    name = "cli_session"
    pass_seconds = 0.3

    def _h(self, lo=40.0, hi=100.0):
        return repr(float(self.rng.uniform(lo, hi)))

    def _argv(self, sub):
        N = str(int(self.rng.choice(RABI_SMALL_N)))
        if sub == "scan":
            values = ",".join(self._h() for _ in range(3))
            return [sub, "--N", N, "--axis", "h", "--values", values]
        if sub == "amplitudes":
            return [sub, "--N", "46", "--h", self._h(), "--t0", "0", "--t1", "20000",
                    "--steps", "2000"]
        if sub == "fidelity":
            return [sub, "--N", N, "--h", self._h(), "--t-star", "--mc-samples", "20000",
                    "--seed", str(int(self.rng.integers(2**31)))]
        if sub == "verify":
            return [sub, "--N", str(int(self.rng.integers(12, 17))), "--h", self._h(10.0, 40.0),
                    "--seed", str(int(self.rng.integers(2**31)))]
        return [sub, "--N", N, "--h", self._h()]

    def _op(self, sub):
        argv = self._argv(sub)
        return {"kind": sub, "argv": argv + ["-o", os.path.join(self.workdir, f"{sub}.csv")]}

    def warmup_inputs(self):
        return [self._op(sub) for sub in CLI_SUBCOMMANDS]

    def next_pass(self):
        return self.shuffled([self._op(sub) for sub in CLI_SUBCOMMANDS])

    def run(self, op, tr):
        out = op["argv"][-1]
        for path in (out, out + ".manifest.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with tr.span(f"cli.{op['kind']}"):
                code = cli.run(op["argv"])
        return {"exit_code": code, "output": out, "log": sink.getvalue()}

    def check(self, op, result):
        out = result["output"]
        try:
            with open(out) as fh:
                rows = list(csv.reader(line for line in fh if not line.startswith("#")))
            with open(out + ".manifest.json") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            return Failure("bad_output", f"exit {result['exit_code']}: cannot read output: {exc}; "
                                         f"log: {result['log'].strip()[-200:]}")
        if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
            return Failure("bad_output", f"{out} has no rows or ragged rows")
        if manifest.get("subcommand") != op["kind"]:
            return Failure("bad_output", f"manifest names {manifest.get('subcommand')!r}")
        failed = [r[0] for r in rows[1:] if r[-1] == "FAIL"] if op["kind"] == "verify" else []
        if failed:
            kind = "verify_mc_3sigma" if failed == ["fidelity_vs_mc_3sigma"] else "verify_fail"
            return Failure(kind, f"verify FAIL rows: {', '.join(failed)}")
        if result["exit_code"] != 0:
            return Failure("exit_code", f"exit code {result['exit_code']}: "
                                        f"{result['log'].strip()[-200:]}")
        return None

    @staticmethod
    def bytes_written(result) -> int:
        out = result["output"]
        return sum(os.path.getsize(p) for p in (out, out + ".manifest.json") if os.path.exists(p))


WORKLOADS = {w.name: w for w in (RabiSweep, QuasiRabiSweep, FidelityEval, CliSession)}
