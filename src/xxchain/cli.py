"""Command-line interface: reproducible CSV/JSON artifacts for every experiment.

Subcommands: spectrum, amplitudes, fidelity, perturb, transfer-time, scan,
verify.  Each subcommand builds one table; run resolves the chain spec,
times the call and writes the table as a CSV (or JSON) data file starting
with a comment header naming the resolved chain spec and the tool version,
plus a JSON run-manifest with the full configuration and wall time.
--receiver-order is a fidelity option.  Exit codes: 0 on success, 1 on
validation errors, on any ValueError or ArithmeticError the library raises
and on output that cannot be written, 2 when a verify check fails (the
manifest lists it under "failed").
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import platform
import sys
import time
import warnings
from functools import lru_cache

import numpy as np
import scipy

from . import __version__
from .amplitudes import channel_occupation, propagator, propagator_rows
from .chain import ChainSpec, _check_in_chain, build_single_particle
from .fidelity import (
    WorstCaseBudgetWarning,
    _evaluator_weights,
    _fidelity_at,
    average_fidelity_approx,
    average_fidelity_exact,
    edge_products,
    haar_average_mc,
    worst_case_fidelity,
)
from .perturbation import (
    perturbative_energies,
    rabi_frequencies,
    transfer_time_estimate,
)
from .protocol import _SEARCH_WORK, find_transfer_time, scan as run_scan
from .sector_oracle import TwoQubitState, _sector_eig, evolve, reduced_receiver_state
from .spectral import (
    classify_chain,
    diagonalize,
    extended_indices,
    localization_profile,
    localized_indices,
)


class CliError(Exception):
    """Validation problem that should terminate with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_list(text, cast=float):
    parts = [p for chunk in str(text).split(",") for p in chunk.split()]
    try:
        return [cast(p) for p in parts if p]
    except ValueError as exc:
        raise CliError(f"cannot parse list {text!r}: {exc}")


def _load_config(path):
    """Flat key = value config file; '#' starts a comment, lists are
    comma- or space-separated."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CliError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key, val = (part.strip() for part in line.split("=", 1))
                values[key.replace("-", "_")] = val
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}")
    return values


def _resolve_spec(args) -> ChainSpec:
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    allowed = {"N", "h", "couplings", "fields", "senders", "receivers", "barriers"}
    for key in cfg:
        if key not in allowed:
            raise CliError(f"unknown config key {key!r}")

    def pick(name, flag_value):
        return flag_value if flag_value is not None else cfg.get(name)

    N = pick("N", args.N)
    h = pick("h", args.h)
    if N is None:
        raise CliError("chain length N is required (flag --N or config key N)")
    kwargs = {}
    for name, cast in (
        ("couplings", float),
        ("fields", float),
        ("senders", int),
        ("receivers", int),
        ("barriers", int),
    ):
        raw = pick(name, getattr(args, name, None))
        if raw is not None:
            kwargs[name] = tuple(_parse_list(raw, cast))
    try:
        return ChainSpec(N=int(N), h=float(h) if h is not None else 0.0, **kwargs)
    except (ValueError, TypeError) as exc:
        raise CliError(f"invalid chain spec: {exc}")


def _fmt(x):
    # ".12g" already spells nan (of either sign), inf, -inf and -0
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


@lru_cache(maxsize=64)
def _row_format(kinds: tuple) -> str | None:
    """One %-format for a CSV row whose cells have these types, or None.

    Floats take "%.12g" and other numbers "%s", which spell each cell as
    _fmt does and need no quoting.  A row with any other cell, such as a
    string that may hold a comma, is None: it goes through csv.writer.
    The rows of one table share their cell types, so each table builds its
    format once.
    """
    if not all(issubclass(k, (int, float, np.number)) for k in kinds):
        return None
    return ",".join("%.12g" if issubclass(k, float) else "%s" for k in kinds) + "\n"


# Rows per block of _write_rows: one %-format and one write per block.  A
# 2000 x 12 float table, amplitudes' default at --steps 2000, took 10.4 ms
# with 256 against 12.3 ms with 1 and 11.4 ms with 4096 (median of 30, one
# core of a 2-core x86 VM); formatting each float with %.12g is most of it.
_ROWS_PER_BLOCK = 256


def _write_rows(fh, rows):
    """Write rows as csv.writer writes [_fmt(v) for v in row], "\n"-ended.

    rows is a list of rows or a 2-D number array.  Each run of consecutive
    all-number rows that share _row_format's format, and every row of an
    array, is written in blocks of _ROWS_PER_BLOCK rows, one %-format and
    one fh.write per block; an array's cells are read as one flat list, so
    no row becomes a list of its own.  Other rows go through csv.writer.
    """
    if isinstance(rows, np.ndarray):
        fmt = _row_format((rows.dtype.type,) * rows.shape[1])
        for lo in range(0, len(rows), _ROWS_PER_BLOCK):
            block = rows[lo : lo + _ROWS_PER_BLOCK]
            fh.write(fmt * len(block) % tuple(block.ravel().tolist()))
        return
    writer = csv.writer(fh, lineterminator="\n")
    for fmt, run in itertools.groupby(rows, key=lambda row: _row_format(tuple(map(type, row)))):
        if fmt is None:
            writer.writerows([_fmt(v) for v in row] for row in run)
            continue
        run = list(run)
        for lo in range(0, len(run), _ROWS_PER_BLOCK):
            block = run[lo : lo + _ROWS_PER_BLOCK]
            fh.write(fmt * len(block) % tuple(itertools.chain.from_iterable(block)))


def _finite_or_null(obj):
    """obj with every non-finite float, in any dict or list, made None.

    JSON has no NaN or infinity; json.dump would write the bare tokens NaN
    and Infinity, which strict parsers reject.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    return obj


def _output_path(args, default_name: str) -> str:
    if args.output:
        return args.output
    outdir = os.environ.get("XXCHAIN_OUTPUT_DIR", ".")
    return os.path.join(outdir, default_name)


# BLAS thread settings the manifest records, unset ones as null
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Library versions and thread settings of the run, for its manifest.

    Reads only modules that importing xxchain has loaded already.
    """
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in _THREAD_VARS},
    }


def _dump_json(fh, obj):
    json.dump(_finite_or_null(obj), fh, indent=2, default=str, allow_nan=False)
    fh.write("\n")


def _write_result(args, spec, columns, rows, diagnostics, t0):
    """Write the data file (CSV or JSON) and its JSON run-manifest.

    A write that fails removes the files this call wrote, so a data file is
    never left without its manifest, and raises CliError.
    """
    path = _output_path(args, f"{args.subcommand.replace('-', '_')}.csv")
    head = {
        "tool": "xxchain",
        "version": __version__,
        "subcommand": args.subcommand,
        # the spec's fields; dataclasses.asdict would deep-copy each float
        "spec": vars(spec),
    }
    if args.format == "json" and not path.endswith(".json"):
        path = os.path.splitext(path)[0] + ".json"
    written = []
    try:
        with open(path, "w") as fh:
            written.append(path)
            if args.format == "json":
                if isinstance(rows, np.ndarray):
                    rows = rows.tolist()
                _dump_json(fh, {**head, "columns": columns, "rows": rows,
                                "diagnostics": diagnostics})
            else:
                fh.write(f"# xxchain {__version__} :: {args.subcommand}\n")
                fh.write(f"# spec: N={spec.N} h={_fmt(spec.h)} senders={spec.senders} "
                         f"receivers={spec.receivers} barriers={spec.barriers}\n")
                _write_rows(fh, [columns])
                _write_rows(fh, rows)
        unused = {"func", "subcommand"}
        if getattr(args, "t", None) is not None or getattr(args, "t_star", False):
            unused |= {"t0", "t1", "steps"}  # one time, not the grid
        manifest = {
            **head,
            "options": {k: v for k, v in vars(args).items() if k not in unused and v is not None},
            "output": path,
            "wall_time_s": time.perf_counter() - t0,
            "environment": _environment(),
            "diagnostics": diagnostics,
        }
        with open(path + ".manifest.json", "w") as fh:
            written.append(fh.name)
            _dump_json(fh, manifest)
    except OSError as exc:
        for name in written:
            os.remove(name)
        raise CliError(f"cannot write {path}: {exc}")
    print(f"wrote {path}")


# Complex entries of propagator_rows per chunk of the amplitudes time grid
# (128 kB), so that memory stays bounded at large N and on long grids; each
# chunk is written into the one float table of the call.  For 2000 steps at
# N = 46 on one core of a 2-core x86 VM, a first amplitudes call in a
# process raised its peak RSS by 0.2 MB with 2^13 entries and by 9.7 MB with
# 2^18 (one chunk), and a whole call took 27-28 ms against 35-38 ms (median
# of 15).  For 300 steps at N = 1000, 2^13 took 228-246 ms against
# 154-162 ms, at +20.5 against +28.7 MB, the eigenvectors included.
_ROWS_PER_CHUNK = 1 << 13


def _time_grid(args):
    for flag in ("t", "t0", "t1"):
        value = getattr(args, flag)
        if value is not None and not np.isfinite(value):
            raise CliError(f"--{flag} must be finite, got {value}")
    if args.t is not None:
        return np.array([args.t])
    if args.steps < 1:
        raise CliError("--steps must be >= 1")
    return np.linspace(args.t0, args.t1, args.steps)


# ---------------------------------------------------------------- subcommands
# Each _cmd_*(args, spec) returns its table as (columns, rows, diagnostics);
# rows is a list of rows or, for amplitudes, one float array.


def _cmd_spectrum(args, spec):
    sd = diagonalize(build_single_particle(spec))
    if args.sites:
        sites = _parse_list(args.sites, int)
    else:
        s1, s2 = spec.senders
        r1, r2 = spec.receivers
        sites = [s1, s2, r1, r2]
    weight = localization_profile(sd, sites)
    if args.full:
        sites = list(range(1, spec.N + 1))
    columns = ["k", "eps_k", "edge_weight"] + [f"a_k_{s}" for s in sites]
    rows = []
    for k in range(spec.N):
        row = [k + 1, float(sd.eigenvalues[k]), float(weight[k])]
        row += [float(sd.eigenvectors[k, s - 1]) for s in sites]
        rows.append(row)
    regime = classify_chain(spec.N)
    diag = {"regime": regime, "localized_indices": list(localized_indices(spec.N))}
    if regime == "quasi-rabi":
        diag["extended_indices"] = list(extended_indices(spec.N))
    return columns, rows, diag


def _cmd_amplitudes(args, spec):
    sd = diagonalize(build_single_particle(spec))
    s1, s2 = spec.senders
    r1, r2 = spec.receivers
    f_entries = [tuple(_parse_list(s, int)) for s in (args.f or [])]
    g_entries = [tuple(_parse_list(s, int)) for s in (args.g or [])]
    if not f_entries and not g_entries:
        f_entries = [(s1, r1), (s1, r2), (s2, r1), (s2, r2)]
        g_entries = [(s1, s2, r1, r2)]
    # every site, not only the source rows propagator_rows checks: a target
    # column of 0 would read the last site
    for e in f_entries:
        if len(e) != 2:
            raise CliError(f"--f expects 'n,m', got {e}")
        _check_in_chain(spec.N, e)
    for e in g_entries:
        if len(e) != 4:
            raise CliError(f"--g expects 'n,m,r,s', got {e}")
        _check_in_chain(spec.N, e)
        if not (e[0] < e[1] and e[2] < e[3]):
            raise CliError(f"--g expects ordered pairs n < m and r < s, got {e}")
    ts = _time_grid(args)
    columns = ["t"]
    for n, m in f_entries:
        columns += [f"re_f_{n}_{m}", f"im_f_{n}_{m}"]
    for n, m, r, s in g_entries:
        columns += [f"re_g_{n}{m}_{r}{s}", f"im_g_{n}{m}_{r}{s}"]
    columns.append("channel_occupation")
    # the propagator rows of the senders and of every source site: f_n^m
    # is entry m of row n, and g_{nm}^{rs} the determinant of rows n, m
    sources = sorted({s1, s2, *(e[0] for e in f_entries), *(n for e in g_entries for n in e[:2])})
    at = {site: i for i, site in enumerate(sources)}
    chunk = max(1, _ROWS_PER_CHUNK // (len(sources) * spec.N))
    table = np.empty((len(ts), len(columns)))
    for lo in range(0, len(ts), chunk):
        tc = ts[lo : lo + chunk]
        R = propagator_rows(sd, sources, tc)
        out = table[lo : lo + chunk]

        def f(n, m):
            return R[:, at[n], m - 1]

        amps = [f(n, m) for n, m in f_entries]
        amps += [f(n, r) * f(m, s) - f(n, s) * f(m, r) for n, m, r, s in g_entries]
        out[:, 0] = tc
        for j, z in enumerate(amps):
            out[:, 2 * j + 1] = z.real
            out[:, 2 * j + 2] = z.imag
        out[:, -1] = channel_occupation(R[:, [at[s1], at[s2]]], spec)
    return columns, table, {}


def _cmd_fidelity(args, spec):
    if args.t_star and args.t is not None:
        raise CliError("--t and --t-star cannot be used together")
    if (args.mc_samples is not None or args.worst_case) and args.seed is None:
        raise CliError("--seed is required with --mc-samples or --worst-case")
    sd = diagonalize(build_single_particle(spec))
    if args.t_star:
        ts = np.array([find_transfer_time(spec, sd).t_star])
    else:
        ts = _time_grid(args)
    # F_approx reads the spec's receiver order, whatever --receiver-order
    weights = _evaluator_weights(sd.eigenvalues, edge_products(spec, sd))
    columns = ["t", "F_exact", "F_approx", "F_mc_mean", "F_mc_stderr", "F_min"]
    rows = []
    certified = []
    # every time's Monte-Carlo average from one seeded sample
    mc_means = mc_errs = np.full(len(ts), np.nan)
    if args.mc_samples is not None:
        mc_means, mc_errs = haar_average_mc(
            spec, ts, args.mc_samples, args.seed, sd, args.receiver_order
        )
    for t, mc_mean, mc_err in zip(ts.tolist(), mc_means.tolist(), mc_errs.tolist()):
        bd = average_fidelity_exact(spec, t, sd, args.receiver_order)
        f11, f12, f21, _ = _fidelity_at(sd.eigenvalues, weights, t)[3]
        fa = average_fidelity_approx(f11, f12, f21)
        fmin = float("nan")
        if args.worst_case:
            # the manifest records the status; the warnings are re-issued
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _, fmin = worst_case_fidelity(
                    spec, t, seed=args.seed, sd=sd, receiver_order=args.receiver_order
                )
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            certified.append(
                not any(issubclass(w.category, WorstCaseBudgetWarning) for w in caught)
            )
        rows.append([t, bd.value, fa, mc_mean, mc_err, fmin])
    return columns, rows, {"worst_case_certified": certified} if args.worst_case else {}


def _cmd_perturb(_args, spec):
    if classify_chain(spec.N) == "quasi-rabi":
        raise CliError(
            f"N = {spec.N} is quasi-Rabi (N = 3n - 1); perturbative quadruplet "
            "energies apply to the Rabi regime only"
        )
    sd = diagonalize(build_single_particle(spec))
    idx = localized_indices(spec.N)
    exact = [float(sd.eigenvalues[k - 1]) for k in idx]
    freqs = rabi_frequencies(exact)
    # the t* search's check, read before the cubic so that it keeps h = 1e200
    # from it
    t1 = freqs.envelope_time
    ps = perturbative_energies(spec.N, spec.h)
    pert = sorted(ps.lambdas.values())
    columns = ["k", "eps_exact", "lambda_perturbative", "rel_error"]
    rows = []
    for k, e, lam in zip(idx, exact, pert):
        rows.append([k, e, lam, abs(lam - e) / max(abs(e), 1e-300)])
    diag = {
        "cubic_roots": list(ps.roots),
        "omega0_plus": freqs.omega0_plus,
        "omega0_minus": freqs.omega0_minus,
        "omega1_plus": freqs.omega1_plus,
        "omega1_minus": freqs.omega1_minus,
        "t1_closed_form": transfer_time_estimate(spec.N, spec.h),
        "t1_from_spectrum": t1,
    }
    return columns, rows, diag


# The row of one TransferTimeResult, as transfer-time prints it and scan
# prints it per point, followed there by the point's error
_RECORD_COLUMNS = [
    "N", "h", "regime", "t_star", "F_exact", "F_approx",
    "t1_estimate", "window_lo", "window_hi",
]


def _record_row(r) -> list:
    return [r.N, r.h, r.regime, r.t_star, r.fidelity, r.F_approx, r.t1_estimate, *r.search_window]


def _cmd_transfer_time(_args, spec):
    rec = find_transfer_time(spec)
    # the grid scan's work goes to the manifest, not the CSV columns
    diag = {key: getattr(rec, key) for key in ("candidate", "candidate_fidelity", *_SEARCH_WORK)}
    return _RECORD_COLUMNS, [_record_row(rec)], diag


def _cmd_scan(args, spec):
    values = _parse_list(args.values, float if args.axis == "h" else int)
    records = run_scan(spec, args.axis, values)
    rows = [_record_row(r) + [r.error] for r in records]
    diag = {key: [getattr(r, key) for r in records] for key in _SEARCH_WORK}
    return _RECORD_COLUMNS + ["error"], rows, diag


def _cmd_verify(args, spec):
    rng = np.random.default_rng(args.seed)
    N = spec.N
    if N > 16:
        raise CliError(f"verify caps N at 16 (two-excitation oracle cost), got {N}")
    sd = diagonalize(build_single_particle(spec))
    # the dense sector eigensolutions, shared with evolve below
    (w1, v1), (w2, v2) = _sector_eig(spec)
    # the two-excitation basis |n, m>, n < m, in SectorBasis.pairs' order
    # (0-based sites), and the position of the sender pair in it
    n, m = np.triu_indices(N, 1)
    s1, s2 = (s - 1 for s in spec.senders)
    src = np.flatnonzero((n == s1) & (m == s2))[0]
    checks = []

    times = rng.uniform(0.0, 30.0, size=10)

    # one-excitation propagator and two-excitation determinant (all ordered
    # pairs) vs dense sector evolution, from one propagator per time
    worst1 = worst2 = 0.0
    for t in times:
        f = propagator(sd, t).f
        U = (v1 * np.exp(-1j * w1 * t)) @ v1.conj().T
        worst1 = max(worst1, float(np.max(np.abs(U - f))))
        g = f[s1, n] * f[s2, m] - f[s1, m] * f[s2, n]
        column = v2 @ (np.exp(-1j * w2 * t) * v2[src].conj())
        worst2 = max(worst2, float(np.max(np.abs(g - column))))
    checks.append(("propagator_vs_dense", worst1, 1e-10))
    checks.append(("two_particle_vs_dense", worst2, 1e-10))

    # free-fermion pairing of the two-excitation spectrum
    eps = sd.eigenvalues
    sums = np.sort(eps[n] + eps[m])
    checks.append(("h2_pairwise_sums", float(np.max(np.abs(np.sort(w2) - sums))), 1e-9))

    # reduced receiver state: trace, hermiticity, positivity
    worst = 0.0
    for _ in range(5):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = TwoQubitState.from_vector(z)
        es = evolve(spec, state, float(rng.uniform(0, 30)))
        rho = reduced_receiver_state(spec, es)
        worst = max(worst, abs(np.trace(rho).real - 1.0))
        worst = max(worst, float(np.max(np.abs(rho - rho.conj().T))))
        worst = max(worst, max(0.0, -float(np.min(np.linalg.eigvalsh(rho)))))
    checks.append(("reduced_state_properties", worst, 1e-10))

    # closed-form average fidelity vs Monte-Carlo Haar sampling, the three
    # times from one seeded sample
    worst = 0.0
    means, errs = haar_average_mc(spec, times[:3], 20000, args.seed, sd)
    for t, mean, err in zip(times[:3].tolist(), means.tolist(), errs.tolist()):
        bd = average_fidelity_exact(spec, t, sd)
        worst = max(worst, abs(mean - bd.value) / max(err, 1e-300) / 3.0)
    checks.append(("fidelity_vs_mc_3sigma", worst, 1.0))

    columns = ["check", "worst_residual", "tolerance", "status"]
    rows = []
    for name, residual, tol in checks:
        status = "PASS" if residual <= tol else "FAIL"
        rows.append([name, float(residual), float(tol), status])
        print(f"{name}: worst residual {residual:.3e} (tol {tol:.0e}) {status}")
    failed = [row[0] for row in rows if row[-1] == "FAIL"]
    return columns, rows, {"seed": args.seed, "failed": failed}


# -------------------------------------------------------------------- parser


def _seed(text: str) -> int:
    """The --seed type: a non-negative integer, as np.random.default_rng takes."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _add_spec_options(p):
    p.add_argument("--N", type=int, help="chain length (>= 6)")
    p.add_argument("--h", type=float, help="barrier field strength")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--couplings", help="N-1 bond couplings, comma separated")
    p.add_argument("--fields", help="N on-site fields, comma separated")
    p.add_argument("--senders", help="sender pair, e.g. 1,2")
    p.add_argument("--receivers", help="receiver pair, e.g. 45,46")
    p.add_argument("--barriers", help="barrier pair, e.g. 3,44")


def _add_output_options(p):
    p.add_argument("-o", "--output", help="output file (default: <subcommand>.csv "
                   "in $XXCHAIN_OUTPUT_DIR or the working directory)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_time_options(p):
    p.add_argument("--t", type=float, help="single evaluation time")
    p.add_argument("--t0", type=float, default=0.0, help="grid start time")
    p.add_argument("--t1", type=float, default=10.0, help="grid end time")
    p.add_argument("--steps", type=int, default=101, help="grid point count")


def build_parser() -> _Parser:
    parser = _Parser(prog="xxchain", description=__doc__)
    parser.add_argument("--version", action="version", version=f"xxchain {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues and eigenvector weights")
    p.add_argument("--sites", help="sites for the localization columns, e.g. 1,2,45,46")
    p.add_argument("--full", action="store_true", help="dump the full eigenvector matrix")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("amplitudes", help="transfer amplitude time series")
    _add_time_options(p)
    p.add_argument("--f", action="append", help="single-particle entry 'n,m' (repeatable)")
    p.add_argument("--g", action="append", help="two-particle entry 'n,m,r,s' (repeatable)")
    p.set_defaults(func=_cmd_amplitudes)

    p = sub.add_parser("fidelity", help="average / Monte-Carlo / worst-case fidelity")
    _add_time_options(p)
    p.add_argument("--t-star", dest="t_star", action="store_true",
                   help="evaluate at the optimal readout time")
    p.add_argument("--mc-samples", dest="mc_samples", type=int,
                   help="Monte-Carlo Haar sample count")
    p.add_argument("--seed", type=_seed, help="RNG seed (required for MC / worst case)")
    p.add_argument("--worst-case", dest="worst_case", action="store_true",
                   help="also minimize over input states")
    p.add_argument("--receiver-order", dest="receiver_order", choices=("12", "21"),
                   default="12", help="receiver qubit assignment: '12' puts qubit 1 "
                   "on the first receiver site, '21' mirrors it")
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("perturb", help="perturbative quadruplet vs exact spectrum")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("transfer-time", help="optimal readout time search")
    p.set_defaults(func=_cmd_transfer_time)

    p = sub.add_parser("scan", help="sweep h or N, one row per point")
    p.add_argument("--axis", choices=("h", "N"), required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="fast path vs brute-force sector oracle")
    p.add_argument("--seed", type=_seed, default=0, help="RNG seed for the random checks")
    p.set_defaults(func=_cmd_verify)

    for p in sub.choices.values():
        _add_spec_options(p)
        _add_output_options(p)
    return parser


@lru_cache(maxsize=1)
def _shared_parser() -> _Parser:
    """The parser run uses, built on its first call.  Building one takes
    about 3 ms; parse_args keeps no state between calls, since each call
    fills a fresh namespace and "append" copies its default."""
    return build_parser()


def run(argv=None) -> int:
    """Build the subcommand's table and write it; exit 2 on failed checks.

    A CliError, ValueError or ArithmeticError is one "error: <message>"
    line and exit 1; any other exception propagates.
    """
    try:
        args = _shared_parser().parse_args(argv)
        t0 = time.perf_counter()
        spec = _resolve_spec(args)
        columns, rows, diagnostics = args.func(args, spec)
        _write_result(args, spec, columns, rows, diagnostics, t0)
    except (CliError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if diagnostics.get("failed") else 0


if __name__ == "__main__":
    sys.exit(run())
