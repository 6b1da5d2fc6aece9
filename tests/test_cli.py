import csv
import dataclasses
import io
import json
import os
import platform
import re
import warnings

import numpy as np
import pytest
import scipy

import xxchain.cli as cli_module
import xxchain.fidelity as fidelity_module
import xxchain.sector_oracle as oracle_module
import xxchain.spectral as spectral_module
from conftest import pair_amplitude
from xxchain.amplitudes import channel_occupation, propagator, propagator_rows
from xxchain.chain import ChainSpec, build_single_particle
from xxchain.cli import run
from xxchain.fidelity import WorstCaseBudgetWarning, average_fidelity_exact, haar_average_mc
from xxchain.protocol import find_transfer_time
from xxchain.sector_oracle import verify
from xxchain.spectral import diagonalize


def read_csv(path):
    comments, header, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


def strict_json(path):
    """Parse a JSON file, rejecting the non-JSON tokens NaN and Infinity."""
    def reject(token):
        raise ValueError(f"{path.name} holds {token}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture(autouse=True)
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("XXCHAIN_OUTPUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_verify_passes(self, capsys):
        assert run(["verify", "--N", "8", "--h", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_verify_failure_exits_2_and_names_the_checks(self, outdir, monkeypatch):
        # one entry of the first sender's propagator row moved by 1e-6: the
        # one- and two-excitation checks fail, the others do not read it
        real = oracle_module.propagator

        def skewed(sd, t):
            amp = real(sd, t)
            f = amp.f.copy()
            f[0, 0] += 1e-6
            return dataclasses.replace(amp, f=f)

        monkeypatch.setattr(oracle_module, "propagator", skewed)
        assert run(["verify", "--N", "8", "--h", "5", "--seed", "1"]) == 2
        _, header, rows = read_csv(outdir / "verify.csv")
        status = {row[0]: row[header.index("status")] for row in rows}
        failing = ["propagator_vs_dense", "two_particle_vs_dense"]
        assert [name for name, s in status.items() if s == "FAIL"] == failing
        assert set(status.values()) == {"PASS", "FAIL"} and len(status) == 5
        manifest = strict_json(outdir / "verify.csv.manifest.json")
        assert manifest["diagnostics"] == {"seed": 1, "failed": failing}

    def test_verify_design_row_catches_a_form_moved_by_1e_9(self, outdir, monkeypatch):
        # W[0, 0] moved by 1e-9 moves the design mean by about 2e-10 at
        # (12, 20): far above the row's 1e-12, far below the 3-sigma of the
        # 20 000-sample Monte-Carlo row it replaced (about 4e-3)
        real = fidelity_module._state_forms

        def skewed(E0, K):
            W = real(E0, K)
            W[0, 0] += 1e-9
            return W

        monkeypatch.setattr(fidelity_module, "_state_forms", skewed)
        assert run(["verify", "--N", "12", "--h", "20", "--seed", "1"]) == 2
        _, header, rows = read_csv(outdir / "verify.csv")
        status = {row[0]: row[header.index("status")] for row in rows}
        assert [name for name, s in status.items() if s == "FAIL"] == ["fidelity_vs_design"]
        assert len(status) == 5
        manifest = strict_json(outdir / "verify.csv.manifest.json")
        assert manifest["diagnostics"] == {"seed": 1, "failed": ["fidelity_vs_design"]}

    def test_verify_passes_on_every_seed(self, outdir):
        # no row is statistical: a correct program passes on every seed
        for seed in range(40):
            N, h = 6 + seed % 11, 1.0 + 7.0 * (seed % 13)
            argv = ["verify", "--N", str(N), "--h", str(h), "--seed", str(seed)]
            assert run(argv) == 0, argv

    @pytest.mark.parametrize("N, h, seed", [(8, 5.0, 1), (12, 20.0, 1)])
    def test_verify_writes_the_library_rows(self, N, h, seed, outdir, capsys):
        argv = ["verify", "--N", str(N), "--h", str(h), "--seed", str(seed)]
        assert run(argv + ["--format", "json"]) == 0
        table = strict_json(outdir / "verify.json")
        checks = verify(ChainSpec(N=N, h=h), seed)
        assert table["rows"] == [[*check, "PASS"] for check in checks]
        printed = capsys.readouterr().out.splitlines()[:-1]  # then "wrote ..."
        assert [line.split(":")[0] for line in printed] == [name for name, _, _ in checks]
        assert run(argv) == 0
        _, _, rows = read_csv(outdir / "verify.csv")
        assert rows == [[name, f"{r:.12g}", f"{tol:.12g}", "PASS"] for name, r, tol in checks]

    def test_verify_caps_N_at_16(self, outdir, capsys):
        message = "verify caps N at 16 (two-excitation oracle cost), got 17"
        with pytest.raises(ValueError, match=re.escape(message)):
            verify(ChainSpec(N=17, h=20.0), 1)
        assert run(["verify", "--N", "17", "--h", "20"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(outdir.iterdir())

    def test_verify_records_its_default_seed(self, outdir):
        assert run(["verify", "--N", "8", "--h", "5"]) == 0
        manifest = strict_json(outdir / "verify.csv.manifest.json")
        assert manifest["options"]["seed"] == 0
        assert manifest["diagnostics"] == {"seed": 0, "failed": []}

    def test_negative_verify_seed_rejected(self, outdir, capsys):
        assert run(["verify", "--N", "8", "--h", "5", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "--seed: must be a non-negative integer, got -1" in err
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum"],
            ["amplitudes", "--t", "1"],
            ["perturb"],
            ["transfer-time"],
            ["scan", "--axis", "h", "--values", "60"],
            ["verify", "--N", "8", "--h", "5", "--seed", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_receiver_order_is_a_fidelity_option(self, argv, outdir, capsys):
        base = argv if argv[0] == "verify" else argv + ["--N", "30", "--h", "60"]
        assert run(base + ["--receiver-order", "21"]) == 1
        assert "unrecognized arguments: --receiver-order 21" in capsys.readouterr().err
        assert not list(outdir.iterdir())
        assert run(base) == 0
        manifest = strict_json(next(outdir.glob("*.manifest.json")))
        assert "receiver_order" not in manifest["options"]

    @pytest.mark.parametrize(
        "output, blocker",
        [("MISSING/t.csv", None), ("t.csv", "t.csv.manifest.json")],
        ids=["data-dir-missing", "manifest-is-a-dir"],
    )
    def test_write_error_is_an_error_line(self, output, blocker, outdir, capsys):
        # a missing directory fails the data write; a directory in the
        # manifest's place fails the manifest write after the data file was
        # written, which must not be left without its manifest
        if blocker:
            (outdir / blocker).mkdir()
        assert run(["transfer-time", "--N", "30", "--h", "60", "-o", output]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {output}: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert [p.name for p in outdir.iterdir()] == ([blocker] if blocker else [])

    def test_t_with_t_star_rejected(self, outdir, capsys):
        assert run(["fidelity", "--N", "10", "--h", "5", "--t", "3", "--t-star"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--t and --t-star" in err
        assert not list(outdir.iterdir())

    def test_invalid_spec(self, capsys):
        assert run(["spectrum", "--N", "4"]) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_missing_seed_for_mc(self, capsys):
        assert run(["fidelity", "--N", "8", "--t", "1.0", "--mc-samples", "500"]) == 1
        assert "seed" in capsys.readouterr().err.lower()

    def test_unknown_config_key(self, outdir, capsys):
        cfg = outdir / "bad.cfg"
        cfg.write_text("N = 8\nbogus = 1\n")
        assert run(["spectrum", "--config", str(cfg)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["amplitudes", "--t", "100", "--f", "0,5"],
            ["amplitudes", "--t", "100", "--f", "1,47"],
            ["amplitudes", "--t", "100", "--f", "1,x"],
            ["amplitudes", "--t", "100", "--g", "2,1,45,46"],
            ["amplitudes", "--t", "100", "--g", "1,2,46,45"],
            ["amplitudes", "--t", "100", "--g", "1,2,45,47"],
            ["spectrum", "--sites", "0,1"],
        ],
        ids=["f-site-0", "f-site-N+1", "f-not-int", "g-source-unordered",
             "g-target-unordered", "g-site-N+1", "sites-0"],
    )
    def test_bad_site_rejected(self, argv, outdir, capsys):
        assert run(argv + ["--N", "46", "--h", "50"]) == 1
        assert "error" in capsys.readouterr().err.lower()
        assert not list(outdir.iterdir())


    @pytest.mark.parametrize(
        "argv",
        [
            ["--t", "1.0", "--mc-samples", "50"],
            ["--t", "1.0", "--mc-samples", "0"],
            ["--t", "1e400"],
            ["--t", "nan"],
            ["--t0", "-inf"],
            ["--t1", "1e400", "--steps", "3"],
            ["--t", "1.0", "--mc-samples", "200", "--seed", "-1"],
            ["--t", "1.0", "--worst-case", "--seed", "-1"],
        ],
        ids=["mc-50", "mc-0", "t-overflow", "t-nan", "t0-inf", "t1-overflow",
             "mc-negative-seed", "worst-case-negative-seed"],
    )
    def test_bad_fidelity_input_rejected(self, argv, outdir, capsys):
        assert run(["fidelity", "--N", "8", "--h", "3", "--seed", "1"] + argv) == 1
        assert "error:" in capsys.readouterr().err
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize(
        "flags",
        [
            ["--h", "nan"],
            ["--h", "inf"],
            ["--couplings", ",".join(["1"] * 14 + ["nan"] + ["1"] * 14)],
            ["--fields", ",".join(["0"] * 29 + ["inf"])],
        ],
        ids=["h-nan", "h-inf", "couplings-nan", "fields-inf"],
    )
    def test_nonfinite_spec_rejected(self, flags, outdir, capsys):
        assert run(["transfer-time", "--N", "30", *flags]) == 1
        err = capsys.readouterr().err
        assert "error: invalid chain spec" in err and "must be finite" in err
        assert "Traceback" not in err
        assert not list(outdir.iterdir())

    def test_nonfinite_scan_point_is_an_error_row(self, outdir):
        # the failed point's NaNs are null in the manifest and in a JSON data
        # file, which a strict parser then accepts
        for fmt in ("csv", "json"):
            argv = ["scan", "--N", "30", "--axis", "h", "--values", "nan,60", "--format", fmt]
            assert run(argv) == 0
            manifest = strict_json(outdir / f"scan.{fmt}.manifest.json")
            assert manifest["diagnostics"]["truncation_bound"][0] is None
        payload = strict_json(outdir / "scan.json")
        errors = [dict(zip(payload["columns"], row))["error"] for row in payload["rows"]]
        assert errors == ["barrier field h must be finite, got nan", ""]
        assert payload["rows"][0][3:9] == [None] * 6
        assert payload["diagnostics"]["truncation_bound"][0] is None

    def test_error_rows_keep_the_header_width(self, outdir):
        # ChainSpec messages hold commas; the error field is quoted, not split
        assert run(["scan", "--N", "30", "--axis", "h", "--values", "nan,-1,60"]) == 0
        with open(outdir / "scan.csv", newline="") as fh:
            header, *rows = csv.reader(line for line in fh if not line.startswith("#"))
        assert [len(row) for row in rows] == [len(header)] * 3
        assert [row[header.index("error")] for row in rows] == [
            "barrier field h must be finite, got nan",
            "barrier field h must be >= 0, got -1.0",
            "",
        ]

    @pytest.mark.parametrize("line", ["N = 30.5", "h = sixty"], ids=["N-float", "h-word"])
    def test_malformed_config_value_rejected(self, line, outdir, capsys):
        cfg = outdir / "bad.cfg"
        cfg.write_text(f"N = 30\nh = 60\n{line}\n")
        assert run(["transfer-time", "--config", str(cfg)]) == 1
        assert "error: invalid chain spec: " in capsys.readouterr().err
        assert list(outdir.iterdir()) == [cfg]

    def test_nonfinite_amplitudes_time_rejected(self, outdir, capsys):
        assert run(["amplitudes", "--N", "8", "--t", "1e400"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_perturb_short_chain_rejected(self, outdir, capsys):
        # ChainSpec admits N = 6, but the perturbative quadruplet needs N >= 7
        assert run(["perturb", "--N", "6", "--h", "10"]) == 1
        assert "error: N must be >= 7, got 6" in capsys.readouterr().err
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            # h is finite, but 2 h overflows the one-excitation matrix to inf
            (["spectrum", "--N", "7", "--h", "1e308"],
             "error: invalid chain spec: all fields must be finite when doubled"),
            (["spectrum", "--N", "7", "--couplings", "1,1,1e308,1,1,1"],
             "error: invalid chain spec: all couplings must be finite when doubled"),
            # at h = 1e200 the quadruplet's slow frequency rounds to zero
            (["transfer-time", "--N", "30", "--h", "1e200"],
             "error: degenerate quadruplet"),
            (["fidelity", "--N", "30", "--h", "1e200", "--t-star"],
             "error: degenerate quadruplet"),
            (["transfer-time", "--N", "29", "--h", "1e200"],
             "error: degenerate quadruplet: slow envelope frequency is zero"),
            # the quasi-Rabi window [0, N h] would take 3.7e14 grid points
            (["transfer-time", "--N", "29", "--h", "1e12"],
             "error: the t* screen of "),
            # perturb checks the exact quadruplet before the cubic sees h
            (["perturb", "--N", "30", "--h", "1e12"],
             "error: degenerate quadruplet: slow envelope frequency is zero"),
            (["perturb", "--N", "30", "--h", "1e200"],
             "error: degenerate quadruplet: slow envelope frequency is zero"),
            # a channel denominator of 1.2e-16 wrote lambda = -8.2e15
            (["perturb", "--N", "7", "--h", "0"],
             "error: channel momentum k = 1 is resonant with cubic root x2 = 0: "),
        ],
        ids=["h-doubled-overflow", "coupling-doubled-overflow", "transfer-time-degenerate",
             "fidelity-t-star-degenerate", "quasi-rabi-degenerate", "quasi-rabi-screen-too-large",
             "perturb-degenerate-1e12", "perturb-degenerate-1e200",
             "perturb-roundoff-resonance"],
    )
    def test_extreme_field_is_an_error_line(self, argv, message, outdir, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(outdir.iterdir())

    @pytest.mark.parametrize("error", [ValueError, ArithmeticError])
    def test_library_error_is_an_error_line(self, error, outdir, capsys, monkeypatch):
        # run alone turns a library error into exit 1; no subcommand re-wraps it
        def boom(*args, **kwargs):
            raise error("boom")

        monkeypatch.setattr(cli_module, "find_transfer_time", boom)
        assert run(["transfer-time", "--N", "30", "--h", "60"]) == 1
        assert capsys.readouterr().err == "error: boom\n"
        assert not list(outdir.iterdir())

    def test_eigensolver_failure_is_an_error_line(self, outdir, capsys, monkeypatch):
        # numpy's LinAlgError is a ValueError, which run reports, and which
        # scan records as the failed point's error
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(spectral_module, "eigh_tridiagonal", no_convergence)
        assert run(["spectrum", "--N", "30", "--h", "60"]) == 1
        assert capsys.readouterr().err == "error: eigenvalues did not converge\n"
        assert not list(outdir.iterdir())
        assert run(["scan", "--N", "30", "--axis", "h", "--values", "60"]) == 0
        _, header, rows = read_csv(outdir / "scan.csv")
        assert [row[header.index("error")] for row in rows] == ["eigenvalues did not converge"]

    def test_other_exceptions_propagate(self, outdir, monkeypatch):
        def boom(*args, **kwargs):
            raise IndexError("boom")

        monkeypatch.setattr(cli_module, "find_transfer_time", boom)
        with pytest.raises(IndexError, match="boom"):
            run(["transfer-time", "--N", "30", "--h", "60"])
        assert not list(outdir.iterdir())

    def test_screen_over_its_memory_limit(self, outdir, capsys, monkeypatch):
        # a t* screen the guard refuses is an error line for transfer-time
        # and an error row for scan
        monkeypatch.setattr(fidelity_module, "_SCREEN_BYTES", 4096)
        assert run(["transfer-time", "--N", "29", "--h", "100"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the t* screen of ") and err.count("\n") == 1
        assert "above its limit of 4096" in err
        assert not list(outdir.iterdir())
        assert run(["scan", "--N", "29", "--axis", "h", "--values", "100"]) == 0
        with open(outdir / "scan.csv", newline="") as fh:
            header, row = csv.reader(line for line in fh if not line.startswith("#"))
        assert row[header.index("error")] == err[len("error: "):].rstrip("\n")


class TestOutputs:
    def test_spectrum_csv_and_manifest(self, outdir):
        assert run(["spectrum", "--N", "10", "--h", "20"]) == 0
        path = outdir / "spectrum.csv"
        comments, header, rows = read_csv(path)
        assert comments[0].startswith("# xxchain")
        assert "spectrum" in comments[0]
        assert "N=10" in comments[1]
        assert header[0] == "k"
        assert len(rows) == 10
        manifest = json.loads((outdir / "spectrum.csv.manifest.json").read_text())
        assert manifest["tool"] == "xxchain"
        assert manifest["subcommand"] == "spectrum"
        assert manifest["spec"]["N"] == 10
        assert manifest["wall_time_s"] >= 0.0

    def test_spectrum_full_dump(self, outdir):
        assert run(["spectrum", "--N", "8", "--full"]) == 0
        _, header, rows = read_csv(outdir / "spectrum.csv")
        cols = [i for i, c in enumerate(header) if c.startswith("a_k_")]
        assert len(cols) == 8
        vecs = np.array([[float(r[i]) for i in cols] for r in rows])
        assert np.allclose(vecs @ vecs.T, np.eye(8), atol=1e-10)

    def test_amplitudes_grid(self, outdir):
        assert run([
            "amplitudes", "--N", "8", "--h", "3", "--f", "1,7", "--g", "1,2,7,8",
            "--t0", "0", "--t1", "2", "--steps", "5",
        ]) == 0
        _, header, rows = read_csv(outdir / "amplitudes.csv")
        assert header[0] == "t"
        assert len(rows) == 5
        assert any("re_f_1_7" in c for c in header)
        assert any("g_12_78" in c for c in header)

    def test_amplitudes_match_full_propagator(self, outdir, monkeypatch):
        # a few time points per chunk, so the grid spans several chunks
        monkeypatch.setattr(cli_module, "_ROWS_PER_CHUNK", 3 * 3 * 10)
        monkeypatch.setattr(cli_module, "_MIN_TIMES_PER_CHUNK", 1)
        argv = ["amplitudes", "--N", "10", "--h", "4", "--f", "3,9", "--f", "10,1",
                "--g", "1,2,9,10", "--g", "2,5,3,7", "--t0", "0", "--t1", "30",
                "--steps", "11"]
        assert run(argv) == 0
        _, header, rows = read_csv(outdir / "amplitudes.csv")
        assert [float(r[0]) for r in rows] == pytest.approx(np.linspace(0.0, 30.0, 11))
        spec = ChainSpec(N=10, h=4.0)
        sd = diagonalize(build_single_particle(spec))
        cols = spec.channel_sites
        for row in rows:
            values = dict(zip(header, map(float, row)))
            amp = propagator(sd, values["t"])
            expect = {"f_3_9": amp.entry(3, 9), "f_10_1": amp.entry(10, 1),
                      "g_12_910": pair_amplitude(amp.f, 1, 2, 9, 10),
                      "g_25_37": pair_amplitude(amp.f, 2, 5, 3, 7)}
            for name, z in expect.items():
                assert abs(complex(values["re_" + name], values["im_" + name]) - z) < 1e-10
            occupation = sum(abs(amp.entry(s, n)) ** 2 for s in (1, 2) for n in cols)
            assert abs(values["channel_occupation"] - occupation) < 1e-10

    def test_amplitudes_chunk_floor_keeps_the_bytes(self, outdir, monkeypatch):
        # at N = 400, 2^13 entries would give 10 time points per chunk; the
        # floor makes it 32, so 100 steps take 4 chunks, and the file is
        # byte-identical to one written from a single chunk
        calls = []
        real = cli_module.propagator_rows

        def counted(sd, sources, times):
            calls.append(len(times))
            return real(sd, sources, times)

        monkeypatch.setattr(cli_module, "propagator_rows", counted)
        argv = ["amplitudes", "--N", "400", "--h", "100", "--t0", "0", "--t1", "20000",
                "--steps", "100"]
        assert run(argv + ["-o", "chunked.csv"]) == 0
        assert calls == [32, 32, 32, 4]
        monkeypatch.setattr(cli_module, "_ROWS_PER_CHUNK", 1 << 30)
        assert run(argv + ["-o", "whole.csv"]) == 0
        assert calls[4:] == [100]
        assert (outdir / "chunked.csv").read_bytes() == (outdir / "whole.csv").read_bytes()

    @pytest.mark.parametrize("t0, t1, steps", [(0.0, 2e4, 2000), (2e4, 1.5e4, 300),
                                               (1234.5, 1234.5, 7)])
    def test_amplitudes_grid_matches_per_time_rows(self, outdir, t0, t1, steps):
        # the table's phases, over 23 and 4 chunks of 89 points and over one,
        # against propagator_rows at np.linspace's times, within the
        # amplitudes module docstring's eps (6 E T + 1.5 N + 8)
        # per propagator entry; a pair amplitude, two products of entries of
        # modulus <= 1, moves by at most 4 times that, and the occupation, a
        # sum of |f|^2 over both sender rows, by 4 sqrt(N) times (Cauchy-
        # Schwarz), plus the rounding of what each side computes from them
        argv = ["amplitudes", "--N", "46", "--h", "100", "--t0", repr(t0), "--t1", repr(t1),
                "--steps", str(steps), "--format", "json"]
        assert run(argv) == 0
        table = np.array(strict_json(outdir / "amplitudes.json")["rows"])
        spec = ChainSpec(N=46, h=100.0)
        sd = diagonalize(build_single_particle(spec))
        ts = np.linspace(t0, t1, steps)
        assert table[:, 0].tobytes() == ts.tobytes()
        R = propagator_rows(sd, [1, 2], ts)
        (s1, s2), (r1, r2) = spec.senders, spec.receivers
        f = [R[:, s - 1, r - 1] for s, r in ((s1, r1), (s1, r2), (s2, r1), (s2, r2))]
        g = f[0] * f[3] - f[1] * f[2]
        occupation = channel_occupation(R, spec)
        eps = 2.0**-52
        entry = eps * (6 * np.abs(sd.eigenvalues).max() * max(abs(t0), abs(t1)) + 1.5 * 46 + 8)
        for j, z in enumerate(f + [g]):
            got = table[:, 2 * j + 1] + 1j * table[:, 2 * j + 2]
            assert np.max(np.abs(got - z)) <= (4 if j == 4 else 1) * entry + 16 * eps
        assert np.max(np.abs(table[:, -1] - occupation)) <= 4 * 46**0.5 * entry + 4 * 46 * eps

    def test_amplitudes_one_step_is_the_single_time(self, outdir):
        # n - 1 = 0 grid steps: the table has one offset, of phase 1
        base = ["amplitudes", "--N", "46", "--h", "100", "--f", "1,45", "--g", "1,2,45,46"]
        for t in ("0", "123.25", "-7.5", "19999.9"):
            assert run(base + ["--t0", t, "--t1", "5", "--steps", "1", "-o", "grid.csv"]) == 0
            assert run(base + ["--t", t, "-o", "single.csv"]) == 0
            assert (outdir / "grid.csv").read_bytes() == (outdir / "single.csv").read_bytes()

    def test_amplitudes_json_rows_are_the_csv_values(self, outdir, monkeypatch):
        # several chunks, and more rows than two writer blocks
        monkeypatch.setattr(cli_module, "_ROWS_PER_CHUNK", 3 * 10 * 100)
        argv = ["amplitudes", "--N", "10", "--h", "4", "--f", "3,9", "--g", "1,2,9,10",
                "--t0", "0", "--t1", "30", "--steps", str(2 * cli_module._ROWS_PER_BLOCK + 3)]
        assert run(argv) == 0
        assert run(argv + ["--format", "json"]) == 0
        _, header, rows = read_csv(outdir / "amplitudes.csv")
        payload = strict_json(outdir / "amplitudes.json")
        assert payload["columns"] == header
        assert all(type(x) is float for row in payload["rows"] for x in row)
        assert [[format(x, ".12g") for x in row] for row in payload["rows"]] == rows

    def test_fidelity_json_format(self, outdir):
        assert run([
            "fidelity", "--N", "8", "--h", "3", "--t", "2.0", "--format", "json",
        ]) == 0
        payload = json.loads((outdir / "fidelity.json").read_text())
        assert payload["columns"][0] == "t"
        icol = payload["columns"].index("F_exact")
        assert 0.0 <= payload["rows"][0][icol] <= 1.0

    def test_transfer_time_accuracy(self, outdir):
        assert run(["transfer-time", "--N", "12", "--h", "18"]) == 0
        _, header, rows = read_csv(outdir / "transfer_time.csv")
        row = dict(zip(header, rows[0]))
        est = np.pi / 2 * 18.0**2
        assert abs(float(row["t_star"]) - est) < 0.02 * est
        assert float(row["F_exact"]) >= 0.98

    @pytest.mark.parametrize(
        "argv, t1",
        [
            # the closed form (pi/2)(h^2 - h) is negative at odd N with
            # N mod 3 = 1 and h < 1, and h^2 underflows at h = 1e-300
            (["transfer-time", "--N", "7", "--h", "0.5"], "nan"),
            (["transfer-time", "--N", "31", "--h", "0.9"], "nan"),
            (["scan", "--N", "30", "--axis", "h", "--values", "1e-300"], "nan"),
            (["transfer-time", "--N", "30", "--h", "60"], format(np.pi / 2 * 3600.0, ".12g")),
        ],
        ids=["N7-h0.5", "N31-h0.9", "scan-h1e-300", "N30-h60"],
    )
    def test_t1_estimate_only_where_a_positive_time(self, argv, t1, outdir):
        assert run(argv) == 0
        _, header, (row,) = read_csv(outdir / f"{argv[0].replace('-', '_')}.csv")
        assert dict(zip(header, row))["t1_estimate"] == t1

    @pytest.mark.parametrize("N, h, t1", [(7, 0.5, None), (30, 60.0, np.pi / 2 * 3600.0)])
    def test_perturb_t1_closed_form_only_where_a_positive_time(self, N, h, t1, outdir):
        assert run(["perturb", "--N", str(N), "--h", str(h)]) == 0
        diag = strict_json(outdir / "perturb.csv.manifest.json")["diagnostics"]
        assert diag["t1_closed_form"] == t1

    @pytest.mark.parametrize(
        "argv, grid",
        [
            (["fidelity", "--N", "37", "--h", "3", "--t-star", "--mc-samples", "200",
              "--seed", "1"], {}),
            (["amplitudes", "--N", "10", "--h", "3", "--t", "2"], {}),
            (["amplitudes", "--N", "10", "--h", "3"], {"t0": 0.0, "t1": 10.0, "steps": 101}),
            (["fidelity", "--N", "10", "--h", "3", "--t1", "4", "--steps", "3"],
             {"t0": 0.0, "t1": 4.0, "steps": 3}),
        ],
        ids=["fidelity-t-star", "amplitudes-t", "amplitudes-grid", "fidelity-grid"],
    )
    def test_manifest_records_only_the_time_options_used(self, argv, grid, outdir):
        # a run at one time records no grid; a grid run records it, defaults
        # included
        assert run(argv) == 0
        options = strict_json(outdir / f"{argv[0]}.csv.manifest.json")["options"]
        assert {k: options[k] for k in ("t0", "t1", "steps") if k in options} == grid

    def test_scan_rows(self, outdir):
        assert run([
            "scan", "--N", "10", "--axis", "h", "--values", "8,10,12",
        ]) == 0
        _, header, rows = read_csv(outdir / "scan.csv")
        assert len(rows) == 3
        t = [float(dict(zip(header, r))["t_star"]) for r in rows]
        assert t[0] < t[1] < t[2]

    def test_search_work_in_manifests(self, outdir):
        work = (
            "modes_kept", "screen_terms", "truncation_bound", "grid_points", "grid_points_exact"
        )
        assert run(["transfer-time", "--N", "29", "--h", "100"]) == 0
        diag = json.loads((outdir / "transfer_time.csv.manifest.json").read_text())["diagnostics"]
        res = find_transfer_time(ChainSpec(N=29, h=100.0))
        assert [diag[k] for k in work] == [getattr(res, k) for k in work]
        _, header, _ = read_csv(outdir / "transfer_time.csv")
        assert not set(work) & set(header)

        assert run(["scan", "--N", "10", "--axis", "h", "--values", "8,10"]) == 0
        diag = json.loads((outdir / "scan.csv.manifest.json").read_text())["diagnostics"]
        for h, k in zip((8.0, 10.0), range(2)):
            res = find_transfer_time(ChainSpec(N=10, h=h))
            assert [diag[key][k] for key in work] == [getattr(res, key) for key in work]
        _, header, _ = read_csv(outdir / "scan.csv")
        assert not set(work) & set(header)

    def test_transfer_time_manifest_keys(self, outdir, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert run(["transfer-time", "--N", "30", "--h", "60"]) == 0
        manifest = json.loads((outdir / "transfer_time.csv.manifest.json").read_text())
        assert list(manifest["diagnostics"]) == [
            "candidate", "candidate_fidelity",
            "modes_kept", "screen_terms", "truncation_bound", "grid_points",
            "grid_points_exact",
        ]
        env = manifest["environment"]
        assert list(env) == [
            "python", "numpy", "scipy",
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        ]
        assert env["python"] == platform.python_version()
        assert (env["numpy"], env["scipy"]) == (np.__version__, scipy.__version__)
        assert env["OMP_NUM_THREADS"] == "3" and env["MKL_NUM_THREADS"] is None
        assert env["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--senders", "4,5", "--receivers", "26,27"],
            ["--couplings", ",".join(str(1.0 + 0.01 * (k % 5)) for k in range(29))],
            ["--barriers", "4,27"],
        ],
        ids=["sites", "couplings", "barriers"],
    )
    def test_one_point_scan_is_the_transfer_time_row(self, outdir, capsys, flags):
        # the search refuses custom couplings: transfer-time exits 1 with
        # one line, and scan records its message as the point's error
        refused = "--couplings" in flags
        code = run(["transfer-time", "--N", "30", "--h", "60", *flags])
        assert run(["scan", "--N", "30", "--axis", "h", "--values", "60", *flags]) == 0
        _, scan_header, (scan_row,) = read_csv(outdir / "scan.csv")
        assert scan_header == cli_module._RECORD_COLUMNS + ["error"]
        if refused:
            assert code == 1 and not (outdir / "transfer_time.csv").exists()
            (line,) = capsys.readouterr().err.splitlines()
            assert line == "error: the t* search needs the barrier chain's couplings, " \
                           "not custom couplings"
            with open(outdir / "scan.csv") as fh:
                *_, scan_row = csv.reader(fh)
            assert scan_row == ["30", "60", "rabi", *["nan"] * 6, line[len("error: "):]]
        else:
            assert code == 0
            _, header, (row,) = read_csv(outdir / "transfer_time.csv")
            assert scan_header == header + ["error"]
            assert scan_row == row + [""]

    def test_zero_field_scan_is_the_transfer_time_row(self, outdir):
        assert run(["transfer-time", "--N", "30", "--h", "0"]) == 0
        _, _, (row,) = read_csv(outdir / "transfer_time.csv")
        assert run(["scan", "--N", "30", "--axis", "h", "--values", "0"]) == 0
        _, _, (scan_row,) = read_csv(outdir / "scan.csv")
        assert scan_row == row + [""]
        assert row[6] == "nan"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--axis", "N", "--values", "30", "--senders", "4,5"],
            ["--axis", "N", "--values", "30", "--h", "60", "--barriers", "4,27"],
            ["--axis", "h", "--values", "60", "--fields", ",".join(["0"] * 29 + ["1"])],
        ],
        ids=["N-senders", "N-barriers", "h-fields"],
    )
    def test_scan_rejects_what_its_axis_cannot_carry(self, outdir, capsys, argv):
        assert run(["scan", "--N", "30", *argv]) == 1
        assert "error" in capsys.readouterr().err
        assert not (outdir / "scan.csv").exists()

    def test_spectrum_names_extended_states(self, outdir):
        for N, extended in ((50, [17, 34]), (46, None)):
            assert run(["spectrum", "--N", str(N), "--h", "100", "--full"]) == 0
            diag = json.loads((outdir / "spectrum.csv.manifest.json").read_text())["diagnostics"]
            assert diag.get("extended_indices") == extended

    def test_perturb_quasi_rabi_rejected(self, capsys):
        assert run(["perturb", "--N", "29", "--h", "50"]) == 1


def _fmt_with_isnan(x):
    """The CSV cell rule _fmt had before it relied on format() for nan."""
    if isinstance(x, float):
        if np.isnan(x):
            return "nan"
        return format(x, ".12g")
    return str(x)


@pytest.mark.parametrize(
    "x",
    [
        float("nan"), -float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
        1.0 / 3.0, np.float64(-2.5e-17), np.float64("nan"), np.int64(-7), 42, "quasi-rabi",
    ],
    ids=repr,
)
def test_fmt_matches_isnan_rule(x):
    assert cli_module._fmt(x) == _fmt_with_isnan(x)


def _old_csv_rows(rows) -> str:
    """The data rows as _write_result wrote them, one _fmt call per cell."""
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n").writerows([cli_module._fmt(v) for v in row] for row in rows)
    return fh.getvalue()


def _new_csv_rows(rows) -> str:
    fh = io.StringIO()
    cli_module._write_rows(fh, rows)
    return fh.getvalue()


_SPECIAL_FLOATS = [
    float("nan"), -float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, -1e300,
    5e-324, -5e-324, 1.0 / 3.0, 2.0**53 + 1, 1e16, 123456789012.5, 1e-5, 1e-4,
]


class TestCsvRows:
    def test_float_table(self):
        rng = np.random.default_rng(3)
        rows = [_SPECIAL_FLOATS[i:] + _SPECIAL_FLOATS[:i] for i in range(len(_SPECIAL_FLOATS))]
        rows += (rng.normal(size=(50, 16)) * 10.0 ** rng.integers(-30, 30, size=(50, 16))).tolist()
        rows.append([np.float64(x) for x in _SPECIAL_FLOATS])
        assert all(map(cli_module._is_number, rows[0]))
        assert _new_csv_rows(rows) == _old_csv_rows(rows)

    def test_float_array_in_blocks(self):
        # two whole blocks and 3 rows, each row a rotation of the special
        # floats
        n = 2 * cli_module._ROWS_PER_BLOCK + 3
        table = np.array([np.roll(_SPECIAL_FLOATS, k) for k in range(n)])
        assert table.shape == (n, len(_SPECIAL_FLOATS))
        assert _new_csv_rows(table) == _old_csv_rows(table.tolist())

    def test_runs_across_blocks(self):
        # an all-number table of int and float rows, longer than a block,
        # goes by the array path; with one string row it goes through
        # csv.writer
        block = cli_module._ROWS_PER_BLOCK
        floats = [[x, -x] for x in np.linspace(-1.0, 1.0, block + 5).tolist()]
        ints = [[k, 0.5] for k in range(block + 1)]
        for rows in (floats + ints + floats[:3], floats + [["rabi", 1.0]] + ints + floats[:3]):
            assert _new_csv_rows(rows) == _old_csv_rows(rows)

    def test_int_column(self):
        rows = [[k, x, np.int64(-k), True] for k, x in enumerate(_SPECIAL_FLOATS)]
        rows.append([2**70, 0.5, np.int32(7), False])
        assert _new_csv_rows(rows) == _old_csv_rows(rows)
        # ints from 1e12 on, where "%.12g" would round them, without a bool
        rows = [[10**12 - 1, 0.5], [-(10**12), 1.5], [2**70, -0.0]]
        assert _new_csv_rows(rows) == _old_csv_rows(rows)

    def test_string_cells_stay_quoted(self):
        rows = [
            [30, 1.5, "quasi-rabi", float("nan"), ""],
            [30, 2.5, 'h must be >= 0, got "-1.0"', float("inf"), "line\nbreak"],
            [31, 0.25, 1.0, -0.0, 7],
        ]
        assert not all(map(cli_module._is_number, rows[1]))
        text = _new_csv_rows(rows)
        assert text == _old_csv_rows(rows)
        assert '"h must be >= 0, got ""-1.0"""' in text
        assert list(csv.reader(io.StringIO(text)))[1][2] == 'h must be >= 0, got "-1.0"'


class TestParserReuse:
    """In-process calls share one parser but behave as separate calls."""

    def test_append_does_not_accumulate(self, outdir):
        argv = ["amplitudes", "--N", "46", "--h", "50", "--t", "1", "--f", "1,46"]
        headers = []
        for _ in range(2):
            assert run(argv) == 0
            headers.append(read_csv(outdir / "amplitudes.csv")[1])
        assert headers[0] == headers[1] == [
            "t", "re_f_1_46", "im_f_1_46", "channel_occupation"
        ]

    def test_json_then_default_writes_csv(self, outdir):
        assert run(["spectrum", "--N", "8", "--format", "json"]) == 0
        assert sorted(p.name for p in outdir.iterdir()) == [
            "spectrum.json", "spectrum.json.manifest.json"
        ]
        assert run(["spectrum", "--N", "8"]) == 0
        comments, header, _ = read_csv(outdir / "spectrum.csv")
        assert comments[0].endswith(":: spectrum") and header[0] == "k"
        manifest = json.loads((outdir / "spectrum.csv.manifest.json").read_text())
        assert manifest["options"]["format"] == "csv"

    def test_error_then_valid_call(self, outdir, capsys):
        assert run(["spectrum", "--N", "8", "--format", "xml"]) == 1
        assert run(["spectrum", "--N", "4"]) == 1
        assert run(["spectrum", "--N", "8"]) == 0
        assert (outdir / "spectrum.csv").exists()
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2 and all(e.startswith("error: ") for e in errors)

    def test_parser_built_once(self, outdir, monkeypatch):
        built = []
        real = cli_module.build_parser

        def counting_build_parser():
            built.append(1)
            return real()

        monkeypatch.setattr(cli_module, "build_parser", counting_build_parser)
        cli_module._shared_parser.cache_clear()
        try:
            for sub in ("spectrum", "perturb", "transfer-time", "spectrum", "perturb"):
                assert run([sub, "--N", "30", "--h", "60"]) == 0
            assert run(["frobnicate"]) == 1
        finally:
            cli_module._shared_parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli_module.build_parser() is not cli_module.build_parser()


class TestConfigAndDeterminism:
    def test_config_file_with_flag_override(self, outdir):
        cfg = outdir / "run.cfg"
        cfg.write_text("# comment line\nN = 10\nh = 20.0\n")
        assert run(["spectrum", "--config", str(cfg), "--h", "5"]) == 0
        comments, _, _ = read_csv(outdir / "spectrum.csv")
        assert "N=10" in comments[1]
        assert "h=5" in comments[1]

    def test_seeded_runs_byte_identical(self, outdir):
        args = [
            "fidelity", "--N", "8", "--h", "4", "--t", "2.0",
            "--mc-samples", "2000", "--seed", "42",
        ]
        assert run(args + ["-o", str(outdir / "a.csv")]) == 0
        assert run(args + ["-o", str(outdir / "b.csv")]) == 0
        assert (outdir / "a.csv").read_bytes() == (outdir / "b.csv").read_bytes()

    def test_grid_mc_columns_are_each_times_average(self, outdir):
        # the grid's one Monte-Carlo call gives every row what a call at
        # that row's time alone gives
        spec = ChainSpec(N=8, h=4.0)
        assert run(["fidelity", "--N", "8", "--h", "4", "--t0", "0", "--t1", "3", "--steps", "4",
                    "--mc-samples", "2000", "--seed", "42", "--receiver-order", "21"]) == 0
        _, header, rows = read_csv(outdir / "fidelity.csv")
        assert len(rows) == 4
        for row in rows:
            row = dict(zip(header, row))
            mean, err = haar_average_mc(spec, float(row["t"]), 2000, 42, receiver_order="21")
            assert (row["F_mc_mean"], row["F_mc_stderr"]) == (format(mean, ".12g"),
                                                              format(err, ".12g"))

    def test_seeded_worst_case_byte_identical(self, outdir):
        args = ["fidelity", "--N", "8", "--h", "4", "--t", "2.0", "--worst-case",
                "--seed", "42"]
        assert run(args + ["-o", str(outdir / "a.csv")]) == 0
        assert run(args + ["-o", str(outdir / "b.csv")]) == 0
        assert (outdir / "a.csv").read_bytes() == (outdir / "b.csv").read_bytes()
        _, header, rows = read_csv(outdir / "a.csv")
        row = dict(zip(header, map(float, rows[0])))
        assert 0.0 <= row["F_min"] <= row["F_exact"]
        manifest = json.loads((outdir / "a.csv.manifest.json").read_text())
        assert manifest["diagnostics"]["worst_case_certified"] == [True]

    def test_uncertified_worst_case_in_manifest(self, outdir, monkeypatch):
        # the first row's search is certified, the second's is not; the
        # warning still reaches the caller
        calls = []

        def half_certified(spec, t, **kwargs):
            calls.append(t)
            if len(calls) == 2:
                warnings.warn("worst-case search exceeded its budget", WorstCaseBudgetWarning)
            return None, 0.0

        monkeypatch.setattr(cli_module, "worst_case_fidelity", half_certified)
        with pytest.warns(WorstCaseBudgetWarning, match="budget"):
            assert run(["fidelity", "--N", "8", "--h", "4", "--t0", "1", "--t1", "2",
                        "--steps", "2", "--worst-case", "--seed", "1"]) == 0
        manifest = json.loads((outdir / "fidelity.csv.manifest.json").read_text())
        assert manifest["diagnostics"]["worst_case_certified"] == [True, False]

    def test_receiver_order_sets_f_exact(self, outdir):
        spec = ChainSpec(N=10, h=5.0, senders=(4, 5), receivers=(2, 8))
        base = ["fidelity", "--N", "10", "--h", "5", "--senders", "4,5",
                "--receivers", "2,8", "--t", "2.3"]
        values = {}
        for order in ("12", "21"):
            assert run(base + ["--receiver-order", order, "-o", str(outdir / f"o{order}.csv")]) == 0
            _, header, (row,) = read_csv(outdir / f"o{order}.csv")
            values[order] = dict(zip(header, row))
            expect = average_fidelity_exact(spec, 2.3, receiver_order=order).value
            assert values[order]["F_exact"] == format(expect, ".12g")
        assert values["12"]["F_exact"] != values["21"]["F_exact"]
        # F_approx keeps the spec's receiver order
        assert values["12"]["F_approx"] == values["21"]["F_approx"]

    def test_explicit_output_path(self, outdir):
        target = outdir / "custom"
        os.makedirs(target)
        out = target / "spec.csv"
        assert run(["spectrum", "--N", "8", "-o", str(out)]) == 0
        assert out.exists()
        assert (target / "spec.csv.manifest.json").exists()
