"""Command-line interface: values, formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import relbargmann
from relbargmann import cli
from relbargmann.bargmann import SampledFunction, oscillator_mode
from relbargmann.cli import ConfigError, main, parse_grid, parse_xi
from relbargmann.coherent import CoherentLabel, cs_wavefunction, transform_kernel
from relbargmann.disk import basis_phi
from relbargmann.errors import InputFormatError
from relbargmann.oscillator import ModelParams, OscParams, eigenfunction


def run(args):
    return main(args)


def write_samples(path, grid, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("xi,re,im\n")
        for x, v in zip(grid, values):
            fh.write(f"{x},{v.real},{v.imag}\n")


class TestParsers:
    def test_grid_list(self):
        assert parse_grid("0.25+0.1j, 0.3") == [0.25 + 0.1j, 0.3 + 0j]

    def test_grid_mesh(self):
        pts = parse_grid("mesh:-0.2:0.2:3,-0.1:0.1:2")
        assert len(pts) == 6
        assert pts[0] == complex(-0.2, -0.1)

    def test_xi_forms(self):
        assert parse_xi("0.5,1,2") == [0.5, 1.0, 2.0]
        assert parse_xi("lin:0:1:3") == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("parse, spec", [
        (parse_grid, "nan"), (parse_grid, "0.1,inf+0.2j"),
        (parse_grid, "mesh:0:nan:2,0:0.1:2"), (parse_xi, "nan"),
        (parse_xi, "1,-inf")])
    def test_non_finite_rejected(self, parse, spec):
        with pytest.raises(ConfigError):
            parse(spec)

    @pytest.mark.parametrize("parse, spec", [
        (parse_xi, "lin:0:1:1000000000000"),
        (parse_grid, "mesh:0:0.1:1000000,0:0.1:1000000"),
        (parse_grid, "mesh:0:0.1:1000000000000,0:0.1:1")])
    def test_oversized_spec_allocates_nothing(self, parse, spec):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="limit"):
                parse(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_size_limit_boundary(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 12)
        assert len(parse_xi("lin:0:1:12")) == 12
        assert len(parse_grid("mesh:0:0.1:3,0:0.1:4")) == 12
        with pytest.raises(ConfigError):
            parse_xi("lin:0:1:13")
        with pytest.raises(ConfigError):
            parse_grid("mesh:0:0.1:13,0:0.1:1")


#: eval inputs compared with the point-by-point loop
EVAL_Z = [0.3 + 0.2j, -0.55 + 0j, 0.1 - 0.6j, 0j]
EVAL_XI = [0.0, 0.05, 0.7, 3.1, 7.25, 12.5, 19.0, 26.3, 33.3, 40.0]


def eval_argv(fn, c, m, k, zs, xis, *extra):
    argv = ["eval", "--function", fn, "--c", repr(c), "--m", str(m),
            "--k", str(k), *extra]
    if fn != "eigenfunction":
        argv.append("--grid=" + ",".join(repr(z) for z in zs))
    if fn != "basis_phi":
        argv.append("--xi=" + ",".join(repr(x) for x in xis))
    return argv


def pairwise_records(fn, c, m, k, zs, xis):
    """Columns and records of one library call per (z, xi) pair, z-major."""
    params = ModelParams(OscParams(c), m)
    if fn == "eigenfunction":
        vals = [eigenfunction(k, params.osc, xi) for xi in xis]
        return ["xi", "re_val", "im_val"], [
            {"xi": xi, "re_val": v.real, "im_val": v.imag}
            for xi, v in zip(xis, vals)]
    if fn == "basis_phi":
        idx = params.landau_index()
        vals = [complex(basis_phi(k, idx, z)) for z in zs]
        return ["re_z", "im_z", "re_val", "im_val"], [
            {"re_z": z.real, "im_z": z.imag, "re_val": v.real, "im_val": v.imag}
            for z, v in zip(zs, vals)]
    records = []
    for z in zs:
        for xi in xis:
            if fn == "kernel":
                v = complex(transform_kernel(params, z, xi))
            else:
                v = complex(cs_wavefunction(CoherentLabel(z, params), xi))
            records.append({"re_z": z.real, "im_z": z.imag, "xi": xi,
                            "re_val": v.real, "im_val": v.imag})
    return ["re_z", "im_z", "xi", "re_val", "im_val"], records


def counting(fn, calls):
    def wrapped(*args, **kwargs):
        calls.append(np.size(args[-1]))
        return fn(*args, **kwargs)
    return wrapped


class TestEval:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("fn, c, m, k", [
        ("kernel", 0.6, 2, 0), ("kernel", 2.0, 0, 0),
        ("cs_wavefunction", 1.0, 1, 0), ("cs_wavefunction", 3.0, 2, 0),
        ("basis_phi", 1.0, 2, 3), ("basis_phi", 0.6, 1, 0),
        ("basis_phi", 2.0, 4, 9), ("basis_phi", 1.0, 1, 1000000000),
        ("eigenfunction", 1.3, 0, 7),
        ("eigenfunction", 0.6, 0, 40)])
    def test_matches_pairwise_loop(self, tmp_path, fn, c, m, k, fmt):
        out = tmp_path / f"v.{fmt}"
        assert run(eval_argv(fn, c, m, k, EVAL_Z, EVAL_XI, "--format", fmt,
                             "--out", str(out))) == 0
        got = out.read_bytes()
        columns, records = pairwise_records(fn, c, m, k, EVAL_Z, EVAL_XI)
        meta = json.loads(got)["meta"] if fmt == "json" else None
        assert got == cli._records_to_output(records, columns, fmt,
                                             meta).encode()

    @pytest.mark.parametrize("fn, name, k, calls, blocked_calls", [
        # one call per disk point on all 20 xi, then blocks of 7
        ("kernel", "transform_kernel", 0, 2, 6),
        ("cs_wavefunction", "cs_wavefunction", 0, 2, 6),
        # blocks of at most 7 // (k + 1) = 2 xi for the (k + 1)-level table
        ("eigenfunction", "eigenfunction", 2, 1, 10)])
    def test_blocks_bit_identical(self, tmp_path, monkeypatch, fn, name, k,
                                  calls, blocked_calls):
        xis = [0.5 * i for i in range(20)]
        out = tmp_path / "v.json"
        argv = eval_argv(fn, 1.0, 1, k, EVAL_Z[:2], xis, "--format", "json",
                         "--out", str(out))
        seen = []
        monkeypatch.setattr(cli, name, counting(getattr(cli, name), seen))
        assert run(argv) == 0
        one = out.read_bytes()
        assert len(seen) == calls and sum(seen) == 20 * calls
        monkeypatch.setattr(cli, "LAYOUT_BLOCK_NODES", 7)
        del seen[:]
        assert run(argv) == 0
        assert len(seen) == blocked_calls and sum(seen) == 20 * calls
        assert out.read_bytes() == one

    def test_basis_phi_blocks_bit_identical(self, tmp_path, monkeypatch):
        # one call on all 20 z, then blocks of at most 7, and the bytes of
        # one call per point
        zs = [complex(0.04 * i - 0.4, 0.5 - 0.03 * i) for i in range(20)]
        out = tmp_path / "v.json"
        argv = eval_argv("basis_phi", 0.8, 2, 5, zs, [], "--format", "json",
                         "--out", str(out))
        seen = []
        monkeypatch.setattr(cli, "basis_phi", counting(cli.basis_phi, seen))
        assert run(argv) == 0
        one = out.read_bytes()
        assert seen == [20]
        monkeypatch.setattr(cli, "LAYOUT_BLOCK_NODES", 7)
        del seen[:]
        assert run(argv) == 0
        assert seen == [7, 7, 6]
        assert out.read_bytes() == one
        columns, records = pairwise_records("basis_phi", 0.8, 2, 5, zs, [])
        meta = json.loads(one)["meta"]
        assert one == cli._records_to_output(records, columns, "json",
                                             meta).encode()

    @pytest.mark.parametrize("fn, xi, code, err", [
        (fn, xi, code, err)
        for fn in ("kernel", "cs_wavefunction", "eigenfunction")
        for xi, code, err in (("0,1", 0, ""), (",", 0, ""),
                              ("1,-1,2", 3, "xi >= 0"),
                              ("1,1e300", 4, "non-convergence"))
        # phi_k is not summed by a series that could overflow
        if not (fn == "eigenfunction" and code == 4)])
    def test_xi_edge_cases(self, tmp_path, capsys, fn, xi, code, err):
        out = tmp_path / "v.csv"
        argv = ["eval", "--function", fn, "--xi=" + xi, "--out", str(out)]
        n_z = 1 if fn == "eigenfunction" else 2
        if fn != "eigenfunction":
            argv += ["--grid", "0.1,0.2j"]
        assert run(argv) == code
        stderr = capsys.readouterr().err
        assert err in stderr and "Traceback" not in stderr
        if code:
            assert not out.exists()
            return
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == n_z * len(parse_xi(xi))
        # xi = 0 gives 0 at every z
        zero_rows = [row for row in rows if row[-3] == "0"]
        assert len(zero_rows) == (n_z if "0" in xi else 0)
        assert all(row[-2:] == ["0", "0"] for row in zero_rows)

    @pytest.mark.parametrize("k", [1, 2])
    def test_eigenfunction_overflow_exit_4(self, tmp_path, capsys, k):
        # for k >= 1 the polynomial table overflows once xi^2 does
        out = tmp_path / "v.csv"
        assert run(["eval", "--function", "eigenfunction", "--k", str(k),
                    "--xi", "1,1e300", "--out", str(out)]) == 4
        stderr = capsys.readouterr().err
        assert stderr.startswith("non-convergence: ")
        assert "Traceback" not in stderr and "Warning" not in stderr
        assert not out.exists()

    @pytest.mark.parametrize("fn", ["kernel", "cs_wavefunction"])
    def test_near_one_exit_3(self, tmp_path, capsys, fn):
        # |z| = 0.84 is under the cap, but |1 - z| = 0.17 < 0.2
        out = tmp_path / "v.csv"
        assert run(["eval", "--function", fn, "--grid", "0.3,0.84+0.05j",
                    "--xi", "1,2", "--out", str(out)]) == 3
        assert "|1 - z| >= 0.2" in capsys.readouterr().err
        assert not out.exists()

    def test_eigenfunction_table_memory_bounded(self, tmp_path):
        # one table of all 3001 levels on the 400 xi would take ~55 MiB
        tracemalloc.start()
        try:
            assert run(["eval", "--function", "eigenfunction", "--k", "3000",
                        "--xi", "lin:0.05:20:400",
                        "--out", str(tmp_path / "e.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_basis_phi_value(self, tmp_path):
        out = tmp_path / "v.csv"
        code = run(["eval", "--function", "basis_phi", "--k", "0",
                    "--sigma", "5", "--m", "0", "--grid", "0",
                    "--out", str(out)])
        assert code == 0
        header, row = out.read_text().strip().splitlines()
        assert header == "re_z,im_z,re_val,im_val"
        vals = [float(tok) for tok in row.split(",")]
        assert abs(vals[2] - math.sqrt(4.0 / math.pi)) < 1e-12
        assert vals[3] == 0.0

    def test_cap_violation_exit_3(self, tmp_path):
        code = run(["eval", "--function", "basis_phi", "--k", "0",
                    "--sigma", "5", "--m", "0", "--grid", "0.9",
                    "--out", str(tmp_path / "v.csv")])
        assert code == 3

    def test_eigenfunction_boundary_zero(self, tmp_path):
        out = tmp_path / "e.csv"
        code = run(["eval", "--function", "eigenfunction", "--k", "0",
                    "--c", "1", "--xi", "0", "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().splitlines()[1]
        assert row == "0,0,0"

    def test_overlap_needs_w(self, tmp_path):
        code = run(["eval", "--function", "overlap", "--sigma", "5",
                    "--grid", "0.1", "--out", str(tmp_path / "o.csv")])
        assert code == 2

    def test_overlap_bad_w_exit_2(self, tmp_path, capsys):
        code = run(["eval", "--function", "overlap", "--sigma", "5",
                    "--grid", "0.1", "--w", "foo",
                    "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_nan_grid_exit_2(self, tmp_path):
        code = run(["eval", "--function", "basis_phi", "--sigma", "5",
                    "--grid", "nan", "--out", str(tmp_path / "v.csv")])
        assert code == 2

    def test_nan_xi_exit_2(self, tmp_path):
        code = run(["eval", "--function", "eigenfunction", "--c", "1",
                    "--xi", "nan", "--out", str(tmp_path / "e.csv")])
        assert code == 2

    def test_kernel_cap_exit_3(self, tmp_path):
        # |1 - z| = 0.15 is outside the kernel's validated domain
        code = run(["eval", "--function", "kernel", "--m", "2",
                    "--grid", "0.85", "--xi", "20",
                    "--out", str(tmp_path / "k.csv")])
        assert code == 3

    def test_kernel_json_format(self, tmp_path):
        out = tmp_path / "k.json"
        code = run(["eval", "--function", "kernel", "--c", "1", "--m", "1",
                    "--grid", "0.2+0.1j", "--xi", "0.5,1.5",
                    "--format", "json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["version"]
        assert len(payload["records"]) == 2

    def test_bad_tol_exit_2(self, tmp_path, capsys):
        # eval reads no tolerance: --tol is a usage error there, and the
        # range check is verify's
        with pytest.raises(SystemExit) as usage:
            run(["eval", "--function", "basis_phi", "--sigma", "5",
                 "--grid", "0", "--tol", "1e-8",
                 "--out", str(tmp_path / "x.csv")])
        assert usage.value.code == 2
        code = run(["verify", "--suite", "srivastava-rao", "--tol", "1.0",
                    "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "tol must lie in [1e-12, 1e-2]" in capsys.readouterr().err

    def test_pair_count_limit_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 12)
        out = tmp_path / "k.csv"
        argv = ["eval", "--function", "kernel", "--grid", "0.1,0.2,0.3",
                "--out", str(out)]
        assert run(argv + ["--xi", "1,2,3,4"]) == 0
        assert run(argv + ["--xi", "1,2,3,4,5"]) == 2

    def test_unread_key_exit_2(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite", "srivastava-rao", "--kmax", "3",
                    "--c", "2", "--sigma", "9", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "config error: suite srivastava-rao does not read c, kmax, sigma\n")

    def test_unread_key_from_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=2\n")
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite", "orthonormality-disk", "--config",
                    str(cfg), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.startswith("config error: ")

    def test_all_reads_every_given_key(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["verify", "--suite", "all", "--c", "2", "--kmax", "3",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"] == {"c": 2.0, "kmax": 3}

    def test_determinism(self, tmp_path):
        args = ["eval", "--function", "cs_wavefunction", "--c", "1",
                "--m", "0", "--grid", "0.25,0.1+0.2j", "--xi", "0.5,1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, code", [
    (["eval", "--function", "kernel", "--c", "inf", "--grid", "0.1",
      "--xi", "1"], 3),
    (["eval", "--function", "basis_phi", "--sigma", "nan", "--grid", "0.1"], 3),
    (["eval", "--function", "basis_phi", "--sigma", "inf", "--grid", "0.1"], 3),
    (["eval", "--function", "eigenfunction", "--c", "nan", "--xi", "1"], 3),
    (["spectrum", "--m", "-2"], 2),
    (["spectrum", "--kmax", "-1"], 2)])
def test_bad_parameters_typed_exit(tmp_path, capsys, argv, code):
    assert run(argv + ["--out", str(tmp_path / "o.csv")]) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["verify", "--suite", "orthonormality-disk", "--kmax", "-1"],
     "kmax must be nonnegative"),
    (["verify", "--suite", "orthonormality-oscillator", "--kmax", "-1"],
     "kmax must be nonnegative"),
    (["verify", "--suite", "all", "--kmax", "-3"], "kmax must be nonnegative"),
    # the disk table alone would hold 2.5e11 entries
    (["verify", "--suite", "orthonormality-disk", "--kmax", "5000"],
     "has 250650440064 points, more than the limit"),
    (["verify", "--suite", "orthonormality-oscillator", "--kmax", "400"],
     "more than the limit"),
    (["verify", "--suite", "all", "--kmax", "100"], "more than the limit"),
    (["spectrum", "--kmax", "100000000"],
     "the spectrum listing has 100000002 points, more than the limit"),
    (["spectrum", "--kmax", "0", "--m", "100000000"], "more than the limit")])
def test_count_flags_typed_exit(tmp_path, capsys, argv, message):
    out = tmp_path / "o.json"
    tracemalloc.start()
    try:
        assert run(argv + ["--out", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err and not out.exists()
    assert peak < 1 << 20


@pytest.mark.parametrize("suite", ["orthonormality-disk",
                                   "orthonormality-oscillator"])
def test_gram_table_limit_boundary(tmp_path, monkeypatch, suite):
    from relbargmann.verification import gram_table_entries

    monkeypatch.setattr(cli, "MAX_GRID_POINTS", gram_table_entries(suite, 2))
    argv = ["verify", "--suite", suite, "--out", str(tmp_path / "r.json")]
    assert run(argv + ["--kmax", "2"]) == 0
    assert run(argv + ["--kmax", "3"]) == 2
    # a suite that builds no Gram table does not read --kmax
    assert run(["verify", "--suite", "srivastava-rao", "--kmax", "3",
                "--out", str(tmp_path / "s.json")]) == 2


def test_import_leaves_out_scipy_interpolate():
    src = str(Path(relbargmann.__file__).resolve().parents[1])
    probe = ("import sys, relbargmann.cli; "
             "print('scipy.interpolate' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.fixture(scope="module")
def ground_state_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "phi0.csv"
    grid = np.linspace(0.0, 30.0, 1201)
    vals = oscillator_mode(0, OscParams(1.0))(grid)
    write_samples(path, grid, vals)
    return path


class TestTransform:
    def test_ground_state_maps_to_constant(self, ground_state_csv, tmp_path):
        out = tmp_path / "t.csv"
        code = run(["transform", "--c", "1", "--m", "0",
                    "--input", str(ground_state_csv),
                    "--grid", "mesh:-0.2:0.2:2,-0.2:0.2:2",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re_z,im_z,re_val,im_val,quad_error"
        g = OscParams(1.0).gamma
        want = math.sqrt((2.0 * g - 1.0) / math.pi)
        for line in lines[1:]:
            vals = [float(tok) for tok in line.split(",")]
            assert abs(complex(vals[2], vals[3]) - want) < 1e-5

    @pytest.mark.parametrize("c", [12.0, 20.0])
    def test_large_c_finite_exit_0(self, ground_state_csv, tmp_path, c):
        # Gamma(gamma + i xi)^2 / Gamma(i xi) overflows here while the
        # state norm underflows: the product once came out as nan,nan,nan
        # with exit 0
        out = tmp_path / "t.csv"
        code = run(["transform", "--c", repr(c), "--m", "1",
                    "--input", str(ground_state_csv), "--grid=0.3+0.4j",
                    "--out", str(out)])
        assert code == 0
        row = [float(tok) for tok in out.read_text().splitlines()[1].split(",")]
        assert len(row) == 5 and all(math.isfinite(v) for v in row)

    def test_overflowing_normalization_exit_4(self, ground_state_csv, tmp_path,
                                              capsys):
        code = run(["transform", "--c", "20", "--m", "1",
                    "--input", str(ground_state_csv), "--grid=0.85j",
                    "--out", str(tmp_path / "t.csv")])
        assert code == 4
        assert "N(z) overflows" in capsys.readouterr().err

    def test_empty_grid_exit_2(self, ground_state_csv, tmp_path):
        code = run(["transform", "--c", "1", "--input", str(ground_state_csv),
                    "--grid", " ", "--out", str(tmp_path / "t.csv")])
        assert code == 2

    def test_nan_input_exit_5(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("xi,re,im\n0.0,0.0,0.0\n1.0,nan,0.0\n")
        code = run(["transform", "--c", "1", "--input", str(bad),
                    "--grid", "0.1", "--out", str(tmp_path / "t.csv")])
        assert code == 5

    @pytest.mark.parametrize("body", [
        "0.0,0.0,0.0\n2.225073858507203e-309,0.0,0.0\n",
        "0,0,0\n1e-200,1.5,0\n2e-200,-2,0\n"], ids=["slopes", "coefficients"])
    def test_samples_without_spline_exit_5(self, tmp_path, capsys, body):
        # samples a subnormal distance apart overflow the spline's slopes
        bad = tmp_path / "bad.csv"
        bad.write_text("xi,re,im\n" + body)
        code = run(["transform", "--input", str(bad), "--grid", "0.1",
                    "--out", str(tmp_path / "t.csv")])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("input error: no finite cubic spline: ")
        assert "Traceback" not in err

    def test_unparseable_input_exit_5(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,value\n0.0,1.0\n")
        code = run(["transform", "--c", "1", "--input", str(bad),
                    "--grid", "0.1", "--out", str(tmp_path / "t.csv")])
        assert code == 5


def row_reader(path):
    """Reference: the CSV read row by row, one ``float`` call per token."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().lower().replace(" ", "")
            if header != "xi,re,im":
                raise InputFormatError(
                    f"expected header 'xi,re,im', got {header!r}")
            rows = []
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise InputFormatError(f"bad sample row {line!r}")
                rows.append([float(p) for p in parts])
    except OSError as exc:
        raise InputFormatError(f"cannot read input {path}: {exc}") from exc
    except ValueError as exc:
        raise InputFormatError(f"non-numeric sample in {path}: {exc}") from exc
    if not rows:
        raise InputFormatError(f"no samples in {path}")
    arr = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InputFormatError(f"non-finite sample value in {path}")
    return SampledFunction(grid=arr[:, 0], values=arr[:, 1] + 1j * arr[:, 2])


class TestSampleFile:
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_matches_row_reader(self, tmp_path, newline):
        rng = np.random.default_rng(5)
        grid = np.sort(rng.uniform(0.0, 30.0, 200))
        vals = rng.normal(size=(200, 2)) * 10.0 ** rng.integers(-300, 300, (200, 2))
        lines = ["XI, Re ,im"]
        for i, (x, (re, im)) in enumerate(zip(grid.tolist(), vals.tolist())):
            lines.append(f"{x!r},{re!r},{im!r}")
            if i % 37 == 0:
                lines.append("  ")  # blank lines are skipped
        lines += [" 30.5 , +1_0.5,-.25e-3", "31,-0,1E2", "", ""]
        path = tmp_path / "f.csv"
        path.write_bytes(newline.join(lines).encode())
        got = cli.read_sampled_function(str(path))
        want = row_reader(path)
        assert got.grid.tobytes() == want.grid.tobytes()
        assert got.values.tobytes() == want.values.tobytes()

    #: undecodable bytes past the first 8 KiB read, after 5000 good rows
    LATE_BYTE = b"2,2,2\n" * 5000 + b"\xff\n"

    @pytest.mark.parametrize("body", [
        b"time,value\n0.0,1.0\n",
        b"xi,re,im\n0,1,0\n1,2\n",
        b"xi,re,im\n0,1,0\n1,2,3,4\n",
        b"xi,re,im\n0,1,0\n1,abc,0\n",
        b"xi,re,im\n0,1,0\n1,2,\n",
        b"xi,re,im\n0,1,0\n1,nan,0\n",
        b"xi,re,im\n0,1,0\n1,0,-inf\n",
        b"xi,re,im\n\n \n",
        b"",
        b"xi,re,im\n0,x,0\n1,2\n",
        b"xi,re,im\n0,1\n1,x,0\n",
        b"xi,re,im\n0,1,y\n1,x,0\n",
        b"xi,re,im\n0,1,0\n1,z,0\n" + LATE_BYTE,
        b"xi,re,im\n0,1,0\n" + LATE_BYTE,
        b"xi,re,im\n1,1,0\n0,2,0\n",
        b"xi,re,im\n0,1,0\n"], ids=[
        "bad-header", "two-fields", "four-fields", "non-numeric",
        "empty-token", "nan", "inf", "no-rows", "empty-file",
        "token-before-short-row", "short-row-before-token", "first-bad-token",
        "token-before-late-byte", "late-byte", "decreasing-grid",
        "one-sample"])
    def test_malformed_exit_5_same_message(self, tmp_path, capsys, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        with pytest.raises(InputFormatError) as want:
            row_reader(path)
        code = run(["transform", "--c", "1", "--input", str(path),
                    "--grid", "0.1", "--out", str(tmp_path / "t.csv")])
        assert code == 5
        assert capsys.readouterr().err == f"input error: {want.value}\n"

    def test_missing_file_exit_5(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        with pytest.raises(InputFormatError) as want:
            row_reader(path)
        assert run(["transform", "--c", "1", "--input", str(path),
                    "--grid", "0.1", "--out", str(tmp_path / "t.csv")]) == 5
        assert capsys.readouterr().err == f"input error: {want.value}\n"


@pytest.mark.parametrize("c", [0.38, 0.4, 1 / math.e,
                               math.nextafter(1 / math.e, 1)])
@pytest.mark.parametrize("z", [0.3 + 0.4j, 0.1j])
def test_transform_near_one_over_e(tmp_path, c, z):
    # the xi layout ends at 40 for every c: no pole at c = 1/e, and no
    # nodes far out where the 2F1 series of the kernel overflows
    osc = OscParams(c)
    grid = np.linspace(0.0, 30.0, 1201)
    path = tmp_path / "phi1.csv"
    write_samples(path, grid, oscillator_mode(1, osc)(grid))
    out = tmp_path / "t.csv"
    start = time.perf_counter()
    assert run(["transform", "--c", repr(c), "--input", str(path),
                "--grid", repr(z).strip("()"), "--out", str(out)]) == 0
    assert time.perf_counter() - start < 10.0
    row = [float(tok) for tok in out.read_text().splitlines()[1].split(",")]
    want = basis_phi(1, ModelParams(osc, 0).landau_index(), z)
    assert abs(complex(row[2], row[3]) - want) < 1e-6


class TestSharedParser:
    def test_sequence_matches_fresh_parsers(self, tmp_path, ground_state_csv):
        cfg_k = tmp_path / "k.cfg"
        cfg_k.write_text("k=2\nsigma=6.5\n")
        cfg_c = tmp_path / "c.cfg"
        cfg_c.write_text("c=2\nm=1\nformat=json\n")
        cfg_v = tmp_path / "v.cfg"
        cfg_v.write_text("tol=1e-9\n")
        out = tmp_path / "o"
        calls = [
            ["eval", "--function", "basis_phi", "--grid", "0.3",
             "--config", str(cfg_k)],
            ["eval", "--function", "basis_phi", "--grid", "0.3",
             "--format", "json"],
            ["transform", "--input", str(ground_state_csv), "--grid",
             "0.1,-0.2j", "--config", str(cfg_c)],
            ["transform", "--input", str(ground_state_csv), "--grid",
             "0.1,-0.2j"],
            ["spectrum", "--kmax", "2", "--config", str(cfg_c)],
            ["spectrum", "--kmax", "2"],
            ["eval", "--function", "eigenfunction", "--xi", "0.5,1",
             "--config", str(cfg_k)],
            ["verify", "--suite", "srivastava-rao", "--config", str(cfg_v)],
            ["eval", "--function", "kernel", "--grid", "0.2j", "--xi", "1,2",
             "--k", "1"],
        ]

        def outputs(fresh):
            got = []
            for argv in calls:
                if fresh:
                    cli._shared_parser.cache_clear()
                code = run(argv + ["--out", str(out)])
                got.append((code, out.read_bytes()))
                out.unlink()
            return got

        shared = outputs(fresh=False)
        assert shared == outputs(fresh=True)
        assert all(code == 0 for code, _ in shared)
        # the config values of a call do not reach the next one
        config = json.loads(shared[1][1])["meta"]["config"]
        assert config["k"] == 0 and "sigma" not in config
        assert json.loads(shared[2][1])["meta"]["config"]["c"] == 2.0
        assert shared[3][1].startswith(b"re_z,im_z,")
        assert shared[5][1].startswith(b"kind,index,value\n")

    def test_parser_built_once(self, tmp_path, monkeypatch):
        built = []
        build = cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._shared_parser.cache_clear()
        try:
            for kmax in ("1", "2", "3"):
                assert run(["spectrum", "--kmax", kmax,
                            "--out", str(tmp_path / "s.csv")]) == 0
            # a usage error exits through argparse and leaves the parser as
            # it was
            with pytest.raises(SystemExit):
                run(["spectrum", "--kmax", "x"])
            assert run(["spectrum", "--kmax", "0",
                        "--out", str(tmp_path / "s.csv")]) == 0
        finally:
            cli._shared_parser.cache_clear()
        assert len(built) == 1


class TestVerify:
    def test_suite_pass_exit_0(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite", "f5-reductions", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {"suite", "checks", "pass", "version", "config"}
        assert report["pass"] is True
        for check in report["checks"]:
            assert set(check) == {"name", "error", "tol", "pass"}

    def test_oscillator_gram_twenty_levels_exit_0(self, tmp_path):
        # the Gram layout ends at state_end(20) = 80, past phi_20's reach
        out = tmp_path / "rep.json"
        assert run(["verify", "--suite", "orthonormality-oscillator",
                    "--kmax", "20", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert max(c["error"] for c in report["checks"]) < 1e-12

    def test_unknown_suite_exit_2(self, tmp_path):
        code = run(["verify", "--suite", "nope",
                    "--out", str(tmp_path / "rep.json")])
        assert code == 2

    def test_unread_key_exit_2(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite", "srivastava-rao", "--kmax", "3",
                    "--c", "2", "--sigma", "9", "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            "config error: suite srivastava-rao does not read c, kmax, sigma\n")

    def test_unread_key_from_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=2\n")
        out = tmp_path / "rep.json"
        code = run(["verify", "--suite", "orthonormality-disk", "--config",
                    str(cfg), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.startswith("config error: ")

    def test_all_reads_every_given_key(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["verify", "--suite", "all", "--c", "2", "--kmax", "3",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"] == {"c": 2.0, "kmax": 3}

    @pytest.mark.parametrize("suite, c", [
        ("isometry", 1 / math.e), ("m0-reduction", math.nextafter(1 / math.e, 1))])
    def test_suite_at_one_over_e_exit_0(self, tmp_path, suite, c):
        out = tmp_path / "rep.json"
        start = time.perf_counter()
        assert run(["verify", "--suite", suite, "--c", repr(c),
                    "--out", str(out)]) == 0
        assert time.perf_counter() - start < 10.0

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "--suite", "srivastava-rao", "--out", str(a)]) == 0
        assert run(["verify", "--suite", "srivastava-rao", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSpectrum:
    def test_values(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["spectrum", "--c", repr(math.sqrt(2.0)), "--kmax", "3",
                    "--m", "0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        energies = [float(line.split(",")[2]) for line in lines[1:5]]
        assert energies == [4.0, 6.0, 8.0, 10.0]
        assert lines[5].startswith("landau,0,")
        assert float(lines[5].split(",")[2]) == 0.0

    def test_coupled_level_value(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--c", "1", "--kmax", "0", "--m", "1",
                    "--out", str(out)]) == 0
        last = out.read_text().strip().splitlines()[-1]
        got = float(last.split(",")[2])
        g = OscParams(1.0).gamma
        assert abs(got - 4.0 * (1.0 + 2.0 * g - 1.0)) < 1e-12


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=2\nsigma=6.5\n")
        out = tmp_path / "v.csv"
        code = run(["eval", "--function", "basis_phi", "--m", "0",
                    "--grid", "0.3", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        from relbargmann.disk import LandauIndex, basis_phi
        row = out.read_text().strip().splitlines()[1]
        got = complex(*[float(t) for t in row.split(",")[2:]])
        assert abs(got - basis_phi(2, LandauIndex(6.5, 0), 0.3)) < 1e-12
        # explicit flag beats the file
        code = run(["eval", "--function", "basis_phi", "--m", "0", "--k", "0",
                    "--grid", "0.3", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().splitlines()[1]
        got = complex(*[float(t) for t in row.split(",")[2:]])
        assert abs(got - basis_phi(0, LandauIndex(6.5, 0), 0.3)) < 1e-12

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code = run(["eval", "--function", "basis_phi", "--sigma", "5",
                    "--grid", "0", "--config", str(cfg),
                    "--out", str(tmp_path / "v.csv")])
        assert code == 2

    def test_verify_rejects_bad_value_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax=-1\n")
        out = tmp_path / "r.json"
        code = run(["verify", "--suite", "orthonormality-disk",
                    "--config", str(cfg), "--out", str(out)])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "kmax must be nonnegative" in err

    def test_verify_takes_parameters_from_file_flags_win(self, tmp_path):
        from relbargmann.verification import run_suite

        cfg = tmp_path / "run.cfg"
        cfg.write_text("kmax=3\n")
        out = tmp_path / "r.json"
        argv = ["verify", "--suite", "orthonormality-disk",
                "--config", str(cfg), "--out", str(out)]
        assert run(argv) == 0
        report = json.loads(out.read_text())
        assert report["config"] == {"kmax": 3}
        assert report == run_suite("orthonormality-disk", {"kmax": 3})
        assert run(argv + ["--kmax", "2"]) == 0
        assert json.loads(out.read_text())["config"] == {"kmax": 2}


#: each subcommand's flags, ``--config`` included
FLAG_SETS = {
    "eval": {"function", "c", "m", "k", "sigma", "grid", "xi", "w", "format",
             "out", "config"},
    "transform": {"input", "c", "m", "grid", "format", "out", "config"},
    "verify": {"suite", "c", "m", "sigma", "kmax", "k", "tol", "out",
               "config"},
    "spectrum": {"c", "m", "kmax", "format", "out", "config"},
}
#: the least argv each subcommand parses
REQUIRED = {"eval": ["--function", "kernel"], "transform": ["--input", "f.csv"],
            "verify": ["--suite", "all"], "spectrum": []}


class TestFlagTables:
    @pytest.mark.parametrize("command", sorted(FLAG_SETS))
    def test_flag_set_is_pinned(self, command):
        args = cli.build_parser().parse_args([command, *REQUIRED[command]])
        assert set(vars(args)) - {"command"} == FLAG_SETS[command]
        assert ({flag.name for flag in cli.FLAGS[command]} | {"config"}
                == FLAG_SETS[command])

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--tol"), ("transform", "--tol"), ("spectrum", "--tol"),
        ("verify", "--grid"), ("spectrum", "--grid"), ("verify", "--format")])
    def test_flag_nothing_reads_is_a_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as usage:
            run([command, *REQUIRED[command], flag, "1"])
        assert usage.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_abbreviated_flag_reaches_the_suite(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "--suite", "orthonormality-disk", "--kma", "3",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"] == {"kmax": 3}

    def test_abbreviated_flag_beats_the_file(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("kmax=4\n")
        out = tmp_path / "s.csv"
        assert run(["spectrum", "--config", str(cfg), "--kma", "1",
                    "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows if row[0] == "energy"] == ["0", "1"]

    @pytest.mark.parametrize("command", sorted(FLAG_SETS))
    @pytest.mark.parametrize("body, message", [
        (None, "cannot read config file"),
        (b"c=\xff\n", "cannot read config file"),
        (b"c 2\n", "bad config line"),
        (b"bogus=1\n", "unknown config key 'bogus'"),
        (b"config=x.cfg\n", "unknown config key 'config'"),
        (b"m=one\n", "bad value for config key 'm'"),
        # checked although the flag is also given
        (b"c=two\n", "bad value for config key 'c'")],
        ids=["missing", "undecodable", "bad-line", "unknown-key", "config-key",
             "bad-type", "bad-type-under-flag"])
    def test_config_fault_exit_2(self, tmp_path, capsys, command, body,
                                 message):
        cfg = tmp_path / "run.cfg"
        if body is not None:
            cfg.write_bytes(body)
        out = tmp_path / "o"
        assert run([command, *REQUIRED[command], "--c", "1", "--config",
                    str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command, body, message", [
        ("eval", "format=xml\n", "choose from ('csv', 'json')"),
        ("eval", "function=nope\n", "choose from ('basis_phi'"),
        ("transform", "format=xml\n", "choose from ('csv', 'json')"),
        ("spectrum", "format=xml\n", "choose from ('csv', 'json')"),
        ("verify", "format=json\n", "unknown config key 'format'"),
        ("spectrum", "tol=1e-8\n", "unknown config key 'tol'")])
    def test_config_value_outside_flag_exit_2(self, tmp_path, capsys, command,
                                              body, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(body)
        assert run([command, *REQUIRED[command], "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
