"""Command-line interface: values, formats, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

from relbargmann.bargmann import oscillator_mode
from relbargmann.cli import ConfigError, main, parse_grid, parse_xi
from relbargmann.oscillator import OscParams


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


class TestEval:
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

    def test_bad_tol_exit_2(self, tmp_path):
        code = run(["eval", "--function", "basis_phi", "--sigma", "5",
                    "--grid", "0", "--tol", "1.0",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_determinism(self, tmp_path):
        args = ["eval", "--function", "cs_wavefunction", "--c", "1",
                "--m", "0", "--grid", "0.25,0.1+0.2j", "--xi", "0.5,1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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
                    "--tol", "1e-8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re_z,im_z,re_val,im_val,quad_error"
        g = OscParams(1.0).gamma
        want = math.sqrt((2.0 * g - 1.0) / math.pi)
        for line in lines[1:]:
            vals = [float(tok) for tok in line.split(",")]
            assert abs(complex(vals[2], vals[3]) - want) < 1e-5

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

    def test_unparseable_input_exit_5(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,value\n0.0,1.0\n")
        code = run(["transform", "--c", "1", "--input", str(bad),
                    "--grid", "0.1", "--out", str(tmp_path / "t.csv")])
        assert code == 5


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

    def test_unknown_suite_exit_2(self, tmp_path):
        code = run(["verify", "--suite", "nope",
                    "--out", str(tmp_path / "rep.json")])
        assert code == 2

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
