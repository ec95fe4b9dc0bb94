"""Tests of the benchmark itself: seeded inputs, op checks, span arithmetic.

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["transform-mesh", "isometry-norms",
                                      "eval-points"])
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    workloads.build(workload, 7, tmp_path / "a")
    workloads.build(workload, 7, tmp_path / "b")
    workloads.build(workload, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a["inputs.json"] != c["inputs.json"]


def test_oscillator_state_matches_package():
    import numpy as np

    from relbargmann.oscillator import OscParams, eigenfunction_batch

    xi = np.linspace(0.0, 12.0, 49)
    for c in workloads.C_VALUES:
        ref = eigenfunction_batch(8, OscParams(c), xi)
        for k in range(9):
            assert np.max(np.abs(workloads.oscillator_state(k, c, xi) - ref[k])) < 1e-10


def _eval_request(tmp_path, label_start):
    requests = workloads.build("eval-points", 3, tmp_path)
    return next(r for r in requests if r.label.startswith(label_start))


def test_correct_output_passes_and_perturbed_value_fails(tmp_path):
    req = _eval_request(tmp_path, "eval basis_phi")
    tally = run.Tally()
    run.run_cycle([req], tally, run.Clock())
    assert tally.attempted == workloads.EVAL_GRID and tally.failed == 0

    # the check removes the output it read, so a stale file never passes
    assert req.check(0) == [False] * workloads.EVAL_GRID

    assert req.run() == 0
    out = Path(req.argv[req.argv.index("--out") + 1])
    lines = out.read_text().splitlines()
    cols = lines[5].split(",")
    cols[2] = repr(float(cols[2]) + 1e-6)
    lines[5] = ",".join(cols)
    out.write_text("\n".join(lines) + "\n")
    flags = req.check(0)
    assert flags.count(False) == 1 and not flags[4]


def test_failed_run_charges_every_op(tmp_path):
    req = _eval_request(tmp_path, "eval overlap")
    req.run = lambda: 3
    tally = run.Tally()
    run.run_cycle([req], tally, run.Clock())
    assert tally.failed == tally.attempted == workloads.EVAL_GRID

    def boom():
        raise ValueError("bad input")

    req.run = boom
    run.run_cycle([req], tally, run.Clock())
    assert tally.failed == tally.attempted == 2 * workloads.EVAL_GRID


def test_isometry_gap_above_bound_fails(tmp_path):
    req = workloads.build("isometry-norms", 1, tmp_path)[0]
    assert req.check({"relative_gap": 0.5 * workloads.ISOMETRY_TOL}) == [True]
    assert req.check({"relative_gap": 2.0 * workloads.ISOMETRY_TOL}) == [False]
    assert req.check({"relative_gap": float("nan")}) == [False]
    assert req.check({}) == [False]


def test_known_defects_are_reported_for_isometry_only():
    assert workloads.known_defects("eval-points") == {}
    found = workloads.known_defects("isometry-norms")
    assert sorted(found) == [f"isometry kmax={workloads.DEFECT_KMAX} c={c} m={m}"
                             for c, m in ((1.0, 0), (2.0, 1))]
    assert all(isinstance(v, str) and v for v in found.values())


def test_self_time_on_synthetic_tree():
    # A [0, 10] has children B [1, 4], D [5, 7], E [6.5, 8] (overlapping D)
    # and F [9, 12] (running past A's end); B has child C [2, 3].
    spans = [["A", 0.0, 10.0, -1, 0], ["B", 1.0, 4.0, 0, 0],
             ["C", 2.0, 3.0, 1, 0], ["D", 5.0, 7.0, 0, 0],
             ["E", 6.5, 8.0, 0, 0], ["F", 9.0, 12.0, 0, 0]]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10 - (3 + 3 + 1), 2.0, 1.0, 2.0, 1.5, 3.0])


def test_busy_time_counts_nested_same_name_once():
    spans = [["f", 0.0, 4.0, -1, 0], ["f", 1.0, 2.0, 0, 0],
             ["g", 2.5, 3.0, 0, 0], ["f", 6.0, 7.0, -1, 1]]
    stats = tracing.layer_stats(spans)
    assert stats["f"]["calls"] == 3
    assert stats["f"]["busy_s"] == pytest.approx(5.0)
    assert stats["f"]["self_s"] == pytest.approx(2.5 + 1.0 + 1.0)


def test_tracer_records_parents_and_restores_sites():
    from relbargmann import bargmann, cli, coherent

    original = coherent.transform_kernel
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.transform_kernel is bargmann.transform_kernel
        assert cli.transform_kernel.__wrapped__ is original
        from relbargmann.oscillator import ModelParams, OscParams

        params = ModelParams(OscParams(1.0), 1)
        cli.transform_kernel(params, 0.2 + 0.1j, [0.5, 1.0, 2.0])
    finally:
        tracer.uninstall()
    assert coherent.transform_kernel is original
    assert cli.transform_kernel is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "coherent.transform_kernel"
    assert names.count("hypergeom.f5_kernel_vec") == 1
    assert names.count("hypergeom.gauss_2f1_vec") == 3
    assert all(s[3] >= 0 for s in tracer.spans[1:])
    assert tracer.counts["coherent.transform_kernel.xi_nodes"] == 3
    assert tracer.counts["hypergeom.gauss_2f1_vec.elements"] == 9
