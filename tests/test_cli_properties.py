"""Property tests of the command line: flag > file > default precedence, and
an in-process fuzz of ``cli.main``.  Skipped when hypothesis is not installed.
"""

import contextlib
import io
import json
import math
import tempfile
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relbargmann import cli
from relbargmann.verification import SUITE_KEYS, SUITES, unread_keys

#: valid values of each flag; ``out`` and ``input`` name files in a scratch
#: directory
VALUES = {
    "function": cli.EVAL_FUNCTIONS, "c": (0.6, 1.0, 2.5), "m": (0, 1, 2),
    "k": (0, 3, 7), "sigma": (5.0, 6.5), "grid": ("0.1", "0.2j,-0.3"),
    "xi": ("1,2", "lin:0:1:3"), "w": ("0.1", "-0.2j"),
    "format": ("csv", "json"), "out": ("a.out", "b.out"),
    "input": ("f.csv", "g.csv"), "suite": SUITES, "kmax": (0, 2, 4),
    "tol": (1e-10, 1e-6, 1e-3),
}


#: the keys verify hands to its suites
SUITE_PARAMS = ("c", "m", "sigma", "kmax", "k", "tol")


def spellings(command: str, name: str) -> list[str]:
    """``name`` and each of its prefixes that argparse resolves to it."""
    others = [flag.name for flag in cli.FLAGS[command] if flag.name != name]
    others += ["config", "help"]
    return [name[:i] for i in range(1, len(name) + 1)
            if name[:i] == name
            or not any(other.startswith(name[:i]) for other in others)]


def render(name: str, value, scratch: Path) -> str:
    return str(scratch / value) if name in ("out", "input") else str(value)


@st.composite
def split_flags(draw, command: str):
    """Each flag of ``command`` on the command line, in the file, in both or
    in neither, with a value for each place and a spelling for argv."""
    plan = {}
    for flag in cli.FLAGS[command]:
        places = (("argv", "both") if flag.required
                  else ("argv", "file", "both", "neither"))
        place = draw(st.sampled_from(places))
        plan[flag.name] = (
            place,
            draw(st.sampled_from(VALUES[flag.name])),
            draw(st.sampled_from(VALUES[flag.name])),
            draw(st.sampled_from(spellings(command, flag.name))))
    return plan


@settings(max_examples=120, deadline=None, database=None)
@given(data=st.data(), command=st.sampled_from(sorted(cli.FLAGS)))
def test_flag_beats_file_beats_default(data, command):
    plan = data.draw(split_flags(command))
    config_spelling = data.draw(st.sampled_from(spellings(command, "config")))
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        argv, lines, want = [command], [], {}
        for flag in cli.FLAGS[command]:
            place, on_argv, in_file, spelling = plan[flag.name]
            if place in ("file", "both"):
                lines.append(f"{flag.name}={render(flag.name, in_file, scratch)}")
                want[flag.name] = in_file
            if place in ("argv", "both"):
                argv.append(f"--{spelling}={render(flag.name, on_argv, scratch)}")
                want[flag.name] = on_argv
        cfg = scratch / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in lines))
        argv.append(f"--{config_spelling}={cfg}")

        args = cli.build_parser().parse_args(argv)
        cli.resolve_flags(args)
        for flag in cli.FLAGS[command]:
            expected = want.get(flag.name, flag.default)
            if flag.name in ("out", "input") and expected is not None:
                expected = render(flag.name, expected, scratch)
            assert getattr(args, flag.name) == expected

        if command == "verify":
            # the suites get exactly the keys given by flag or file, and a
            # given key that the suite does not read is a config error
            seen = []

            def fake_run_suite(suite, config):
                seen.append(dict(config))
                return {"pass": True, "checks": [], "config": config}

            given = {key: want[key] for key in SUITE_PARAMS if key in want}
            unread = unread_keys(want["suite"], given)
            with mock.patch.object(cli, "run_suite", fake_run_suite), \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == (2 if unread else 0)
            assert seen == ([] if unread else [given])


# ---------------------------------------------------------------------------
# in-process fuzz
# ---------------------------------------------------------------------------

#: 1/e and its two float neighbours, where the transforms' xi layout once
#: had a pole; the fuzz runs each as an explicit example too
ONE_OVER_E = (math.nextafter(1 / math.e, 0), 1 / math.e,
              math.nextafter(1 / math.e, 1))
C_VALUES = st.one_of(
    st.floats(0.05, 5.0),
    st.sampled_from(ONE_OVER_E + (0.0, -1.0, math.inf, math.nan)))
POINTS = st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                            allow_infinity=False)
XI = st.floats(-1.0, 60.0)


def _points(draw, count: int) -> str:
    return ",".join(repr(draw(POINTS)) for _ in range(count))


@st.composite
def fuzz_argv(draw):
    """argv for eval, transform or spectrum on the reduced flag set, inside
    and outside the documented domain, with at most 8 points of each kind,
    m <= 2 and xi <= 60.  ``verify`` is left out: its exit 1 is a verdict,
    and its suites take seconds."""
    command = draw(st.sampled_from(["eval", "transform", "spectrum"]))
    c = draw(C_VALUES)
    m = draw(st.integers(-1, 2))
    argv = [command, f"--c={c!r}", f"--m={m}",
            f"--format={draw(st.sampled_from(['csv', 'json']))}"]
    if command == "spectrum":
        return argv + [f"--kmax={draw(st.integers(-1, 8))}"], None
    if draw(st.booleans()):
        grid = _points(draw, draw(st.integers(0, 8)))
    else:
        a, b = draw(st.floats(-0.6, 0.6)), draw(st.floats(-0.6, 0.6))
        grid = (f"mesh:{a!r}:{b!r}:{draw(st.integers(1, 2))},"
                f"{-b!r}:{a!r}:{draw(st.integers(1, 4))}")
    argv.append(f"--grid={grid}")
    if command == "transform":
        n = draw(st.integers(2, 8))
        xis = sorted(set(draw(st.lists(st.floats(0.0, 60.0), min_size=n,
                                        max_size=n))))
        rows = [(x, draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
                for x in xis]
        return argv, rows
    argv.append(f"--function={draw(st.sampled_from(cli.EVAL_FUNCTIONS))}")
    argv.append(f"--k={draw(st.integers(0, 8))}")
    if draw(st.booleans()):
        argv.append(f"--sigma={draw(st.floats(0.0, 12.0))!r}")
    xi = draw(st.one_of(
        st.lists(XI, max_size=8).map(lambda v: ",".join(map(repr, v))),
        st.builds(lambda a, b, n: f"lin:{a!r}:{b!r}:{n}", XI, XI,
                  st.integers(0, 8))))
    argv.append(f"--xi={xi}")
    if draw(st.booleans()):
        argv.append(f"--w={_points(draw, draw(st.integers(0, 2)))}")
    return argv, None


def _all_finite(text: str, fmt: str) -> bool:
    if fmt == "json":
        values = [v for rec in json.loads(text)["records"] for v in rec.values()]
    else:
        values = [tok for line in text.splitlines()[1:]
                  for tok in line.split(",")]
        values = [float(tok) for tok in values if tok not in ("energy", "landau")]
    return all(math.isfinite(v) for v in values if not isinstance(v, str))


def one_over_e_case(c: float):
    """A transform at m = 2 on samples that reach xi = 30."""
    argv = ["transform", f"--c={c!r}", "--m=2", "--format=csv",
            "--grid=0.3+0.4j,0.1j"]
    return argv, [(0.0, 0.0, 0.0), (1.5, 0.5, -0.2), (30.0, 0.1, 0.0)]


@settings(max_examples=60, deadline=timedelta(seconds=30), database=None)
@given(case=fuzz_argv())
@example(case=one_over_e_case(ONE_OVER_E[0]))
@example(case=one_over_e_case(ONE_OVER_E[1]))
@example(case=one_over_e_case(ONE_OVER_E[2]))
def test_fuzz_typed_exit_and_finite_output(case):
    argv, rows = case
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        if rows is not None:
            path = scratch / "f.csv"
            path.write_text("xi,re,im\n" + "".join(
                f"{x!r},{re!r},{im!r}\n" for x, re, im in rows))
            argv = argv + [f"--input={path}"]
        out = scratch / "out"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv + [f"--out={out}"])
            except SystemExit as usage:  # argparse usage error
                code = usage.code
        assert code in (0, 2, 3, 4, 5), (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            fmt = argv[3].split("=", 1)[1]
            assert _all_finite(out.read_text(), fmt)
        else:
            assert not out.exists()


#: verify's suites short enough to fuzz: ``isometry`` and ``m0-reduction``
#: take about a second a run, and ``all`` holds them
FUZZ_SUITES = [s for s in SUITES if s not in ("isometry", "m0-reduction", "all")]
#: each suite parameter inside and outside its range; kmax stays <= 8
PARAM_VALUES = {
    "c": st.one_of(st.floats(0.05, 5.0),
                   st.sampled_from([0.0, -1.0, math.inf, math.nan])),
    "m": st.integers(-2, 3),
    "sigma": st.one_of(st.floats(-1.0, 12.0), st.just(math.nan)),
    "kmax": st.integers(-2, 8),
    "k": st.integers(-2, 8),
    "tol": st.one_of(st.floats(1e-12, 1e-2), st.floats(1e-13, 1.0),
                     st.sampled_from([0.0, -1e-6, math.nan, math.inf])),
}


@st.composite
def verify_case(draw):
    """A suite and a random subset of the suite parameters with values: of
    the keys the suite reads, and in one case out of four of any key."""
    suite = draw(st.sampled_from(FUZZ_SUITES))
    keys = draw(st.sets(st.sampled_from(SUITE_KEYS[suite])))
    if draw(st.integers(0, 3)) == 0:
        keys |= draw(st.sets(st.sampled_from(SUITE_PARAMS), min_size=1))
    return suite, {key: draw(PARAM_VALUES[key]) for key in sorted(keys)}


@settings(max_examples=25, deadline=timedelta(seconds=30), database=None)
@given(case=verify_case())
def test_fuzz_verify_typed_exit_and_given_config(case):
    suite, given = case
    argv = ["verify", f"--suite={suite}"]
    argv += [f"--{key}={value!r}" for key, value in given.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv + [f"--out={out}"])
            except SystemExit as usage:  # argparse usage error
                code = usage.code
        assert code in (0, 1, 2, 3, 4), (code, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
        if set(given) - set(SUITE_KEYS[suite]):
            assert code == 2, stderr.getvalue()
        if code in (0, 1):
            # NaN is compared through its JSON spelling
            config = json.loads(out.read_text())["config"]
            assert (json.dumps(config, sort_keys=True)
                    == json.dumps(given, sort_keys=True))
        else:
            assert not out.exists()
