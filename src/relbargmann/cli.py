"""Command-line front end: evaluate kernels, run transforms, verify, list spectra.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 domain error, 4 non-convergence, 5 unparseable input.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .bargmann import SampledFunction, relativistic_transform_grid
from .coherent import (KERNEL_RMAX, CoherentLabel, cs_wavefunction,
                       overlap, transform_kernel)
from .disk import LandauIndex, basis_phi, landau_level
from .errors import (DomainError, InputFormatError, NonConvergenceError,
                     RelBargmannError)
from .oscillator import ModelParams, OscParams, eigenfunction, energy
from .verification import (SUITE_KEYS, SUITES, gram_table_entries, run_suite,
                           unread_keys)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NONCONVERGENCE = 4
EXIT_INPUT = 5

EVAL_FUNCTIONS = ("basis_phi", "eigenfunction", "cs_wavefunction", "overlap",
                  "kernel")

#: most points a ``mesh:`` or ``lin:`` spec may hold, and most (z, xi) pairs
#: one ``eval`` request may tabulate; checked before anything is allocated
MAX_GRID_POINTS = 1_000_000

#: most values one vector call of ``eval`` computes: xi or z per call, or
#: entries of the eigenfunction table
LAYOUT_BLOCK_NODES = 16384


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _check_count(count: int, what: str) -> None:
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"{what} has {count} points, more than the limit "
                          f"of {MAX_GRID_POINTS}")


def _finite(values: list, what: str, spec: str) -> list:
    if not all(cmath.isfinite(v) for v in values):
        raise ConfigError(f"non-finite value in {what} spec {spec!r}")
    return values


def parse_grid(spec: str) -> list[complex]:
    """Parse a z grid: a comma list of complex numbers, or
    ``mesh:re0:re1:n,im0:im1:n`` for a rectangular mesh."""
    spec = spec.strip()
    if spec.startswith("mesh:"):
        body = spec[len("mesh:"):]
        try:
            re_part, im_part = body.split(",")
            r0, r1, nr = re_part.split(":")
            i0, i1, ni = im_part.split(":")
            nr, ni = int(nr), int(ni)
            _check_count(nr * ni, f"mesh spec {spec!r}")
            res = np.linspace(float(r0), float(r1), nr)
            ims = np.linspace(float(i0), float(i1), ni)
        except ValueError as exc:
            raise ConfigError(f"bad mesh spec {spec!r}") from exc
        return _finite([complex(x, y) for x in res for y in ims], "mesh", spec)
    try:
        points = [complex(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}") from exc
    return _finite(points, "grid", spec)


def parse_xi(spec: str) -> list[float]:
    """Parse a xi grid: a comma list, or ``lin:a:b:n``."""
    spec = spec.strip()
    try:
        if spec.startswith("lin:"):
            a, b, n = spec[len("lin:"):].split(":")
            n = int(n)
            _check_count(n, f"xi spec {spec!r}")
            xis = [float(v) for v in np.linspace(float(a), float(b), n)]
        else:
            xis = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad xi spec {spec!r}") from exc
    return _finite(xis, "xi", spec)


def load_config_file(path: str) -> dict:
    """Read a key=value config file; blank lines and # comments allowed."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {line!r}")
                key, val = line.split("=", 1)
                out[key.strip()] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _check_grid_cap(points) -> None:
    for z in points:
        if abs(z) > KERNEL_RMAX:
            raise DomainError(
                f"grid point {z} violates the evaluation cap |z| <= {KERNEL_RMAX}")


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _records_to_output(records: list[dict], columns: list[str],
                       fmt: str, meta: dict) -> str:
    if fmt == "csv":
        lines = [",".join(columns)]
        for rec in records:
            lines.append(",".join(_fmt(rec[c]) if isinstance(rec[c], float)
                                  else str(rec[c]) for c in columns))
        return "\n".join(lines) + "\n"
    payload = {"meta": meta, "records": records}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _records(columns: list[str], *values) -> list[dict]:
    """One record per position across the equally long ``values`` lists."""
    return [dict(zip(columns, row)) for row in zip(*values)]


def _meta(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    return {"version": __version__, "config": cfg}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    """Tabulate one function of the model on a z grid, a xi grid, or both.

    ``kernel`` and ``cs_wavefunction`` are evaluated once per disk point on
    blocks of up to ``LAYOUT_BLOCK_NODES`` xi (records stay z-major, then
    xi), ``basis_phi`` on blocks of up to ``LAYOUT_BLOCK_NODES`` z, and
    ``eigenfunction`` on blocks of xi small enough that its table of all
    k + 1 levels holds at most ``LAYOUT_BLOCK_NODES`` entries.  Each element
    of those vector calls is computed as it would be alone, so the output
    does not depend on the blocking.  ``overlap`` takes one z per call.
    """
    fn = args.function
    records: list[dict] = []

    if fn == "eigenfunction":
        if args.xi is None:
            raise ConfigError("eigenfunction evaluation needs --xi")
        osc = OscParams(args.c)
        xis = parse_xi(args.xi)
        columns = ["xi", "re_val", "im_val"]
        # phi_k comes from a table of all k + 1 levels on the block's xi
        block = max(1, LAYOUT_BLOCK_NODES // max(1, args.k + 1))
        for start in range(0, len(xis), block):
            chunk = xis[start:start + block]
            vals = eigenfunction(args.k, osc, np.array(chunk))
            records += _records(columns, chunk, vals.real.tolist(),
                                vals.imag.tolist())
    else:
        if args.grid is None:
            raise ConfigError("this evaluation needs --grid")
        points = parse_grid(args.grid)
        if not points:
            raise ConfigError("empty z grid")
        _check_grid_cap(points)
        if fn in ("basis_phi", "overlap"):
            sigma = args.sigma if args.sigma is not None else ModelParams(
                OscParams(args.c), args.m).sigma
            idx = LandauIndex(sigma, args.m)
            columns = ["re_z", "im_z", "re_val", "im_val"]
        if fn == "basis_phi":
            for start in range(0, len(points), LAYOUT_BLOCK_NODES):
                chunk = np.array(points[start:start + LAYOUT_BLOCK_NODES])
                vals = basis_phi(args.k, idx, chunk)
                records += _records(columns, chunk.real.tolist(),
                                    chunk.imag.tolist(), vals.real.tolist(),
                                    vals.imag.tolist())
        elif fn == "overlap":
            if args.w is None:
                raise ConfigError("overlap evaluation needs --w")
            w_points = parse_grid(args.w)
            if len(w_points) != 1:
                raise ConfigError(f"--w needs one disk point, got {args.w!r}")
            w = w_points[0]
            _check_grid_cap([w])
            for z in points:
                val = complex(overlap(idx, z, w))
                records.append({"re_z": z.real, "im_z": z.imag,
                                "re_val": val.real, "im_val": val.imag})
        else:  # cs_wavefunction | kernel, on a z x xi grid
            if args.xi is None:
                raise ConfigError(f"{fn} evaluation needs --xi")
            xis = parse_xi(args.xi)
            _check_count(len(points) * len(xis), f"{fn} evaluation")
            params = ModelParams(OscParams(args.c), args.m)
            columns = ["re_z", "im_z", "xi", "re_val", "im_val"]
            for z in points:
                for start in range(0, len(xis), LAYOUT_BLOCK_NODES):
                    chunk = xis[start:start + LAYOUT_BLOCK_NODES]
                    if fn == "cs_wavefunction":
                        vals = cs_wavefunction(CoherentLabel(z, params),
                                               np.array(chunk))
                    else:
                        vals = transform_kernel(params, z, np.array(chunk))
                    n = len(chunk)
                    records += _records(columns, [z.real] * n, [z.imag] * n,
                                        chunk, vals.real.tolist(),
                                        vals.imag.tolist())

    text = _records_to_output(records, columns, args.format, _meta(args))
    _write_text(args.out, text)
    return EXIT_OK


def read_sampled_function(path: str) -> SampledFunction:
    """Load a CSV with header ``xi,re,im`` into a SampledFunction.

    All sample tokens go through one numpy conversion, which applies
    ``float`` to each in file order.  An error names the first bad row or
    token in the file, as a row-by-row reader would.
    """
    tokens: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().lower().replace(" ", "")
            if header != "xi,re,im":
                raise InputFormatError(
                    f"expected header 'xi,re,im', got {header!r}")
            try:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    parts = line.split(",")
                    if len(parts) != 3:
                        raise InputFormatError(f"bad sample row {line!r}")
                    tokens += parts
            except (InputFormatError, UnicodeDecodeError):
                # a non-numeric token in an earlier row is reported first
                np.array(tokens, dtype=float)
                raise
        arr = np.array(tokens, dtype=float).reshape(-1, 3)
    except OSError as exc:
        raise InputFormatError(f"cannot read input {path}: {exc}") from exc
    except ValueError as exc:
        raise InputFormatError(f"non-numeric sample in {path}: {exc}") from exc
    if not len(arr):
        raise InputFormatError(f"no samples in {path}")
    if not np.all(np.isfinite(arr)):
        raise InputFormatError(f"non-finite sample value in {path}")
    return SampledFunction(grid=arr[:, 0], values=arr[:, 1] + 1j * arr[:, 2])


def cmd_transform(args: argparse.Namespace) -> int:
    sampled = read_sampled_function(args.input)
    points = parse_grid(args.grid) if args.grid else []
    if not points:
        raise ConfigError("transform needs a nonempty --grid")
    _check_grid_cap(points)
    params = ModelParams(OscParams(args.c), args.m)
    result = relativistic_transform_grid(params, sampled, points)
    records = [{"re_z": z.real, "im_z": z.imag, "re_val": v.real,
                "im_val": v.imag, "quad_error": float(e)}
               for z, v, e in zip(result.points, result.values, result.errors)]
    columns = ["re_z", "im_z", "re_val", "im_val", "quad_error"]
    text = _records_to_output(records, columns, args.format, _meta(args))
    _write_text(args.out, text)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    # verify's flags default to None: only values given by flag or file reach
    # the suites, and each suite runs its documented baseline otherwise
    config = {key: getattr(args, key) for key in _SUITE_KEYS
              if getattr(args, key) is not None}
    if args.suite not in SUITES:
        raise ConfigError(f"unknown suite {args.suite!r}; choose from {SUITES}")
    unread = unread_keys(args.suite, config)
    if unread:
        raise ConfigError(f"suite {args.suite} does not read {', '.join(unread)}")
    if "tol" in config and not 1e-12 <= config["tol"] <= 1e-2:
        raise ConfigError(f"tol must lie in [1e-12, 1e-2], got {config['tol']}")
    kmax = config.get("kmax", 0)
    if kmax < 0:
        raise ConfigError("kmax must be nonnegative")
    _check_count(gram_table_entries(args.suite, kmax),
                 f"the Gram basis table at --kmax {kmax}")
    report = run_suite(args.suite, config)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    _write_text(args.out, text)
    if args.out:
        status = "PASS" if report["pass"] else "FAIL"
        sys.stdout.write(f"{status}: {args.suite} "
                         f"({sum(c['pass'] for c in report['checks'])}"
                         f"/{len(report['checks'])} checks)\n")
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


def cmd_spectrum(args: argparse.Namespace) -> int:
    if args.kmax < 0:
        raise ConfigError("kmax must be nonnegative")
    if args.m < 0:
        raise ConfigError("m must be nonnegative")
    _check_count(args.kmax + args.m + 2, "the spectrum listing")
    osc = OscParams(args.c)
    records = []
    for k in range(args.kmax + 1):
        records.append({"kind": "energy", "index": k,
                        "value": float(energy(k, osc))})
    for m in range(args.m + 1):
        idx = ModelParams(osc, m).landau_index()
        records.append({"kind": "landau", "index": m,
                        "value": float(landau_level(idx))})
    text = _records_to_output(records, ["kind", "index", "value"],
                              args.format, _meta(args))
    _write_text(args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# flag tables and parser
# ---------------------------------------------------------------------------

class Flag(NamedTuple):
    """One ``--name`` flag of a subcommand; ``choices`` limits its value,
    and a ``required`` flag must be given on the command line."""

    name: str
    type: type = str
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    required: bool = False


_C = Flag("c", float, 1.0, "oscillator parameter c > 0")
_M = Flag("m", int, 0, "Landau level number")
_GRID = Flag("grid", help="z grid: comma list or mesh:re0:re1:n,im0:im1:n")
_FORMAT = Flag("format", default="csv", choices=("csv", "json"))
_OUT = Flag("out", help="output path")

#: the flags each subcommand reads; besides these, every subcommand takes
#: ``--config FILE``, whose ``key=value`` lines may set any of them
FLAGS = {
    "eval": (
        Flag("function", choices=EVAL_FUNCTIONS, required=True),
        _C, _M,
        Flag("k", int, 0, "basis/state index"),
        Flag("sigma", float, None, "disk weight (defaults to 2(gamma+m))"),
        _GRID,
        Flag("xi", help="xi grid: comma list or lin:a:b:n"),
        Flag("w", help="second disk point for overlap"),
        _FORMAT, _OUT),
    "transform": (
        Flag("input", required=True, help="CSV file with header xi,re,im"),
        _C, _M, _GRID, _FORMAT, _OUT),
    "verify": (
        Flag("suite", required=True, help=f"one of {', '.join(SUITES)}"),
        Flag("c", float, help="oscillator parameter (isometry, m0-reduction)"),
        Flag("m", int, help="Landau level number (eigen-equation)"),
        Flag("sigma", float, help="disk weight (eigen-equation)"),
        Flag("kmax", int, help="basis order of the Gram matrices "
                               "(orthonormality-disk, -oscillator)"),
        Flag("k", int, help="basis index (eigen-equation)"),
        Flag("tol", float,
             help="check tolerance in [1e-12, 1e-2] (every suite)"),
        _OUT),
    "spectrum": (_C, _M, Flag("kmax", int, 5, "highest oscillator level"),
                 _FORMAT, _OUT),
}

#: verify flags that are suite parameters
_SUITE_KEYS = sorted(set().union(*SUITE_KEYS.values()))

COMMANDS = {
    "eval": (cmd_eval, "evaluate a kernel on a grid"),
    "transform": (cmd_transform, "apply the transform to samples"),
    "verify": (cmd_verify, "run a verification suite"),
    "spectrum": (cmd_spectrum, "list oscillator and Landau levels"),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand's flags, all with default None, so
    that a flag is set exactly when it was given, in full or abbreviated."""
    parser = argparse.ArgumentParser(
        prog="relbargmann",
        description="Relativistic Bargmann-type transforms on the Poincare disk")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag in FLAGS[command]:
            p.add_argument(f"--{flag.name}", type=flag.type,
                           choices=flag.choices, required=flag.required,
                           help=flag.help)
        p.add_argument("--config", help="key=value file of flag values; a "
                                        "flag given here wins over the file")
    return parser


def resolve_flags(args: argparse.Namespace) -> None:
    """Set every flag of ``args.command`` on ``args`` to its value: the flag
    as given, else the config file's, else the table default.

    Every line of the file is checked, also for a flag given on the command
    line; an unknown key or a value its flag cannot take raises ConfigError.
    """
    table = {flag.name: flag for flag in FLAGS[args.command]}
    file_cfg = load_config_file(args.config) if args.config else {}
    from_file = {}
    for key, raw in file_cfg.items():
        flag = table.get(key)
        if flag is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            from_file[key] = flag.type(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for config key {key!r}: {raw!r}") \
                from exc
        if flag.choices and from_file[key] not in flag.choices:
            raise ConfigError(f"bad value for config key {key!r}: {raw!r}; "
                              f"choose from {flag.choices}")
    for name, flag in table.items():
        if getattr(args, name) is None:
            setattr(args, name, from_file.get(name, flag.default))


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of ``build_parser``, built on the first call and reused by
    every later ``main`` call in the process.

    Parsing leaves it unchanged: each call gets a fresh namespace, and config
    values are set on that namespace only.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        resolve_flags(args)
        return COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except RelBargmannError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
