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
from .coherent import (_check_cap, _kernel_to_wavefunction, overlap,
                       transform_kernel_series_grid)
# looked up here by the layer tracer of bench/tracing.py
from .coherent import cs_wavefunction, transform_kernel  # noqa: F401
from .disk import LandauIndex, basis_phi, landau_level
from .errors import (DomainError, InputFormatError, NonConvergenceError,
                     RelBargmannError)
from .oscillator import (MAX_TABLE_ENTRIES, ModelParams, OscParams,
                         eigenfunction, energy)
from .verification import (SUITE_KEYS, SUITES, gram_table_entries, run_suite,
                           unread_keys)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NONCONVERGENCE = 4
EXIT_INPUT = 5

#: the flags each ``eval`` function reads, besides --function, --format and
#: --out; any other flag given to it is a config error
EVAL_READS = {"basis_phi": {"c", "m", "k", "sigma", "grid"},
              "eigenfunction": {"c", "k", "xi"},
              "cs_wavefunction": {"c", "m", "grid", "xi"},
              "overlap": {"c", "m", "sigma", "grid", "w"},
              "kernel": {"c", "m", "grid", "xi"}}
EVAL_FUNCTIONS = tuple(EVAL_READS)


class ConfigError(Exception):
    pass


def _check_count(count: int, what: str) -> None:
    """ConfigError past the package's one table limit, MAX_TABLE_ENTRIES:
    the most points a ``mesh:`` or ``lin:`` spec may hold, and the most
    (z, xi) pairs one ``eval`` request may tabulate, checked before
    anything is allocated."""
    if count > MAX_TABLE_ENTRIES:
        raise ConfigError(f"{what} has {count} points, more than the limit "
                          f"of {MAX_TABLE_ENTRIES}")


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


def _write_text(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _conversions(fields) -> list[str]:
    """The %-conversion of each of ``fields`` in a CSV table: ``%.17g`` for
    a float, numpy's too (f"{x:.17g}"), ``%s`` (str) for anything else."""
    floats = {issubclass(t, float) for t in set(map(type, fields))}
    if len(floats) == 2:  # floats and other fields: one conversion each
        return ["%.17g" if isinstance(v, float) else "%s" for v in fields]
    return ["%.17g" if True in floats else "%s"] * len(fields)


def _row_texts(columns) -> list[str]:
    """The CSV text of each row of ``columns``, one conversion a field."""
    texts = [map(str.__mod__, _conversions(col), zip(col)) for col in columns]
    return list(map(",".join, zip(*texts)))


def _table_to_output(columns: dict, fmt: str, meta: dict,
                     blocks: dict | None = None,
                     keys: dict | None = None) -> str:
    """The text of a table given by its columns, z-major in blocks: row j
    of block i holds field i of each ``blocks`` column, field j of each
    ``keys`` column (the same in every block) and field i n + j of each of
    ``columns``, n the rows of a block; no ``blocks`` is one block.  A CSV
    table, or JSON with ``meta`` and one record (a dict) per row.

    The CSV text converts the fields of each block head and of each key
    once, and a block's columns, with the key texts, in one % operation."""
    blocks, keys = blocks or {}, keys or {}
    names = [*blocks, *keys, *columns]
    columns = list(columns.values())
    # a head's text is part of a block's format string, a key's an argument
    heads = [text.replace("%", "%%") + ","
             for text in _row_texts(blocks.values())] or [""]
    n = len(columns[0]) // len(heads)
    if fmt == "csv":
        key_texts = [_row_texts(keys.values())] if keys else []
        lines = [",".join(names)]
        for i, head in enumerate(heads if n else ()):
            block = key_texts + [col[i * n:(i + 1) * n] for col in columns]
            args = [None] * (len(block) * n)
            for c, col in enumerate(block):
                args[c::len(block)] = col
            specs = map(",".join, zip(*map(_conversions, block)))
            lines.append((head + ("\n" + head).join(specs)) % tuple(args))
        return "\n".join(lines) + "\n"
    full = [*([v for v in col for _ in range(n)] for col in blocks.values()),
            *(list(col) * len(heads) for col in keys.values()), *columns]
    records = [dict(zip(names, row)) for row in zip(*full)]
    payload = {"meta": meta, "records": records}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _meta(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    return {"version": __version__, "config": cfg}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    """Tabulate one function of the model by one library call: on the xi
    grid (``eigenfunction``), the z grid (``basis_phi``, ``overlap``) or
    the z x xi grid, z-major (``kernel`` and ``cs_wavefunction``, summed
    by ``coherent.transform_kernel_series_grid``).  Every z and ``--w`` must
    meet ``coherent``'s cap |z| <= 0.85, and a kernel's z |1 - z| >= 0.2."""
    fn = args.function
    blocks = keys = None
    if fn == "eigenfunction":
        if args.xi is None:
            raise ConfigError("eigenfunction evaluation needs --xi")
        osc = OscParams(args.c)
        xis = parse_xi(args.xi)
        vals = eigenfunction(args.k, osc, np.array(xis))
        columns = {"xi": xis}
    else:
        if args.grid is None:
            raise ConfigError("this evaluation needs --grid")
        points = parse_grid(args.grid)
        if not points:
            raise ConfigError("empty z grid")
        if fn in ("basis_phi", "overlap"):
            zs = np.array(_check_cap(points, near_one=False))
            sigma = args.sigma if args.sigma is not None else ModelParams(
                OscParams(args.c), args.m).sigma
            idx = LandauIndex(sigma, args.m)
            if fn == "basis_phi":
                vals = basis_phi(args.k, idx, zs)
            else:
                if args.w is None:
                    raise ConfigError("overlap evaluation needs --w")
                w_points = parse_grid(args.w)
                if len(w_points) != 1:
                    raise ConfigError(
                        f"--w needs one disk point, got {args.w!r}")
                (w,) = _check_cap(w_points, near_one=False)
                # <w|z> = conj(<z|w>), with w fixed; + 0.0 prints an exact
                # zero (real z and w) as 0, never as -0
                vals = np.conj(overlap(idx, w, zs)) + 0.0
            columns = {"re_z": zs.real.tolist(), "im_z": zs.imag.tolist()}
        else:  # cs_wavefunction | kernel, on a z x xi grid
            if args.xi is None:
                raise ConfigError(f"{fn} evaluation needs --xi")
            xis = parse_xi(args.xi)
            _check_count(len(points) * len(xis), f"{fn} evaluation")
            _check_cap(points)
            params = ModelParams(OscParams(args.c), args.m)
            idx = params.landau_index()
            vals = transform_kernel_series_grid(params, points, xis)
            if fn == "cs_wavefunction":
                for i, z in enumerate(points):
                    vals[i] = _kernel_to_wavefunction(idx, z, vals[i])
            # one block a z, its rows the xi: no field is converted twice
            columns = {}
            blocks = {"re_z": [z.real for z in points],
                      "im_z": [z.imag for z in points]}
            keys = {"xi": xis}

    columns |= {"re_val": vals.real.ravel().tolist(),
                "im_val": vals.imag.ravel().tolist()}
    text = _table_to_output(columns, args.format, _meta(args), blocks, keys)
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
    params = ModelParams(OscParams(args.c), args.m)
    result = relativistic_transform_grid(params, sampled, points)
    pts, vals = result.points, result.values
    columns = {"re_z": pts.real.tolist(), "im_z": pts.imag.tolist(),
               "re_val": vals.real.tolist(), "im_val": vals.imag.tolist(),
               "quad_error": result.errors.tolist()}
    text = _table_to_output(columns, args.format, _meta(args))
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
    rows = [("energy", k, float(energy(k, osc)))
            for k in range(args.kmax + 1)]
    for m in range(args.m + 1):
        idx = ModelParams(osc, m).landau_index()
        rows.append(("landau", m, float(landau_level(idx))))
    columns = dict(zip(["kind", "index", "value"], zip(*rows)))
    text = _table_to_output(columns, args.format, _meta(args))
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


def resolve_flags(args: argparse.Namespace) -> set[str]:
    """Set every flag of ``args.command`` on ``args`` to its value: the flag
    as given, else the config file's, else the table default; return the
    names of the flags given, on the command line or in the file.

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
    given = {name for name in table if getattr(args, name) is not None}
    given |= from_file.keys()
    for name, flag in table.items():
        if getattr(args, name) is None:
            setattr(args, name, from_file.get(name, flag.default))
    return given


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
        given = resolve_flags(args)
        if args.command == "eval":
            unread = given - EVAL_READS[args.function] - {"function", "format",
                                                          "out"}
            if unread:
                raise ConfigError(f"function {args.function} does not read "
                                  f"{', '.join(sorted(unread))}")
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
