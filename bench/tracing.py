"""Outside-in tracer: spans around calls into each layer of relbargmann.

Nothing inside the package is edited.  Instead every public function of a
layer is replaced, at each name its callers look it up under, by a wrapper
that records a span ``[name, start, end, parent, request]``.  A module that
did ``from .hypergeom import gauss_2f1_vec`` holds its own reference, so that
module's attribute is replaced too; a call goes through exactly one wrapper.

Spans stay in memory while the workload runs and are written out afterwards.
Per-layer figures (calls, busy time, self time) are computed from them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter, defaultdict

import numpy as np


def _gauss_2f1_elements(args, kwargs):
    a, b, c = args[:3]
    return np.broadcast(np.asarray(a), np.asarray(b), np.asarray(c)).size


def _xi_nodes(args, kwargs):
    return int(np.size(args[2]))


def _eigen_elements(args, kwargs):
    return (int(args[0]) + 1) * int(np.size(args[2]))


#: layer name -> (modules whose attribute of that name is replaced, counter)
#: The modules listed are every place the function is looked up at call time.
#: Sites without a metric of their own keep their time out of their callers'
#: self time (``cli.self_s``) or count something (``CubicSpline`` builds).
SITES = {
    "cli.main": (("cli",), None),
    "cli.read_sampled_function": (("cli",), None),
    "bargmann.relativistic_transform_grid": (("bargmann", "cli"), None),
    "bargmann.relativistic_transform": (("bargmann", "verification"), None),
    "bargmann.relativistic_transform_m0": (("bargmann", "verification"), None),
    "bargmann.isometry_check": (("bargmann", "verification"), None),
    "bargmann.classical_bargmann": (("bargmann", "verification"), None),
    "bargmann.CubicSpline": (("bargmann",), None),
    "quadrature.integrate_halfline": (("quadrature", "bargmann"), None),
    "coherent.transform_kernel": (("coherent", "bargmann", "cli"),
                                  ("xi_nodes", _xi_nodes)),
    "coherent.cs_wavefunction": (("coherent", "cli"), None),
    "coherent.overlap": (("coherent", "cli", "verification"), None),
    "hypergeom.f5_kernel_vec": (("hypergeom", "coherent"), None),
    "hypergeom.gauss_2f1_vec": (("hypergeom", "bargmann"),
                                ("elements", _gauss_2f1_elements)),
    "disk.basis_phi": (("disk", "cli", "verification"), None),
    "disk.basis_phi_batch": (("disk", "coherent"), None),
    "oscillator.eigenfunction": (("oscillator", "cli"), None),
    "oscillator.eigenfunction_batch": (("oscillator", "bargmann", "coherent"),
                                       ("elements", _eigen_elements)),
    "orthopoly.cdhahn_normalized_batch": (("orthopoly", "oscillator"), None),
}


SUITE_NAMES = ("orthonormality-disk", "orthonormality-oscillator", "overlap",
               "resolution", "eigen-equation", "srivastava-rao", "saran",
               "f5-reductions", "isometry", "m0-reduction")


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1,
                          self.request])
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = clock()
                if counter is not None:
                    self.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every site in SITES and each verification suite."""
        names = list(SITES) + [f"verification.{s}" for s in SUITE_NAMES]
        self._undo = install(names, self.wrap)

    def uninstall(self) -> None:
        uninstall(self._undo)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(names, wrap) -> list:
    """Replace each function in ``names`` (keys of SITES, or
    ``verification.<suite>``) at every site it is looked up under by
    ``wrap(name, fn, counter)``; return what ``uninstall`` needs."""
    undo = []
    for name in names:
        home, attr = name.split(".", 1)
        if home == "verification" and attr in SUITE_NAMES:
            suites = importlib.import_module("relbargmann.verification")._SUITE_FUNCS
            undo.append((suites, attr, suites[attr]))
            suites[attr] = wrap(name, suites[attr], None)
            continue
        modules, counter = SITES[name]
        fn = getattr(importlib.import_module(f"relbargmann.{home}"), attr)
        wrapped = wrap(name, fn, counter)
        for mod in modules:
            owner = importlib.import_module(f"relbargmann.{mod}")
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)
    return undo


def uninstall(undo: list) -> None:
    while undo:
        owner, key, old = undo.pop()
        if isinstance(owner, dict):
            owner[key] = old
        else:
            setattr(owner, key, old)


def _covered(intervals, lo=-np.inf, hi=np.inf) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [(end - start) - _covered(children[i], start, end)
            for i, (_, start, end, _, _) in enumerate(spans)]


def layer_stats(spans) -> dict:
    """Per span name: calls, busy time (union of its spans), self time and
    the list of durations."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)
    out = {}
    for name, ids in by_name.items():
        out[name] = {
            "calls": len(ids),
            "busy_s": _covered([(spans[i][1], spans[i][2]) for i in ids]),
            "self_s": sum(own[i] for i in ids),
            "durations": [spans[i][2] - spans[i][1] for i in ids],
        }
    return out


def per_layer_metrics(spans, counts) -> dict:
    """The per-layer figures named in BENCHMARK.json, from one traced pass.

    A layer that did not run reports zero calls and zero time.
    """
    stats = layer_stats(spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name):
        return stats.get(name, empty)

    out = {}
    for name, fields in (
            ("hypergeom.gauss_2f1_vec", ("calls", "busy_s")),
            ("hypergeom.f5_kernel_vec", ("calls", "busy_s")),
            ("coherent.transform_kernel", ("calls", "busy_s", "self_s")),
            ("coherent.cs_wavefunction", ("calls", "busy_s")),
            ("quadrature.integrate_halfline", ("calls", "busy_s", "self_s")),
            ("bargmann.relativistic_transform", ("calls", "self_s")),
            ("bargmann.relativistic_transform_m0", ("busy_s",)),
            ("bargmann.isometry_check", ("busy_s", "self_s")),
            ("disk.basis_phi_batch", ("calls", "busy_s")),
            ("oscillator.eigenfunction_batch", ("calls", "busy_s", "self_s")),
            ("orthopoly.cdhahn_normalized_batch", ("busy_s",)),
            ("cli.read_sampled_function", ("busy_s",))):
        for field in fields:
            out[f"{name}.{field}"] = get(name)[field]
    for name in ("hypergeom.gauss_2f1_vec.elements",
                 "coherent.transform_kernel.xi_nodes",
                 "oscillator.eigenfunction_batch.elements"):
        out[name] = counts.get(name, 0)
    durations = get("bargmann.relativistic_transform")["durations"]
    out["bargmann.relativistic_transform.p50_s"] = (
        statistics.median(durations) if durations else 0.0)

    # kernel calls made on behalf of one transform point, and spline builds
    # per transform request (one relativistic_transform_grid call each)
    kernel_in_transform = 0
    for span in spans:
        if span[0] != "coherent.transform_kernel":
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != "bargmann.relativistic_transform":
            parent = spans[parent][3]
        kernel_in_transform += parent >= 0
    transforms = get("bargmann.relativistic_transform")["calls"]
    out["quadrature.kernel_calls_per_point"] = (
        kernel_in_transform / transforms if transforms else 0.0)
    requests = get("bargmann.relativistic_transform_grid")["calls"]
    out["bargmann.spline_builds_per_request"] = (
        get("bargmann.CubicSpline")["calls"] / requests if requests else 0.0)

    # CLI time that is not spent in library children: parsing, formatting
    # and writing
    out["cli.self_s"] = (get("cli.main")["self_s"]
                         + get("cli.read_sampled_function")["self_s"])
    for suite in SUITE_NAMES:
        out[f"verification.{suite}.busy_s"] = get(f"verification.{suite}")["busy_s"]
    return out


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name.endswith("_per_point"):
        return "calls/point"
    if name.endswith("_per_request"):
        return "builds/request"
    return "s" if name.endswith("_s") else "count"
