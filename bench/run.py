"""Benchmark for relbargmann: one workload, one seed, one run.

    python3 bench/run.py --workload transform-mesh --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  Each run

* times the CLI start-up (``python -m relbargmann --version``) in fresh
  interpreters,
* writes the workload's seeded inputs and computes their references,
* with ``--trace 0`` runs whole cycles of requests, closed loop with one
  client, until the next cycle would end after ``--seconds``, and reports
  the end-to-end metrics;
* with ``--trace 1`` runs one warm-up cycle, one untraced and one traced
  cycle, and reports the per-layer metrics, including the tracing overhead.

Every op is checked against its reference.  End-to-end times are reported
in reference seconds: wall time scaled by the host speed, which a fixed
calibration loop probes between requests, and an interpreter that does
nothing probes around each start-up sample (the host's speed swings by up
to 2x within a minute as other tenants load it).  The last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``; the
line before it carries the details, wall-clock figures included.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT = 60


#: seconds three calibration loops take at the reference host speed.  On
#: the shared 2-core x86-64 virtual machine (Python 3.11, numpy 2.4) where
#: the benchmark was written they took 14 to 35 ms as the load from other
#: tenants came and went; reference seconds rescale wall time to 25 ms.
CAL_REF = 0.025


def calibration_loop():
    """A fixed amount of small-array complex arithmetic with a per-step
    convergence test: the same mix of interpreter and numpy work as the
    package's series loops, and nothing from the package."""
    import numpy as np

    a = np.linspace(0.1, 1.0, 64) + 0.5j
    term = np.ones_like(a)
    total = np.ones_like(a)
    for k in range(500):
        term = term * ((a + k) * (a + k + 0.5) / ((a + 1.5 + k) * (k + 1.0))) * 0.3
        total = total + term
        np.all(np.abs(term) <= 1e-16 * (1.0 + np.abs(total)))
    return total


#: seconds three vector calibration loops take at the reference host speed
CAL_REF_VECTOR = 0.0162


def vector_calibration_loop():
    """Long-vector complex arithmetic: the powers of a disk point for 8001
    exponents, weighted and summed, like the package's thousand-term basis
    superpositions, and nothing from the package."""
    import numpy as np

    e = np.arange(8001.0)
    w = 1.0 / (1.0 + e)
    acc = 0j
    for i in range(8):
        p = ((0.5 + 0.4j) * (1.0 - 1e-3 * i)) ** e
        acc += (p * w) @ np.conj(p)
    return acc


#: calibration of each workload whose time goes to long vectors rather than
#: to the interpreter and small arrays
VECTOR_WORKLOADS = ("isometry-norms",)


def host_speed(vector: bool = False) -> float:
    """The reference time over three times the median of three calibration
    loops: above 1 when the host runs faster than the reference, below 1
    when it is slowed down.  The median drops a loop hit by a momentary
    stall."""
    loop, ref = ((vector_calibration_loop, CAL_REF_VECTOR) if vector
                 else (calibration_loop, CAL_REF))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return ref / (3.0 * statistics.median(times))


#: the package's coarse entry points, with every verification suite: inside
#: a request the host speed may be probed when one of them returns, at most
#: every PROBE_GAP seconds
PROBE_SITES = ("bargmann.relativistic_transform",
               "bargmann.relativistic_transform_m0", "bargmann.isometry_check",
               "bargmann.classical_bargmann")
PROBE_GAP = 0.5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


#: seconds a fresh ``python -c pass`` takes at the reference host speed
SPAWN_REF = 0.065


def timed_child(cmd: list) -> float:
    """Wall time of one fresh interpreter running ``cmd``."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} failed: {proc.stderr.strip()}")
    return dt


def time_setup(samples: int) -> tuple[list[float], list[float]]:
    """Wall times of ``python -m relbargmann --version`` in fresh
    interpreters, and the same scaled to the reference host speed.

    The probe for start-up is an interpreter that does nothing, started
    just before and just after each sample: start-up waits on process
    creation and file loading, which the arithmetic calibration loops do
    not track.  One extra first call is not counted: it may write bytecode
    caches.
    """
    cmd = [sys.executable, "-m", "relbargmann", "--version"]
    probe = [sys.executable, "-c", "pass"]
    wall, scaled = [], []
    before = timed_child(probe)
    for i in range(samples + 1):
        dt = timed_child(cmd)
        after = timed_child(probe)
        if i:
            wall.append(dt)
            scaled.append(dt * SPAWN_REF / (0.5 * (before + after)))
        before = after
    return wall, scaled


def time_imports(samples: int) -> tuple[float, float]:
    """Median import time of relbargmann.cli and the part of it spent in
    scipy.interpolate, from ``python -X importtime``."""
    code = ("import time; t = time.perf_counter(); import relbargmann.cli; "
            "print(time.perf_counter() - t)")
    cmd = [sys.executable, "-X", "importtime", "-c", code]
    total, interp = [], []
    for _ in range(samples):
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()}")
        total.append(float(proc.stdout.strip().splitlines()[-1]))
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.interpolate":
                interp.append(int(parts[1]) * 1e-6)
    return statistics.median(total), statistics.median(interp) if interp else 0.0


def blas_threads() -> dict:
    """BLAS libraries mapped into this process and their thread counts."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:  # no /proc: not Linux
        return out
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


class Tally:
    """Request times and op outcomes of one run.

    ``wall`` holds wall times; ``scaled`` holds the same times in reference
    seconds (see ``run_cycle``).
    """

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.labels: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, label: str, wall: float, scaled: float, flags: list,
            error: str = ""):
        self.wall.append(wall)
        self.scaled.append(scaled)
        self.labels.append(label)
        self.attempted += len(flags)
        bad = len(flags) - sum(bool(f) for f in flags)
        self.failed += bad
        if bad and len(self.failures) < 20:
            self.failures.append(f"{label}: {bad}/{len(flags)} failed {error}".strip())

    def p50_by_label(self) -> dict:
        """Median scaled latency of each request of the cycle."""
        by_label: dict = {}
        for label, t in zip(self.labels, self.scaled):
            by_label.setdefault(label, []).append(t)
        return {k: statistics.median(v) for k, v in by_label.items()}


class Clock:
    """Request timer in wall seconds and in reference seconds.

    The host speed is probed before and after every request.  With
    ``split_inside`` it is also probed inside a request whenever one of
    PROBE_SITES returns at least PROBE_GAP seconds after the last probe.
    Each stretch between two probes is scaled by the mean of their speeds,
    and probe time is left out of the request time.  A single request of
    ``verify --suite all`` lasts about 20 s, far longer than the host's
    speed stays put.
    """

    def __init__(self, vector: bool = False):
        self.vector = vector
        self.speed = host_speed(vector)
        self.mark = time.perf_counter()
        self.wall = self.scaled = 0.0
        self._undo: list = []

    def split_inside(self, tracing) -> None:
        def wrap(name, fn, counter):
            def probed(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._split(PROBE_GAP)
            return probed

        suites = tuple(f"verification.{s}" for s in tracing.SUITE_NAMES)
        self._undo = tracing.install(PROBE_SITES + suites, wrap)

    def close(self, tracing) -> None:
        tracing.uninstall(self._undo)

    def start(self) -> None:
        self.wall = self.scaled = 0.0
        self.mark = time.perf_counter()

    def _split(self, min_gap: float = 0.0) -> None:
        now = time.perf_counter()
        if now - self.mark < min_gap:
            return
        speed = host_speed(self.vector)
        self.wall += now - self.mark
        self.scaled += (now - self.mark) * 0.5 * (self.speed + speed)
        self.speed = speed
        self.mark = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        self._split()
        return self.wall, self.scaled


def run_cycle(requests, tally: Tally, clock: Clock, tracer=None
              ) -> tuple[float, float]:
    """Run every request once, closed loop; return the cycle's summed
    request time in wall and in reference seconds."""
    wall = scaled = 0.0
    for req in requests:
        if tracer is not None:
            tracer.request += 1
        sink = io.StringIO()
        error = ""
        clock.start()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                raw = req.run()
        except SystemExit as exc:
            raw, error = None, f"exit {exc.code}"
        except Exception as exc:  # every failure of the program is counted
            raw, error = None, f"{type(exc).__name__}: {exc}"
        dt, ref = clock.stop()
        wall += dt
        scaled += ref
        flags = [False] * req.ops if error else req.check(raw)
        tally.add(req.label, dt, ref, flags, error or sink.getvalue().strip()[:200])
    return wall, scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "relbargmann" / "__init__.py").is_file():
        print(f"error: no relbargmann sources under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread: a single closed-loop client on small matrices, and no
    # more threads than cores whatever the environment says
    for key in BLAS_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, str(SRC))
    import relbargmann

    if Path(relbargmann.__file__).resolve().parent != SRC / "relbargmann":
        print(f"error: relbargmann imported from {relbargmann.__file__}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, work, tracing, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, tracing, workloads) -> int:
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine(), "cal_ref_s": CAL_REF}
    if args.trace:
        import_cli_s, import_interp_s = time_imports(IMPORT_SAMPLES)
    else:
        setup_wall, setup_scaled = time_setup(SETUP_SAMPLES)

    requests = workloads.build(args.workload, args.seed, work)
    detail["known_defects"] = workloads.known_defects(args.workload)
    tally = Tally()
    clock = Clock(args.workload in VECTOR_WORKLOADS)
    if args.trace:
        # the first cycle fills the package's caches (basis coefficient
        # tables), so the untraced and traced cycles both run warm
        run_cycle(requests, tally, clock)
        untraced, untraced_ref = run_cycle(requests, tally, clock)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_ref = run_cycle(requests, tally, clock, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = tracing.per_layer_metrics(tracer.spans, tracer.counts)
        metrics["setup.import_cli_s"] = import_cli_s
        metrics["setup.import_scipy_interpolate_s"] = import_interp_s
        metrics["trace.overhead_s"] = traced_ref - untraced_ref
        detail.update(untraced_wall_s=untraced, traced_wall_s=traced,
                      spans=len(tracer.spans))
        units = {}
    else:
        clock.split_inside(tracing)
        start = time.perf_counter()
        rates, wall_rates = [], []
        try:
            while True:
                ops = tally.attempted
                w, r = run_cycle(requests, tally, clock)
                rates.append((tally.attempted - ops) / r)
                wall_rates.append((tally.attempted - ops) / w)
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(rates) > args.seconds:
                    break
        finally:
            clock.close(tracing)
        # the median cycle: the first one also fills the package's caches
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "ops_per_s": statistics.median(rates),
            "request_p50_s": statistics.median(tally.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "ops_per_s": "ops/s", "request_p50_s": "s",
                 "peak_rss_mb": "MB"}
        detail.update(cycles=len(rates), requests=len(tally.wall),
                      ops_per_wall_s=statistics.median(wall_rates),
                      request_p50_wall_s=statistics.median(tally.wall),
                      request_p50_by_label_s=tally.p50_by_label(),
                      setup_wall_s=setup_wall, setup_scaled_s=setup_scaled)
    detail.update(attempted=tally.attempted, failed=tally.failed,
                  failed_frac=tally.failed / tally.attempted,
                  failures=tally.failures)
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value,
                           "unit": units.get(name) or tracing.unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
