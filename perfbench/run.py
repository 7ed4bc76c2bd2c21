"""Benchmark of paracasimir's solver regimes, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload body-gap01 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop in one process: one caller, one evaluation
at a time, one BLAS thread.  ``--trace 0`` repeats evaluations with no
tracing until the next one would end after ``--seconds`` (at least one
runs), and reports

    setup_s      median time of 3 fresh processes that import paracasimir
                 and build the workload's inputs
    solve_s      median time of one evaluation
    peak_rss_mb  peak resident memory of this process
    pass_ratio   evaluations that returned and passed their check, over
                 those attempted (1 - fail_ratio)

setup_s and solve_s are wall times rescaled to a fixed machine speed by
calibration kernels run before and after each timed span (calibrate.py).
The raw wall times are printed as well.

``--trace 1`` times one evaluation untraced, then one with every layer
entry point wrapped (see spans.py), and reports the per-layer metrics.
The spans are written to perfbench/out/.  The last line of standard
output is one JSON object with keys correct, attempted, failed, metrics;
the lines before it repeat the metrics with units for people.
``--workload all`` runs every workload in its own process and prints a
table.  The package is imported from src/ of the checkout and nowhere
else.
"""

import os

# One BLAS thread, set before numpy can be imported by anything below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import Kernels, calibrate, reference_seconds
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("edge-tilt85", "body-gap01", "classical", "thermal-knife")
SETUP_REPEATS = 3

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "pass_ratio": "1"}
LAYER_UNITS = {"self_s": "s", "assemble_s": "s", "logdet_s": "s", "traced_s": "s",
               "overhead_s": "s", "logdet_gflop": "GFLOP", "logdet_gflops": "GFLOP/s"}


def _import_package():
    """Import paracasimir from this checkout's src/, or exit with an error."""
    init = SRC / "paracasimir" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: no package at {init}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import paracasimir
    if Path(paracasimir.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported {paracasimir.__file__}, not {init}")


def _machine() -> str:
    import numpy
    import scipy
    cpu = platform.processor() or "?"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return (f"machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"cpu={cpu!r} python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} numpy_blas={blas(numpy)!r} scipy_blas={blas(scipy)!r} "
            f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


class Stopwatch:
    """Wall and rescaled time of one evaluation, measured in laps.

    A workload calls ``lap`` between its public calls, and the runner once
    more at the end; each lap is rescaled by the calibrations around it,
    so a long evaluation is tracked in shorter pieces.
    """

    def __init__(self, rescaler=None):
        self.rescaler = rescaler
        self.wall = self.scaled = 0.0
        self._start = time.perf_counter()

    def lap(self):
        elapsed = time.perf_counter() - self._start
        self.wall += elapsed
        if self.rescaler is not None:
            self.scaled += elapsed * self.rescaler.factor()
        self._start = time.perf_counter()


def _evaluate(workload, inputs, seed, watch, call=None):
    """One evaluation timed by ``watch``: failure reason or None."""
    try:
        if call is None:
            out = workload.evaluate(inputs, lap=watch.lap)
        else:
            out = call(workload.evaluate, inputs)
    except Exception:
        traceback.print_exc()
        return "raised"
    finally:
        watch.lap()
    reason = workload.check(out, seed)
    print(f"eval: {watch.wall:.3f} s {out.detail} "
          f"budget={out.budget if out.budget is None else f'{out.budget:.3g}'} "
          f"{'ok' if reason is None else 'FAILED: ' + reason}", flush=True)
    return reason


class Rescaler:
    """Rescales timings to the speed at which the workload's calibration
    mix takes its reference time (see calibrate.py).

    Each timed span is divided by the mean of the calibrations run just
    before and just after it.
    """

    def __init__(self, mix: dict):
        self._kernels, self._mix = Kernels(), mix
        self._reference = reference_seconds(mix)
        calibrate(self._kernels, mix)  # warm-up: first calls, allocation, BLAS start
        self.calibrations = [calibrate(self._kernels, mix)]

    def factor(self) -> float:
        """Calibrate again; the factor for the span run since the last one."""
        before = self.calibrations[-1]
        self.calibrations.append(calibrate(self._kernels, self._mix))
        return self._reference / (0.5 * (before + self.calibrations[-1]))


def _setup_seconds(name: str, seed: int, rescaler: Rescaler) -> list:
    """Rescaled seconds of fresh processes that import and build inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    factor = rescaler.factor()
    print(f"setup (wall): median {statistics.median(times):.4f} s, n={len(times)}")
    return [t * factor for t in times]


def measure(workload, seed: int, seconds: float):
    """Untraced closed loop: (metrics, attempted, failed)."""
    rescaler = Rescaler(workload.mix)
    setups = _setup_seconds(workload.name, seed, rescaler)
    inputs = workload.inputs(seed)
    walls, samples, failed = [], [], 0
    start = time.perf_counter()
    while True:
        watch = Stopwatch(rescaler)
        failed += _evaluate(workload, inputs, seed, watch) is not None
        walls.append(watch.wall)
        samples.append(watch.scaled)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    q1, q3 = _quartiles(walls)
    print(f"solve (wall): median {statistics.median(walls):.4f} s, quartiles "
          f"[{q1:.4f}, {q3:.4f}], max {max(walls):.4f}, n={len(walls)}")
    q1, q3 = _quartiles(samples)
    print(f"solve_s (rescaled): quartiles [{q1:.4f}, {q3:.4f}] s, n={len(samples)}")
    cal = rescaler.calibrations
    print(f"calibration: median {statistics.median(cal):.4f} s, min {min(cal):.4f}, "
          f"max {max(cal):.4f}, n={len(cal)}")
    print(f"fail_ratio: {failed / len(samples):.4g} ({failed}/{len(samples)})")
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": (len(samples) - failed) / len(samples),
    }
    return metrics, len(samples), failed


def traced(workload, seed: int):
    """One untraced and one traced evaluation: (metrics, attempted, failed)."""
    inputs = workload.inputs(seed)
    plain = Stopwatch()
    plain_reason = _evaluate(workload, inputs, seed, plain)
    with Tracer() as tracer:
        watch = Stopwatch()
        traced_reason = _evaluate(workload, inputs, seed, watch, call=tracer.run)
    for name in tracer.untraced:
        print(f"untraced entry: {name} (bound in no layer module)")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    metrics = layer_metrics(tracer)
    metrics["trace.traced_s"] = tracer.root_seconds()
    metrics["trace.overhead_s"] = watch.wall - plain.wall
    metrics["trace.untraced_entries"] = len(tracer.untraced)
    failed = (plain_reason is not None) + (traced_reason is not None)
    return metrics, 2, failed


def _unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    return LAYER_UNITS.get(name.rsplit(".", 1)[-1], "count")


def report_all(args) -> int:
    """Run every workload in its own process and tabulate the results."""
    rows, ok = [], True
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exited with {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        rows.append((name, "fail_ratio", result["failed"] / result["attempted"], "1"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<28} {value:>14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    if args.workload == "all":
        return report_all(args)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.inputs(args.seed)
        return 0

    print(_machine())
    print(f"workload: {workload.name} seed={args.seed}: {workload.why}", flush=True)
    if args.trace:
        metrics, attempted, failed = traced(workload, args.seed)
    else:
        metrics, attempted, failed = measure(workload, args.seed, args.seconds)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {_unit(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
