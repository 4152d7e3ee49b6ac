"""Benchmark of the symperc command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-sweep --seed 2204 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

One client in one process calls ``symperc.cli.main(argv)`` for each op of
the workload, in a closed loop: the next op starts when the previous one
has returned.  Every op that has ``--threads`` gets ``--threads 1``.  A run
repeats the workload's ops (one pass) until ``--seconds`` have passed and
reports medians over the passes.  Each op's exit code and outputs are
checked against ``reference.json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics; README.md
names every metric.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_op, load_reference
from hostspeed import Speedometer
from workloads import build_ops, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
WORKLOAD_NAMES = ("exact-sweep", "mc-sample", "corpus-small")
DEFAULT_SEED = 2204
DEFAULT_SECONDS = 35

# setup_s: a fresh interpreter imports symperc.cli and finishes one trivial
# op.  It samples its own speed and prints the share of full speed it got.
SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys; sys.path[:0] = ['src', 'perfbench']; import hostspeed; "
    "meter = hostspeed.Speedometer(0.005); meter.start(); "
    "from symperc.cli import main; "
    "rc = main(['check-symmetry', '--scenario', 'builtin:bunkbed-path2']); "
    "meter.stop(); print(meter.share(0)); sys.exit(rc)"
)

# exact.threads2_speedup: the bond graph of exact-sweep, --threads 2 against 1.
THREADS_ARGV = ["enumerate", "--scenario", "builtin:z2-n3-rel1", "--p", "1/2"]
THREADS_REPEATS = 2


def machine() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = "absent"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "threads_per_op": 1, "clients": 1}


def measure_setup() -> tuple[float, float]:
    """Median time of fresh interpreters running one trivial op, at full
    host speed and raw."""
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up op exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        share = float(proc.stdout.splitlines()[-1])
        times.append(elapsed * share)
        raw.append(elapsed)
    return statistics.median(times), statistics.median(raw)


class Runner:
    """Runs a workload's ops through the CLI and checks every result."""

    def __init__(self, cli_main, ops, reference):
        self.cli_main = cli_main
        self.ops = ops
        self.reference = reference
        self.meter = Speedometer()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _call(self, argv, tracer=None) -> tuple[int, float]:
        sink = io.StringIO()  # the human summary each op prints
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            if tracer is None:
                rc = self.cli_main(argv)
            else:
                rc = tracer.call("cli.main", self.cli_main, (argv,), {})
            return rc, time.perf_counter() - start

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """One closed-loop pass over the ops, with the meter running.
        Returns the pass's time at full host speed and its share of full
        speed."""
        since = self.meter.mark()
        total = 0.0
        for op in self.ops:
            for path in (op.json_path, op.csv_path):
                if path is not None:
                    path.unlink(missing_ok=True)
            if tracer is not None:
                tracer.label = op.spec.label
            start = time.perf_counter()
            try:
                rc, elapsed = self._call(list(op.argv), tracer)
            except Exception as exc:  # an op that crashes counts as failed
                rc, elapsed = None, time.perf_counter() - start
                problem = f"raised {exc!r}"
            total += elapsed
            if rc is not None:
                try:
                    problem = check_op(op, rc, self.reference)
                except (OSError, KeyError, ValueError) as exc:
                    problem = f"unreadable output: {exc!r}"
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.failures.append(f"{' '.join(op.argv)}: {problem}")
        share = self.meter.share(since)
        return total * share, share

    @contextlib.contextmanager
    def metered(self):
        self.meter.start()
        try:
            yield
        finally:
            self.meter.stop()

    def threads2_speedup(self) -> float:
        times = {1: [], 2: []}
        for _ in range(THREADS_REPEATS):
            for threads in (1, 2):
                rc, elapsed = self._call(
                    THREADS_ARGV + ["--threads", str(threads)])
                if rc != 0:
                    raise RuntimeError(f"threads op exited {rc}")
                times[threads].append(elapsed)
        return statistics.median(times[1]) / statistics.median(times[2])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(runner, seconds) -> tuple[dict, dict]:
    """Gated metrics, and the derived ones printed alongside them."""
    setup_s, setup_raw_s = measure_setup()
    deadline = time.perf_counter() + seconds
    passes, speeds = [], []
    with runner.metered():
        while not passes or (time.perf_counter() + passes[-1] / speeds[-1] / 2
                             < deadline):
            elapsed, speed = runner.run_pass()
            passes.append(elapsed)
            speeds.append(speed)
    wall = statistics.median(passes)
    ops = runner.ops
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "reports_per_s": (len(ops) / wall, "reports/s"),
    }
    derived = {
        "failed_frac": (runner.failed / runner.attempted, "fraction"),
        "passes": (len(passes), "count"),
        "speed_share": (statistics.median(speeds), "fraction"),
        "wall_raw_s": (statistics.median(
            p / s for p, s in zip(passes, speeds)), "s"),
        "setup_raw_s": (setup_raw_s, "s"),
    }
    configs = sum(op.spec.configs for op in ops)
    if configs:
        derived["config_space_per_s"] = (configs / wall, "configs/s")
    samples = sum(op.spec.samples for op in ops)
    if samples:
        derived["mc_samples_per_s"] = (samples / wall, "samples/s")
    return metrics, derived


def per_layer(runner, seconds, workload) -> tuple[dict, dict]:
    from tracing import (CHECKS, EVALS, LAYERS, OUTPUT, SAMPLERS, SUMMARIES,
                         SWEEPS, Tracer)

    speedup = runner.threads2_speedup()
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    plain, traced, speeds = [], [], []
    with runner.metered():
        while not traced or time.perf_counter() + pair / 2 < deadline:
            start = time.perf_counter()
            plain.append(runner.run_pass()[0])
            with tracer.installed():
                elapsed, speed = runner.run_pass(tracer)
            traced.append(elapsed)
            speeds.append(speed)
            pair = time.perf_counter() - start

    n = len(traced)
    own, part, counts = tracer.self_s, tracer.slice_s, tracer.counts
    layers = tracer.layer_self_s()
    root = tracer.root_s()
    if abs(sum(layers.values()) - root) > 1e-6 * max(root, 1.0):
        raise RuntimeError("layer self times do not add up to the root spans")
    # Times are scaled to full host speed, like the end-to-end ones.
    speed = statistics.fmean(speeds)

    def secs(names):
        return sum(own[name] for name in names) * speed / n

    def count(key):
        return counts[key] / n

    def rate(work, spent):
        return counts[work] / (part[spent] * speed) if part[spent] else 0.0

    metrics = {
        "graphs.build_s": (layers["graphs"] * speed / n, "s"),
        "groups.closure_s": (secs(["groups.generate_group"]), "s"),
        "groups.closure_elements": (count("groups.closure_elements"),
                                    "count"),
        "groups.symmetry_s": (secs(["groups.check_symmetry_conditions"]),
                              "s"),
        "groups.symmetry_checks": (count("groups.symmetry_checks"), "count"),
        "groups.self_s": (layers["groups"] * speed / n, "s"),
        "exact.sweep_s": (secs(SWEEPS), "s"),
        "exact.sweeps": (count("exact.sweeps"), "count"),
        "exact.configs": (count("exact.configs"), "count"),
        "exact.bond.configs_per_s": (rate("exact.bond.configs", "law.bond"),
                                     "configs/s"),
        "exact.site.configs_per_s": (rate("exact.site.configs", "law.site"),
                                     "configs/s"),
        "exact.rc.configs_per_s": (rate("exact.rc.configs", "law.rc"),
                                   "configs/s"),
        "exact.connection.configs_per_s": (
            rate("exact.connection.configs", "law.connection"), "configs/s"),
        "exact.outcomes": (count("exact.outcomes"), "count"),
        "exact.eval_s": (secs(EVALS), "s"),
        "exact.evals": (count("exact.evals"), "count"),
        "exact.checks_s": (secs(CHECKS), "s"),
        "exact.checks": (count("exact.checks"), "count"),
        "exact.self_s": (layers["exact"] * speed / n, "s"),
        "exact.threads2_speedup": (speedup, "x"),
        "mc.sample_s": (secs(SAMPLERS), "s"),
        "mc.passes": (count("mc.passes"), "count"),
        "mc.cluster_growths": (count("mc.cluster_growths"), "count"),
        **{f"mc.{label}.samples_per_s": (
            rate(f"mc.{label}.samples", f"op.{label}"), "samples/s")
           for label in ("torus20", "bunkbed-c5", "hypercube6")},
        "mc.summary_s": (secs(SUMMARIES), "s"),
        "mc.self_s": (layers["mc"] * speed / n, "s"),
        "scenarios.self_s": (layers["scenarios"] * speed / n, "s"),
        "scenarios.reports": (count("scenarios.reports"), "count"),
        "cli.output_s": (secs(OUTPUT), "s"),
        "cli.json_bytes": (count("cli.json_bytes"), "bytes"),
        "cli.self_s": (secs(["cli.main"]), "s"),
        "trace.wall_s": (root * speed / n, "s"),
        "trace.overhead_frac": (
            statistics.median(traced) / statistics.median(plain) - 1,
            "fraction"),
        "trace.spans": (len(tracer.spans) / n, "count"),
    }
    shown = {f"share.{layer}": (layers[layer] / root, "fraction")
             for layer in LAYERS}
    for stage in ("sweep", "eval", "checks"):
        shown[f"share.exact.{stage}"] = (
            metrics[f"exact.{stage}_s"][0] * n / (root * speed), "fraction")
    shown["passes"] = (n, "count")
    shown["speed_share"] = (speed, "fraction")
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"trace-{workload}.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent"],
         "spans": tracer.spans}))
    return metrics, shown


def run_all(args) -> int:
    """Run every workload in its own process and print all their metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "symperc" / "cli.py").is_file():
        print(f"no symperc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from symperc import cli

    q5 = write_inputs(WORK)
    runner = Runner(cli.main, build_ops(args.workload, args.seed, WORK, q5),
                    load_reference())
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "ops_per_pass": len(runner.ops), **machine()}
    print("machine " + json.dumps(info), flush=True)
    if args.trace:
        metrics, shown = per_layer(runner, args.seconds, args.workload)
    else:
        metrics, shown = end_to_end(runner, args.seconds)
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for failure in runner.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
