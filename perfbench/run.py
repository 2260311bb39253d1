"""Benchmark of the faultypolar CLI: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload design --seed 0 --seconds 20 --trace 0

Each repetition runs the workload's commands through ``faultypolar.cli.main``
in a fresh interpreter (perfbench/child.py), so no state carries over
between repetitions. The outputs of every repetition are checked. With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported; with
``--trace 1`` traced and untraced repetitions alternate and the per-layer
metrics are reported. The last line of standard output is one JSON object;
a fuller record with the environment goes to .perfbench_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import verify
import workloads

SETUP_SAMPLES = 5  # import-only interpreters per run, besides one per repetition
MIN_REPS = 3  # untraced repetitions; a traced run needs this many of each kind
RUN_LIMIT_S = 170.0  # a run must end well within 180 s whatever --seconds says
# Times are reported as if the calibration kernel in child.py had taken
# this long: each repetition's time is scaled by CALIBRATION_S over the
# kernel's time in that same process. Raw times go to the results file.
CALIBRATION_S = 0.025


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=_nonnegative_int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=_nonnegative_int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Spawns the child interpreters of one run and collects what they report."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.child = str(Path(__file__).with_name("child.py"))
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def spawn(self, args) -> dict | None:
        """Run child.py to completion; its JSON report, or None if it failed."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        try:
            proc = subprocess.run([sys.executable, self.child, *args], cwd=self.root,
                                  env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            print("child timed out", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            return None
        if proc.stderr:
            sys.stderr.write(proc.stderr[-4000:])
        return json.loads(lines[-1])


def _environment(root: Path) -> dict:
    import numpy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "platform": platform.platform(), "nproc": nproc,
            "cpu_model": cpu, "git_commit": _git_commit(root)}


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Repetitions:
    """Runs repetitions, checks their outputs and keeps their samples."""

    def __init__(self, runner: Runner, workload, seed: int, work: Path, spans: Path):
        self.runner = runner
        self.workload = workload
        self.seed = seed
        self.work = work
        self.spans = spans
        self.reports: list[tuple[bool, dict]] = []  # (traced, child report)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_hashes: dict[str, str] | None = None
        golden = verify.golden_hashes().get(workload.name, {})
        self.golden = golden if seed == workloads.DEFAULT_SEED else None

    def run(self, traced: bool) -> bool:
        """One repetition; False when the child could not report at all."""
        index = len(self.reports)
        out = self.work / f"{self.workload.name}-{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        try:
            report = self.runner.spawn([self.workload.name, str(self.seed), str(out),
                                        "1" if traced else "0", str(self.spans)])
            commands = self.workload.commands
            self.attempted += len(commands)
            if report is None:
                self.failed += len(commands)
                self.problems.append(f"repetition {index}: the child process failed")
                return False
            self._check(index, out, report["exit_codes"])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        self.reports.append((traced, report))
        return True

    def _check(self, index: int, out: Path, codes) -> None:
        """Golden or statistical checks on the first repetition; later ones
        must reproduce the first byte for byte."""
        first = self.first_hashes is None
        expected = self.golden if first else self.first_hashes
        hashes = {}
        for command, code in zip(self.workload.commands, codes):
            got, problems = verify.check_command(command, out, expected)
            if first and code == 0:
                problems += verify.check_statistics(command, out)
            if code != 0:
                problems.insert(0, f"exit code {code}")
            hashes.update(got)
            if problems:
                self.failed += 1
                self.problems += [f"repetition {index}, {command.label}: {p}"
                                  for p in problems]
        if first:
            self.first_hashes = hashes

    def of(self, traced: bool) -> list[dict]:
        return [report for was_traced, report in self.reports if was_traced == traced]


def _scale(report: dict) -> float:
    """Factor that takes the host's slowdown out of one child's times."""
    return CALIBRATION_S / report["calibration_s"]


def _end_to_end(reps: Repetitions, setup: list[dict]) -> dict:
    untraced = reps.of(False)
    walls = [report["wall_s"] * _scale(report) for report in untraced]
    positions = reps.workload.positions / 1e6
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(report["import_s"] * _scale(report)
                                     for report in setup + untraced),
        "mpos_per_s": statistics.median(positions / wall for wall in walls),
        "peak_rss_mib": statistics.median(report["maxrss_mib"] for report in untraced),
    }


def _per_layer(reps: Repetitions) -> dict:
    untraced, traced = reps.of(False), reps.of(True)
    counts = traced[0]["trace"]["counts"]
    if any(report["trace"]["counts"] != counts for report in traced[1:]):
        reps.problems.append("exact counts differ between traced repetitions")
    values = dict(counts)
    buckets = traced[0]["trace"]["self_s"]
    for name in buckets:
        values[name] = statistics.fmean(report["trace"]["self_s"][name] * _scale(report)
                                        for report in traced)
    simulation_s = statistics.fmean(report["trace"]["simulation_s"] * _scale(report)
                                    for report in traced)
    values["montecarlo.rng_setup_frac"] = (
        values["montecarlo.rng_setup_s"] / simulation_s if simulation_s else 0.0)
    decode_s = values["codec.decode_s"]
    values["codec.decode_mmsg_per_s"] = (
        counts["codec.decode_msgs"] / decode_s / 1e6 if decode_s else 0.0)

    walls = [report["wall_s"] * _scale(report) for report in untraced]
    traced_walls = [report["wall_s"] * _scale(report) for report in traced]
    values["process.cpu_s"] = statistics.median(report["cpu_s"] * _scale(report)
                                                for report in untraced)
    values["process.cpu_util"] = statistics.median(report["cpu_s"] / report["wall_s"]
                                                   for report in untraced)
    values["trace.overhead_frac"] = (statistics.median(traced_walls)
                                     / statistics.median(walls) - 1.0)
    values["trace.wall_s"] = statistics.fmean(traced_walls)
    values["trace.attributed_frac"] = (sum(values[name] for name in buckets)
                                       / values["trace.wall_s"])
    for report in traced:
        for name in report["trace"]["unmeasured"]:
            values[name] = None
    return values


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "faultypolar" / "cli.py").is_file():
        print("error: run from the root of a faultypolar checkout "
              "(src/faultypolar/cli.py not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    runner = Runner(root, time.monotonic() + RUN_LIMIT_S)
    # The first import compiles bytecode; later ones time the steady state.
    if runner.spawn(["--import-only"]) is None:
        print("error: faultypolar.cli cannot be imported", file=sys.stderr)
        return 3
    setup = [report for report in
             (runner.spawn(["--import-only"]) for _ in range(SETUP_SAMPLES))
             if report is not None]

    workload = workloads.build(args.workload, args.seed)
    out_root = root / ".perfbench_out"
    spans = out_root / "trace" / f"{workload.name}-seed{args.seed}.spans.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    reps = Repetitions(runner, workload, args.seed, out_root / "work", spans)
    kinds = (False, True) if args.trace else (False,)
    start = time.monotonic()
    while True:
        if not all(reps.run(traced) for traced in kinds):
            break
        done = len(reps.reports) // len(kinds)
        if time.monotonic() - start >= args.seconds and done >= MIN_REPS:
            break
    measured_s = time.monotonic() - start

    if not reps.of(False) or (args.trace and not reps.of(True)):
        print("error: no repetition completed", file=sys.stderr)
        for problem in reps.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    values = _per_layer(reps) if args.trace else _end_to_end(reps, setup)
    missing = set(units) - set(values)
    if missing:
        print(f"error: declared metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    correct = reps.failed == 0 and not reps.problems
    n_reps = len(reps.of(False))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"workload {workload.name}: {why}")
    print(f"seed {args.seed}, {len(reps.reports)} repetitions in {measured_s:.1f} s "
          f"({n_reps} untraced), {len(setup)} extra set-up samples")
    for problem in reps.problems:
        print(f"FAILED {problem}")
    print(f"failed_frac = {reps.failed / max(reps.attempted, 1):.6g} "
          f"({reps.failed} of {reps.attempted} commands)")
    for name, metric in metrics.items():
        value = "unmeasured" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name} = {value} {metric['unit']}")

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(root), "correct": correct,
        "attempted": reps.attempted, "failed": reps.failed, "problems": reps.problems,
        "metrics": metrics, "calibration_s": CALIBRATION_S, "setup_samples": setup,
        "repetitions": [dict(report, traced=traced) for traced, report in reps.reports],
        "output_sha256": reps.first_hashes,
    }
    results = out_root / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": reps.attempted,
                      "failed": reps.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
