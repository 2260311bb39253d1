"""One repetition of a workload in a fresh interpreter.

Run by run.py, never by hand: ``python3 perfbench/child.py <workload> <seed>
<out-dir> <trace 0|1> <spans-file>``, or ``--import-only``. Prints one JSON
object as its last line of standard output.

Nothing but the standard library is imported before the import of
``faultypolar.cli`` is timed, so that time is the program's own set-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _calibration():
    """A fixed CPU kernel the program never runs; returns a timer for it.

    The host shares its cores with other tenants, which slows whole stretches
    of a run by up to a third. Timing this kernel right before and after the
    commands measures that slowdown in the same process, so run.py can
    divide it out of each repetition.
    """
    import numpy as np

    data = np.random.default_rng(0).random(1 << 16)

    def kernel() -> float:
        start = time.perf_counter()
        for _ in range(24):
            np.sort(data)
        total = 0
        for i in range(200_000):
            total += i * i
        return time.perf_counter() - start

    return kernel


def _import_cli():
    start = time.perf_counter()
    import faultypolar.cli as cli
    return cli, time.perf_counter() - start


def _run(main, argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse rejects a usage error this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command, not a failed benchmark
        traceback.print_exc()
        return 1


def main(argv) -> int:
    if argv == ["--import-only"]:
        _, import_s = _import_cli()
        print(json.dumps({"import_s": import_s, "calibration_s": _calibration()()}))
        return 0
    name, seed, out_dir, trace, spans_path = argv
    cli, import_s = _import_cli()

    import workloads

    workload = workloads.build(name, int(seed))
    commands = [(*command.argv, "--out-dir", out_dir) for command in workload.commands]
    calibrate = _calibration()
    calibration_s = calibrate()
    tracer = None
    entry = cli.main
    if trace == "1":
        from faultypolar import analysis, construction, montecarlo

        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cli, construction, analysis, montecarlo)
        entry = tracer.wrap("cli.main", cli.main)
        rep = tracer.root("bench.rep")

    cpu_start = time.process_time()
    start = time.perf_counter()
    codes = [_run(entry, argv) for argv in commands]
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    if tracer is not None:
        tracer.close_root(rep)
    calibration_s = (calibration_s + calibrate()) / 2

    result = {
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "calibration_s": calibration_s,
        "exit_codes": codes,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
