"""The benchmark's tracer still finds every layer it measures.

perfbench/child.py wraps module-level names of the program (for example
montecarlo._decode_batch and montecarlo.encode) and reads some of their
arguments. A name a refactor removes makes its traced metrics read null;
these tests run each workload once, traced, the way perfbench/run.py does.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sim-shared", "sim-tree-genie", "design")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_measures_every_layer(workload, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), workload, "0",
         str(tmp_path), "1", str(tmp_path / "spans.csv")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["exit_codes"] and set(report["exit_codes"]) == {0}, proc.stderr[-4000:]
    assert report["trace"]["unmeasured"] == []
    if workload == "design":
        # construct, staircase and fer-rate each call evolve_all once, the
        # sweeps through analysis.evolve_all, whatever order they ask for;
        # protection --n 18 --np 0..8 once per distinct faulty-step count
        # (18 down to 11)
        assert report["trace"]["counts"]["construction.evolve_all_calls"] == 3 + 8


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench/workloads.py and perfbench/verify.py, imported as run.py does."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import verify
    import workloads

    return workloads, verify


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed0_outputs_match_the_benchmark_goldens(workload, perfbench, tmp_path):
    # perfbench/golden.json pins sizes (n = 14..20, nu up to 20) above those
    # of tests/test_golden.py, where other code paths of numpy can run.
    workloads, verify = perfbench
    from faultypolar.cli import main

    golden = verify.golden_hashes()[workload]
    for command in workloads.build(workload, 0).commands:
        assert main([*command.argv, "--out-dir", str(tmp_path)]) == 0, command.argv
        _, problems = verify.check_command(command, tmp_path, golden)
        assert problems == [], command.argv


@pytest.mark.parametrize("workload", ["sim-shared", "sim-tree-genie"])
def test_benchmark_simulations_run_as_one_chunk(workload, perfbench, monkeypatch, tmp_path):
    # each simulation workload times one chunk of default size
    from faultypolar import montecarlo
    from faultypolar.cli import main

    chunks = []
    run_chunk = montecarlo._run_chunk

    def recording(config, start, stop, slots):
        chunks.append((start, stop))
        return run_chunk(config, start, stop, slots)

    monkeypatch.setattr(montecarlo, "_run_chunk", recording)
    (command,) = perfbench[0].build(workload, 0).commands
    assert main([*command.argv, "--out-dir", str(tmp_path)]) == 0
    assert chunks == [(0, command.params["trials"])]


@pytest.mark.parametrize("workload", ["sim-shared", "sim-tree-genie"])
def test_tracer_reads_the_chunk_and_decoder_arguments_it_counts(workload, perfbench,
                                                                monkeypatch, tmp_path):
    # perfbench/tracer.py reads arguments 1-3 of _run_chunk (start, stop,
    # slots) and 0, 3 and 6 of _decode_batch (the channel-erasure mask, the
    # mode and the fault hit plane) by position; a shifted argument would
    # change montecarlo.fault_table_mib, codec.decode_msgs and
    # codec.fault_slots without failing anything else
    from faultypolar import montecarlo
    from faultypolar.cli import main
    from faultypolar.codec import fault_slot_count

    chunks, decodes = [], []
    run_chunk, decode = montecarlo._run_chunk, montecarlo._decode_batch

    def recording_chunk(*args, **kwargs):
        chunks.append(args)
        return run_chunk(*args, **kwargs)

    def recording_decode(*args, **kwargs):
        fault = args[2]
        decodes.append((args[0].dtype, args[0].shape, args[3], fault,
                        None if args[6] is None else args[6].shape[0]))
        return decode(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_run_chunk", recording_chunk)
    monkeypatch.setattr(montecarlo, "_decode_batch", recording_decode)
    (command,) = perfbench[0].build(workload, 0).commands
    assert main([*command.argv, "--out-dir", str(tmp_path)]) == 0
    n, trials = command.params["n"], command.params["trials"]
    (chunk,) = chunks
    fault = chunk[0].fault
    slots = fault_slot_count(n, fault)
    assert slots > 0
    assert chunk[1:4] == (0, trials, slots)
    (call,) = decodes
    assert call[:2] == (np.dtype(bool), (trials, 2**n))
    assert call[2] == fault.correlation_mode
    assert call[2].replace("_", "-") == command.argv[command.argv.index("--mode") + 1]
    assert call[3] is fault
    assert call[4] == slots


def test_design_commands_peak_at_one_buffer_of_their_largest_n(perfbench, tmp_path):
    # Density evolution holds one 2**n float64 buffer at a time. The slack
    # covers the CSV text of the n = 14 commands, about 2.5 MiB; the three
    # buffers of an out-of-place sort and sum at n = 20 would exceed it.
    from faultypolar.cli import main
    from faultypolar.construction import DEFAULT_ENUMERATION_CAP

    for command in perfbench[0].build("design", 0).commands:
        params = command.params
        n = params["n"] if "n" in params else min(max(params["nus"]), DEFAULT_ENUMERATION_CAP)
        tracemalloc.start()
        try:
            assert main([*command.argv, "--out-dir", str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**n + 3 * 2**20, (command.label, peak)
