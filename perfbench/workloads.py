"""The benchmark's workloads: the faultypolar CLI commands each one runs.

Only the standard library is imported here, because the child process
loads this module before it times the import of ``faultypolar.cli``.

Every workload is a closed loop of one client: its commands run one
after another in one fresh interpreter, single-threaded (no ``--threads``
flag), and the next repetition starts only when the previous one ended.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# At this seed the commands are exactly the ones pinned in golden.json,
# so their CSVs are checked byte for byte.
DEFAULT_SEED = 0

# Rate grid of `sweep fer-rate` and `sweep protection` when --rates is not
# given (the CLI default): 0.05, 0.10, ..., 0.95.
DEFAULT_RATES = tuple(round(0.05 * i, 2) for i in range(1, 20))

NAMES = ("sim-shared", "sim-tree-genie", "design")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the CSV files it writes into its --out-dir."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: str  # name of the statistical check in verify.py
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(self.argv[:2]) if self.argv[0] == "sweep" else self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # Code positions one repetition processes: trials * N for a simulation
    # (bit positions decoded), the sum of N over the codes a design run
    # evaluates by density evolution.
    positions: int


def _sim(name, seed, *, n, p, delta, rate, mode, genie, trials):
    argv = ["simulate", "--n", str(n), "--p", repr(p), "--delta", repr(delta),
            "--rate", repr(rate), "--mode", mode, "--trials", str(trials),
            "--seed", str(seed)]
    outputs = ["sim.csv"]
    if genie:
        argv.append("--genie")
        outputs.append("perbit.csv")
    params = dict(n=n, p=p, delta=delta, rate=rate, trials=trials, genie=genie)
    command = Command(tuple(argv), tuple(outputs), "simulate", params)
    return Workload(name, (command,), trials * 2**n)


def _design(seed):
    # The default seed runs p = 0.5; any other seed draws p from
    # [0.45, 0.55), which changes every output but none of the work.
    p = 0.5
    if seed != DEFAULT_SEED:
        p = round(0.45 + 0.1 * random.Random(seed).random(), 6)
    delta = 1e-6
    np_levels = range(0, 9)
    deltas = (1e-3, 1e-4, 1e-5)
    nus = range(1, 21)
    common = ["--p", repr(p), "--delta", repr(delta)]
    commands = (
        Command(("construct", "--n", "14", *common, "--rate", "0.5"),
                ("reliabilities.csv", "code.csv"), "construct",
                dict(n=14, p=p, delta=delta, rate=0.5)),
        Command(("sweep", "staircase", "--n", "14", *common),
                ("staircase.csv",), "staircase", dict(n=14, p=p, delta=delta)),
        Command(("sweep", "fer-rate", "--n", "20", *common),
                ("fer_rate.csv",), "fer_rate", dict(n=20)),
        Command(("sweep", "protection", "--n", "18", *common,
                 "--np", f"{np_levels[0]}..{np_levels[-1]}"),
                tuple(f"protection_np{v}.csv" for v in np_levels), "protection",
                dict(n=18, np_levels=tuple(np_levels))),
        Command(("sweep", "rate-loss", "--p", repr(p),
                 "--deltas", ",".join(f"{d:g}" for d in deltas),
                 "--nu", f"{nus[0]}..{nus[-1]}"),
                tuple(f"rate_loss_delta_{d:g}.csv" for d in deltas), "rate_loss",
                dict(p=p, deltas=deltas, nus=tuple(nus))),
    )
    positions = 2**14 + 2**14 + 2**20 + len(np_levels) * 2**18
    return Workload("design", commands, positions)


def build(name: str, seed: int) -> Workload:
    """The workload `name` with its inputs derived from `seed`."""
    if name == "sim-shared":
        # FER is about 0.5 here, which keeps binomial_ci95 on its normal
        # branch; at FER 1 a lazy scipy import would swamp the decoder.
        # Both simulations are one chunk: their trials fill one 64 MiB
        # fault table, which keeps a repetition near 0.4 s.
        return _sim(name, seed, n=10, p=0.3, delta=1e-3, rate=0.4, mode="shared",
                    genie=False, trials=819)
    if name == "sim-tree-genie":
        return _sim(name, seed, n=6, p=0.3, delta=1e-2, rate=0.25, mode="independent-tree",
                    genie=True, trials=2080)
    if name == "design":
        return _design(seed)
    raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(NAMES)}")
