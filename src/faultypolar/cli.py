"""Command-line front end: code construction, simulation, and analytic sweeps.

All outputs are CSV (UTF-8, comma separated, header row, LF endings) with
floats printed to 17 significant digits so files round-trip doubles
exactly. Every invocation writes a key=value manifest sidecar sufficient
to regenerate its outputs bit for bit.

Each command is a function that returns its tables as (file name,
header, columns); one runner builds the manifest and the fault model,
computes the tables, and only then writes them. Flags that several
commands share are declared once, in _FLAGS.

Exit codes: 0 success, 2 usage error (an output that cannot be written
included), 3 resource limit, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_RATE_GRID,
    fer_vs_rate_sweep,
    protection_sweep,
    rate_loss_sweep,
    staircase,
)
from .analysis import _code_dimensions, _protection_faults, _rate_loss_inputs
from .analysis import fer_proxy as _fer_proxy
from .construction import _code_dimension, _require_dimension, _require_exponent
from .construction import construct_code
from .core import INDEPENDENT_TREE, FaultSpec, _require_unit_interval
from .errors import InternalInvariantError, ResourceLimitError
from .montecarlo import SimConfig, _require_limits, _require_trials, run_simulation

OUTDIR_ENV = "FAULTYPOLAR_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

# Most values an 'a..b' range spec may expand to.
RANGE_SPEC_CAP = 2**20
# Most cells per format call of _write_csv (2048 rows of two columns): a
# block's cells, their Python values and its text take about 0.3 MiB.
CSV_BLOCK_CELLS = 2**12


def _fmt(value) -> str:
    """CSV cell: 17 significant digits for floats, plain text otherwise."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def parse_int_spec(text: str) -> list[int]:
    """Parse '4', '1,2,3', or an inclusive range 'a..b' of at most RANGE_SPEC_CAP values."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        start, stop = int(lo), int(hi)
        if stop < start:
            raise ValueError(f"empty range {text!r}")
        if stop - start >= RANGE_SPEC_CAP:
            raise ValueError(f"range {text!r} has more than {RANGE_SPEC_CAP} values")
        return list(range(start, stop + 1))
    return [int(part) for part in text.split(",") if part != ""]


def parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part != ""]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns under `header`, one format call per block.

    Each column gives one field of a row template: `%.17g` for floats, the
    17 significant digits of `_fmt`, and `%s` for the rest, the `str` of
    its Python value (ints as integers, bools as True/False). Each block
    of at most CSV_BLOCK_CELLS cells (one row at least) is interleaved
    row-major into one list of cells, formatted by the template repeated
    once per row in a single `%` and written, so what is held at once is
    one block's, whatever the column count.
    """
    columns = [np.asarray(column) for column in columns]
    width = len(columns)
    rows = len(columns[0]) if columns else 0
    block = max(1, CSV_BLOCK_CELLS // max(width, 1))
    template = ",".join("%.17g" if column.dtype.kind == "f" else "%s"
                        for column in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, block):
            count = min(block, rows - start)
            cells = [None] * (width * count)
            for j, column in enumerate(columns):
                cells[j::width] = column[start:start + count].tolist()
            fh.write((template * count) % tuple(cells))


def _write_manifest(path: Path | None, entries: dict) -> None:
    lines = [f"{key}={_fmt(value)}" for key, value in entries.items()]
    if path is None:
        print("\n".join(lines))
    else:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fault(args) -> FaultSpec | None:
    """The decoder fault model of a command that takes both --nu and --np."""
    if not hasattr(args, "nu") or not hasattr(args, "np_levels"):
        return None
    mode = getattr(args, "mode", INDEPENDENT_TREE).replace("-", "_")
    if args.np_levels is not None:
        return FaultSpec.from_protected_levels(args.n, args.np_levels, args.delta,
                                               correlation_mode=mode)
    return FaultSpec(delta=args.delta, unprotected_steps=args.nu,
                     correlation_mode=mode)


def _manifest_base(args) -> dict:
    entries = {"command": args.label, "version": __version__}
    # the manifest pins what sets the output; threads changes none of it
    skip = {"tables", "label", "out_dir", "manifest_only", "command", "sweep_command",
            "threads"}
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(_fmt(v) for v in value)
        entries[key] = value
    return entries


def _run(args) -> int:
    """Check the inputs, compute every table, then write them and the manifest.

    Every check the command's run makes on its arguments comes first, by
    the helper the run calls, so --manifest-only refuses what the run
    refuses and nothing is computed before a refusal: n (before 2**n is
    built), the fault model (_fault), p, or all of sweep rate-loss's
    inputs, the k of --rate and of each --rates value, sweep protection's
    --np list, and simulate's trials, seed and resource limits.

    A command's tables are (file name, header, columns) triples. All of
    them are computed before the output directory is made, so a usage
    error leaves no file behind.
    """
    size = 2**_require_exponent(args.n) if hasattr(args, "n") else None
    fault = _fault(args)
    entries = _manifest_base(args)
    if hasattr(args, "deltas"):
        _rate_loss_inputs(args.p, args.deltas, args.nu)
    else:
        _require_unit_interval(args.p, "p")
    k = None
    if hasattr(args, "rate"):
        k = entries["k"] = _require_dimension(_code_dimension(args.rate, size), size)
    if hasattr(args, "rates"):
        _code_dimensions(args.rates, size)
    if fault is None and hasattr(args, "np_levels"):  # sweep protection's --np list
        _protection_faults(args.n, args.delta, args.np_levels)
    if hasattr(args, "trials"):
        _require_trials(args.trials, args.seed)
        _require_limits(args.n, fault, args.trials, args.genie)
    if args.manifest_only:
        _write_manifest(None, entries)
        return EXIT_OK
    tables = args.tables(args, fault, k)
    out = Path(args.out_dir or os.environ.get(OUTDIR_ENV) or ".")
    out.mkdir(parents=True, exist_ok=True)
    outputs = [out / name for name, _, _ in tables]
    for path, (_, header, columns) in zip(outputs, tables):
        _write_csv(path, header, columns)
    entries["outputs"] = ",".join(str(p) for p in outputs)
    manifest_name = args.label.replace(" ", "_").replace("-", "_") + ".manifest"
    _write_manifest(out / manifest_name, entries)
    for path in outputs:
        print(f"wrote {path}")
    return EXIT_OK


# The commands below call the program through this module's names at call
# time, so that a caller may swap those names (perfbench's tracer does).

def cmd_construct(args, fault, k) -> list:
    code = construct_code(args.n, args.p, fault, k)
    # int32 and a uint8 view of the mask print the same integers as int64
    index = np.arange(1, code.N + 1, dtype=np.int32)
    return [("reliabilities.csv", ["index", "z"], [index, code.reliabilities]),
            ("code.csv", ["index", "frozen"], [index, code.frozen_mask.view(np.uint8)])]


def cmd_simulate(args, fault, k) -> list:
    code = construct_code(args.n, args.p, fault, k)
    config = SimConfig(code=code, channel_erasure=args.p, fault=fault,
                       trials=args.trials, master_seed=args.seed, genie=args.genie)
    outcome = run_simulation(config, threads=args.threads)
    lo, hi = outcome.fer_ci95
    tables = [("sim.csv",
               ["frames", "frame_erasures", "fer", "ber",
                "fer_lo95", "fer_hi95", "proxy_sum"],
               [[outcome.frames], [outcome.frame_erasures], [outcome.fer],
                [outcome.ber], [lo], [hi], [_fer_proxy(code)]])]
    if args.genie:
        counts = outcome.per_bit_erasures
        tables.append(("perbit.csv",
                       ["index", "erasure_count", "empirical_rate", "z"],
                       [np.arange(1, code.N + 1), counts, counts / outcome.frames,
                        code.reliabilities]))
    return tables


_RATE_HEADER = ["rate", "k", "realized_rate", "proxy_raw", "proxy_clamped"]


def cmd_sweep_staircase(args, fault, k) -> list:
    result = staircase(args.n, args.p, fault)
    return [("staircase.csv", ["index_fraction", "z"], [result.axis, result.series["z"]])]


def cmd_sweep_fer_rate(args, fault, k) -> list:
    result = fer_vs_rate_sweep(args.n, args.p, fault, rates=args.rates)
    return [("fer_rate.csv", _RATE_HEADER,
             [result.axis, result.series["k"], result.series["realized_rate"],
              result.series["proxy_raw"], result.series["proxy_clamped"]])]


def cmd_sweep_rate_loss(args, fault, k) -> list:
    result = rate_loss_sweep(args.p, args.deltas, args.nu)
    tables = []
    for delta in dict.fromkeys(args.deltas):  # a repeated value is one file
        tables.append((f"rate_loss_delta_{delta:g}.csv", ["nu", "delta_r", "pct_capacity"],
                       [result.axis, result.series[f"delta_r_{delta:g}"],
                        result.series[f"pct_capacity_{delta:g}"]]))
    return tables


def cmd_sweep_protection(args, fault, k) -> list:
    result = protection_sweep(args.n, args.p, args.delta, args.np_levels,
                              rates=args.rates)
    tables = []
    for n_p in dict.fromkeys(args.np_levels):  # a repeated value is one file
        tables.append((f"protection_np{n_p}.csv", _RATE_HEADER,
                       [result.axis, result.series["k"], result.series["realized_rate"],
                        result.series[f"proxy_raw_np{n_p}"],
                        result.series[f"proxy_clamped_np{n_p}"]]))
    return tables


# Flags several commands share, each declared once; a command lists the
# flags it takes, each with the settings it overrides.
_FLAGS = {
    "--n": dict(type=int, required=True, help="blocklength exponent"),
    "--p": dict(type=float, default=0.5, help="channel erasure probability"),
    "--delta": dict(type=float, default=0.0, help="decoder fault probability"),
    "--rate": dict(type=float, required=True, help="design rate k/N"),
    "--rates": dict(type=parse_float_list, default=list(DEFAULT_RATE_GRID)),
    "--nu": dict(type=int, help="unprotected transitions counted from the leaves "
                                "(default: all)"),
    "--np": dict(dest="np_levels", type=int,
                 help="protected levels counted from the root"),
}
_REQUIRED = {"required": True}

_COMMANDS = [
    ("construct", "density evolution and frozen-set design", cmd_construct,
     {"--n": {}, "--p": _REQUIRED, "--delta": _REQUIRED, "--rate": {},
      "--nu": {}, "--np": {}}),
    ("simulate", "Monte Carlo transmit/decode trials", cmd_simulate,
     {"--n": {}, "--p": _REQUIRED, "--delta": _REQUIRED, "--rate": {},
      "--trials": dict(type=int, default=10_000),
      "--seed": dict(type=int, default=0),
      "--mode": dict(choices=["shared", "independent-tree"], default="shared"),
      "--genie": dict(action="store_true",
                      help="feed true bits forward; adds perbit.csv"),
      "--nu": {}, "--np": {}}),
]

_SWEEPS = [
    ("staircase", "sorted reliability staircase", cmd_sweep_staircase,
     {"--n": {}, "--p": {}, "--delta": {}, "--nu": {}, "--np": {}}),
    ("fer-rate", "FER proxy against the rate grid", cmd_sweep_fer_rate,
     {"--n": {}, "--p": {}, "--delta": {}, "--rates": {}, "--nu": {}, "--np": {}}),
    ("rate-loss", "rate loss against n_u", cmd_sweep_rate_loss,
     {"--p": {},
      "--deltas": dict(type=parse_float_list, required=True),
      "--nu": dict(type=parse_int_spec, required=True,
                   help="n_u values: '1..10' or comma list")}),
    ("protection", "FER proxy per protected level count", cmd_sweep_protection,
     {"--n": {}, "--p": {}, "--delta": _REQUIRED,
      "--np": dict(type=parse_int_spec, required=True,
                   help="n_p values: '0..5' or comma list"),
      "--rates": {}}),
]


def _add_command(subparsers, name: str, label: str, help_text: str, tables,
                 flags: dict, full: bool) -> None:
    """Add the command `name`; its arguments only when `full`."""
    parser = subparsers.add_parser(name, help=help_text)
    if not full:
        return
    # one fault spec: --nu and --np are two ways to set the same protection
    protection = parser
    if "--nu" in flags and "--np" in flags:
        protection = parser.add_mutually_exclusive_group()
    for flag, override in flags.items():
        target = protection if flag in ("--nu", "--np") else parser
        target.add_argument(flag, **{**_FLAGS.get(flag, {}), **override})
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default: ${OUTDIR_ENV} or '.')")
    parser.add_argument("--manifest-only", action="store_true",
                        help="print the resolved parameter record and exit")
    parser.add_argument("--threads", type=positive_int, default=1,
                        help="worker threads; output is identical for any value")
    parser.set_defaults(tables=tables, label=label)


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI parser; for argv, with arguments only on the command it names.

    Every command is added, so the command listings and the errors for an
    unknown command are those of the full parser, but only the one that
    argv[0] names (argv[1] under sweep) gets its arguments: argparse parses
    argv with that command's parser alone. argv None builds every command.
    """
    words = None if argv is None else list(argv[:2])
    parser = argparse.ArgumentParser(
        prog="faultypolar",
        description="Polar codes on the BEC under erasure-faulty SC decoding.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, tables, flags in _COMMANDS:
        _add_command(sub, name, name, help_text, tables, flags,
                     words is None or words[:1] == [name])
    p_sweep = sub.add_parser("sweep", help="analytic parameter sweeps")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)
    for name, help_text, tables, flags in _SWEEPS:
        _add_command(sweep_sub, name, f"sweep {name}", help_text, tables, flags,
                     words is None or words == ["sweep", name])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError) as exc:  # OSError: the outputs cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource limit: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
