"""Command-line front end: code construction, simulation, and analytic sweeps.

All outputs are CSV (UTF-8, comma separated, header row, LF endings) with
floats printed to 17 significant digits so files round-trip doubles
exactly. Every invocation writes a key=value manifest sidecar sufficient
to regenerate its outputs bit for bit.

Exit codes: 0 success, 2 usage error, 3 resource limit, 4 internal
invariant violation.
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
from .analysis import fer_proxy as _fer_proxy
from .construction import _code_dimension, construct_code
from .core import INDEPENDENT_TREE, FaultSpec
from .errors import InternalInvariantError, ResourceLimitError
from .montecarlo import SimConfig, run_simulation

OUTDIR_ENV = "FAULTYPOLAR_OUTDIR"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4


def _fmt(value) -> str:
    """CSV cell: 17 significant digits for floats, plain text otherwise."""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


def parse_int_spec(text: str) -> list[int]:
    """Parse '4', '1,2,3', or an inclusive range 'a..b'."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        start, stop = int(lo), int(hi)
        if stop < start:
            raise ValueError(f"empty range {text!r}")
        return list(range(start, stop + 1))
    return [int(part) for part in text.split(",") if part != ""]


def parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part != ""]


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns under `header` with one format call.

    Each column gives one field of a row template: `%.17g` for floats, the
    17 significant digits of `_fmt`, and `%s` for the rest, the `str` of
    its Python value (ints as integers, bools as True/False). The cells
    are interleaved row-major into one list, and the template repeated
    once per row formats the whole body in a single `%`.
    """
    columns = [np.asarray(column) for column in columns]
    width = len(columns)
    rows = len(columns[0]) if columns else 0
    template = ",".join("%.17g" if column.dtype.kind == "f" else "%s"
                        for column in columns) + "\n"
    cells = [None] * (width * rows)
    for j, column in enumerate(columns):
        cells[j::width] = column.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + (template * rows) % tuple(cells))


def _write_manifest(path: Path | None, entries: dict) -> None:
    lines = [f"{key}={_fmt(value)}" for key, value in entries.items()]
    if path is None:
        print("\n".join(lines))
    else:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fault_from_args(args, n: int, mode: str = INDEPENDENT_TREE) -> FaultSpec:
    if getattr(args, "np_levels", None) is not None:
        return FaultSpec.from_protected_levels(n, args.np_levels, args.delta,
                                               correlation_mode=mode)
    return FaultSpec(delta=args.delta, unprotected_steps=args.nu,
                     correlation_mode=mode)


def _manifest_base(args, command: str) -> dict:
    entries = {"command": command, "version": __version__}
    # the manifest pins what sets the output; threads changes none of it
    skip = {"func", "out_dir", "manifest_only", "command", "sweep_command", "threads"}
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


def _finish(args, out: Path, manifest_name: str, entries: dict,
            outputs: list[Path]) -> int:
    entries["outputs"] = ",".join(str(p) for p in outputs)
    _write_manifest(out / manifest_name, entries)
    for path in outputs:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_construct(args) -> int:
    n = args.n
    size = 2**n
    k = _code_dimension(args.rate, size)
    fault = _fault_from_args(args, n)
    entries = _manifest_base(args, "construct")
    entries["k"] = k
    if args.manifest_only:
        _write_manifest(None, entries)
        return EXIT_OK
    code = construct_code(n, args.p, fault, k)
    out = _out_dir(args)
    rel_path = out / "reliabilities.csv"
    code_path = out / "code.csv"
    index = np.arange(1, size + 1)
    _write_csv(rel_path, ["index", "z"], [index, code.reliabilities])
    _write_csv(code_path, ["index", "frozen"],
               [index, code.frozen_mask.astype(np.int64)])
    return _finish(args, out, "construct.manifest", entries, [rel_path, code_path])


def cmd_simulate(args) -> int:
    n = args.n
    size = 2**n
    k = _code_dimension(args.rate, size)
    mode = args.mode.replace("-", "_")
    fault = _fault_from_args(args, n, mode=mode)
    entries = _manifest_base(args, "simulate")
    entries["k"] = k
    if args.manifest_only:
        _write_manifest(None, entries)
        return EXIT_OK
    code = construct_code(n, args.p, fault, k)
    config = SimConfig(code=code, channel_erasure=args.p, fault=fault,
                       trials=args.trials, master_seed=args.seed,
                       mode=mode, genie=args.genie)
    outcome = run_simulation(config, threads=args.threads)
    out = _out_dir(args)
    sim_path = out / "sim.csv"
    lo, hi = outcome.fer_ci95
    _write_csv(sim_path,
               ["frames", "frame_erasures", "fer", "ber",
                "fer_lo95", "fer_hi95", "proxy_sum"],
               [[outcome.frames], [outcome.frame_erasures], [outcome.fer],
                [outcome.ber], [lo], [hi], [_fer_proxy(code)]])
    outputs = [sim_path]
    if args.genie:
        perbit_path = out / "perbit.csv"
        counts = outcome.per_bit_erasures
        _write_csv(perbit_path,
                   ["index", "erasure_count", "empirical_rate", "z"],
                   [np.arange(1, size + 1), counts, counts / outcome.frames,
                    code.reliabilities])
        outputs.append(perbit_path)
    return _finish(args, out, "simulate.manifest", entries, outputs)


def cmd_sweep_staircase(args) -> int:
    fault = _fault_from_args(args, args.n)
    entries = _manifest_base(args, "sweep staircase")
    if args.manifest_only:
        _write_manifest(None, entries)
        return EXIT_OK
    result = staircase(args.n, args.p, fault)
    out = _out_dir(args)
    path = out / "staircase.csv"
    _write_csv(path, ["index_fraction", "z"], [result.axis, result.series["z"]])
    return _finish(args, out, "sweep_staircase.manifest", entries, [path])


def cmd_sweep_fer_rate(args) -> int:
    fault = _fault_from_args(args, args.n)
    entries = _manifest_base(args, "sweep fer-rate")
    if args.manifest_only:
        _write_manifest(None, entries)
        return EXIT_OK
    result = fer_vs_rate_sweep(args.n, args.p, fault, rates=args.rates)
    out = _out_dir(args)
    path = out / "fer_rate.csv"
    _write_csv(path, ["rate", "k", "realized_rate", "proxy_raw", "proxy_clamped"],
               [result.axis, result.series["k"], result.series["realized_rate"],
                result.series["proxy_raw"], result.series["proxy_clamped"]])
    return _finish(args, out, "sweep_fer_rate.manifest", entries, [path])


def cmd_sweep_rate_loss(args) -> int:
    entries = _manifest_base(args, "sweep rate-loss")
    if args.manifest_only:
        _write_manifest(None, entries)
        return EXIT_OK
    result = rate_loss_sweep(args.p, args.deltas, args.nu)
    out = _out_dir(args)
    outputs = []
    for delta in dict.fromkeys(args.deltas):  # a repeated value is one file
        path = out / f"rate_loss_delta_{delta:g}.csv"
        _write_csv(path, ["nu", "delta_r", "pct_capacity"],
                   [result.axis, result.series[f"delta_r_{delta:g}"],
                    result.series[f"pct_capacity_{delta:g}"]])
        outputs.append(path)
    return _finish(args, out, "sweep_rate_loss.manifest", entries, outputs)


def cmd_sweep_protection(args) -> int:
    entries = _manifest_base(args, "sweep protection")
    if args.manifest_only:
        _write_manifest(None, entries)
        return EXIT_OK
    result = protection_sweep(args.n, args.p, args.delta, args.np_levels,
                              rates=args.rates)
    out = _out_dir(args)
    outputs = []
    for n_p in dict.fromkeys(args.np_levels):  # a repeated value is one file
        path = out / f"protection_np{n_p}.csv"
        _write_csv(path, ["rate", "k", "realized_rate", "proxy_raw", "proxy_clamped"],
                   [result.axis, result.series["k"], result.series["realized_rate"],
                    result.series[f"proxy_raw_np{n_p}"],
                    result.series[f"proxy_clamped_np{n_p}"]])
        outputs.append(path)
    return _finish(args, out, "sweep_protection.manifest", entries, outputs)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default: ${OUTDIR_ENV} or '.')")
    parser.add_argument("--manifest-only", action="store_true",
                        help="print the resolved parameter record and exit")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads; output is identical for any value")


def _add_protection(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--nu", type=int, default=None,
                       help="unprotected transitions counted from the leaves "
                            "(default: all)")
    group.add_argument("--np", dest="np_levels", type=int, default=None,
                       help="protected levels counted from the root")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultypolar",
        description="Polar codes on the BEC under erasure-faulty SC decoding.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="density evolution and frozen-set design")
    p_con.add_argument("--n", type=int, required=True, help="blocklength exponent")
    p_con.add_argument("--p", type=float, required=True, help="channel erasure probability")
    p_con.add_argument("--delta", type=float, required=True,
                       help="decoder fault probability")
    p_con.add_argument("--rate", type=float, required=True, help="design rate k/N")
    _add_protection(p_con)
    _add_common(p_con)
    p_con.set_defaults(func=cmd_construct)

    p_sim = sub.add_parser("simulate", help="Monte Carlo transmit/decode trials")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--delta", type=float, required=True)
    p_sim.add_argument("--rate", type=float, required=True)
    p_sim.add_argument("--trials", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--mode", choices=["shared", "independent-tree"],
                       default="shared")
    p_sim.add_argument("--genie", action="store_true",
                       help="feed true bits forward; adds perbit.csv")
    _add_protection(p_sim)
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="analytic parameter sweeps")
    sweep_sub = p_sweep.add_subparsers(dest="sweep_command", required=True)

    p_st = sweep_sub.add_parser("staircase", help="sorted reliability staircase")
    p_st.add_argument("--n", type=int, required=True)
    p_st.add_argument("--p", type=float, default=0.5)
    p_st.add_argument("--delta", type=float, default=0.0)
    _add_protection(p_st)
    _add_common(p_st)
    p_st.set_defaults(func=cmd_sweep_staircase)

    p_fr = sweep_sub.add_parser("fer-rate", help="FER proxy against the rate grid")
    p_fr.add_argument("--n", type=int, required=True)
    p_fr.add_argument("--p", type=float, default=0.5)
    p_fr.add_argument("--delta", type=float, default=0.0)
    p_fr.add_argument("--rates", type=parse_float_list,
                      default=list(DEFAULT_RATE_GRID))
    _add_protection(p_fr)
    _add_common(p_fr)
    p_fr.set_defaults(func=cmd_sweep_fer_rate)

    p_rl = sweep_sub.add_parser("rate-loss", help="rate loss against n_u")
    p_rl.add_argument("--p", type=float, default=0.5)
    p_rl.add_argument("--deltas", type=parse_float_list, required=True)
    p_rl.add_argument("--nu", type=parse_int_spec, required=True,
                      help="n_u values: '1..10' or comma list")
    _add_common(p_rl)
    p_rl.set_defaults(func=cmd_sweep_rate_loss)

    p_pr = sweep_sub.add_parser("protection", help="FER proxy per protected level count")
    p_pr.add_argument("--n", type=int, required=True)
    p_pr.add_argument("--p", type=float, default=0.5)
    p_pr.add_argument("--delta", type=float, required=True)
    p_pr.add_argument("--np", dest="np_levels", type=parse_int_spec, required=True,
                      help="n_p values: '0..5' or comma list")
    p_pr.add_argument("--rates", type=parse_float_list,
                      default=list(DEFAULT_RATE_GRID))
    _add_common(p_pr)
    p_pr.set_defaults(func=cmd_sweep_protection)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
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
