"""CLI: file outputs, manifests, determinism, and exit codes."""

import argparse
import csv
import itertools
import tracemalloc

import numpy as np
import pytest

from faultypolar import InternalInvariantError, cli, construction
from faultypolar.cli import _fmt, _write_csv, main, parse_float_list, parse_int_spec


def run_cli(args, tmp_path):
    return main([*args, "--out-dir", str(tmp_path)])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_specs():
    assert parse_int_spec("0..5") == [0, 1, 2, 3, 4, 5]
    assert parse_int_spec("1,3,9") == [1, 3, 9]
    assert parse_int_spec("7") == [7]
    assert parse_float_list("1e-3,1e-4,0.5") == [1e-3, 1e-4, 0.5]
    with pytest.raises(ValueError):
        parse_int_spec("5..1")


def test_range_spec_is_capped_before_its_list_is_built():
    cap = cli.RANGE_SPEC_CAP
    assert len(parse_int_spec(f"3..{cap + 2}")) == cap
    with pytest.raises(ValueError, match="more than"):
        parse_int_spec(f"3..{cap + 3}")
    # the length comes from the endpoints: this range would need 8 PB
    with pytest.raises(ValueError, match="more than"):
        parse_int_spec("0..1000000000000000")


def test_construct_outputs(tmp_path):
    rc = run_cli(["construct", "--n", "2", "--p", "0.5", "--delta", "0",
                  "--rate", "0.5"], tmp_path)
    assert rc == 0
    code_rows = read_csv(tmp_path / "code.csv")
    frozen = {row["index"]: row["frozen"] for row in code_rows}
    assert frozen == {"1": "1", "2": "1", "3": "0", "4": "0"}
    rel_rows = read_csv(tmp_path / "reliabilities.csv")
    assert [row["z"] for row in rel_rows] == ["0.9375", "0.5625", "0.4375", "0.0625"]
    manifest = (tmp_path / "construct.manifest").read_text()
    assert "command=construct" in manifest
    assert "outputs=" in manifest


def test_construct_single_faulty_step(tmp_path):
    rc = run_cli(["construct", "--n", "1", "--p", "0.5", "--delta", "0.1",
                  "--rate", "0.5"], tmp_path)
    assert rc == 0
    rows = read_csv(tmp_path / "reliabilities.csv")
    assert [float(r["z"]) for r in rows] == [0.775, 0.325]


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["construct", "--n", "2", "--delta", "0", "--rate", "0.5"], tmp_path)
    assert exc.value.code == 2


def test_invalid_value_is_usage_error(tmp_path):
    rc = run_cli(["construct", "--n", "2", "--p", "1.5", "--delta", "0",
                  "--rate", "0.5"], tmp_path)
    assert rc == 2


@pytest.mark.parametrize("args", [
    # n = 0 runs no transfer step, so only a check at the entry catches p
    ["sweep", "staircase", "--n", "0", "--p", "1.5", "--delta", "0"],
    ["sweep", "staircase", "--n", "0", "--p", "nan", "--delta", "0"],
    ["sweep", "rate-loss", "--p", "-0.5", "--deltas", "0.1", "--nu", "0"],
])
def test_channel_erasure_out_of_range_is_usage_error(args, tmp_path):
    assert run_cli(args, tmp_path) == 2
    assert not list(tmp_path.glob("*.csv"))


def test_negative_zero_channel_erasure_writes_no_negative_zero(tmp_path):
    rc = run_cli(["construct", "--n", "3", "--p", "-0.0", "--delta", "0",
                  "--nu", "0", "--rate", "0.5"], tmp_path)
    assert rc == 0
    assert "-0" not in (tmp_path / "reliabilities.csv").read_text()


def test_resource_error_exit_code(tmp_path):
    rc = run_cli(["construct", "--n", "30", "--p", "0.5", "--delta", "0",
                  "--rate", "0.5"], tmp_path)
    assert rc == 3


def test_internal_invariant_error_exit_code(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalInvariantError("counts disagree")
    monkeypatch.setattr(cli, "run_simulation", broken)
    assert run_cli(SIMULATE, tmp_path) == 4
    assert "internal invariant violated: counts disagree" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("args", [
    ["construct", "--n", "3", "--p", "0.5", "--delta", "0", "--rate", "inf"],
    ["construct", "--n", "3", "--p", "0.5", "--delta", "0", "--rate=-inf",
     "--manifest-only"],
    ["simulate", "--n", "3", "--p", "0.5", "--delta", "0", "--rate", "inf",
     "--trials", "10"],
    ["sweep", "fer-rate", "--n", "4", "--rates", "0.5,inf"],
    ["sweep", "protection", "--n", "4", "--delta", "1e-3", "--np", "0..2",
     "--rates", "inf"],
])
def test_non_finite_rate_is_usage_error(args, tmp_path, capsys):
    assert run_cli(args, tmp_path) == 2
    assert "rate must lie in [0, 1]" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_trivial_cases(tmp_path):
    rc = run_cli(["simulate", "--n", "4", "--p", "0", "--delta", "0",
                  "--rate", "0.5", "--trials", "100"], tmp_path)
    assert rc == 0
    row = read_csv(tmp_path / "sim.csv")[0]
    assert float(row["fer"]) == 0.0 and float(row["ber"]) == 0.0
    rc = run_cli(["simulate", "--n", "4", "--p", "0.3", "--delta", "1",
                  "--rate", "0.5", "--trials", "100"], tmp_path)
    assert rc == 0
    assert float(read_csv(tmp_path / "sim.csv")[0]["fer"]) == 1.0


def test_simulate_genie_perbit(tmp_path):
    rc = run_cli(["simulate", "--n", "3", "--p", "0.5", "--delta", "0.05",
                  "--rate", "0.5", "--trials", "500", "--seed", "11",
                  "--mode", "independent-tree", "--genie"], tmp_path)
    assert rc == 0
    rows = read_csv(tmp_path / "perbit.csv")
    assert len(rows) == 8
    for row in rows:
        assert 0.0 <= float(row["empirical_rate"]) <= 1.0
        assert 0.0 <= float(row["z"]) <= 1.0


def test_simulate_deterministic_and_thread_invariant(tmp_path):
    args = ["simulate", "--n", "5", "--p", "0.5", "--delta", "0.01",
            "--rate", "0.5", "--trials", "600", "--seed", "42", "--genie"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main([*args, "--out-dir", str(out_a)]) == 0
    assert main([*args, "--out-dir", str(out_b)]) == 0
    assert main([*args, "--threads", "4", "--out-dir", str(out_c)]) == 0
    for name in ("sim.csv", "perbit.csv"):
        ref = (out_a / name).read_bytes()
        assert (out_b / name).read_bytes() == ref
        assert (out_c / name).read_bytes() == ref


def test_manifest_leaves_out_threads(tmp_path):
    args = ["simulate", "--n", "4", "--p", "0.5", "--delta", "0.02",
            "--rate", "0.5", "--trials", "300", "--seed", "7", "--genie"]
    records = {}
    for threads in ("1", "4"):
        out = tmp_path / threads
        assert main([*args, "--threads", threads, "--out-dir", str(out)]) == 0
        lines = (out / "simulate.manifest").read_text().splitlines()
        assert not [line for line in lines if line.startswith("threads=")]
        records[threads] = [line for line in lines if not line.startswith("outputs=")]
    assert records["1"] == records["4"]
    for name in ("sim.csv", "perbit.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "4" / name).read_bytes()


def test_sweep_staircase_floor(tmp_path):
    rc = run_cli(["sweep", "staircase", "--n", "10", "--p", "0.5",
                  "--delta", "1e-6"], tmp_path)
    assert rc == 0
    rows = read_csv(tmp_path / "staircase.csv")
    assert len(rows) == 1024
    z_min = min(float(r["z"]) for r in rows)
    assert z_min >= 1.000001e-6


def test_sweep_rate_loss_axes(tmp_path):
    rc = run_cli(["sweep", "rate-loss", "--p", "0.5",
                  "--deltas", "1e-3,1e-4,1e-5", "--nu", "1..10"], tmp_path)
    assert rc == 0
    for delta in ("0.001", "0.0001", "1e-05"):
        rows = read_csv(tmp_path / f"rate_loss_delta_{delta}.csv")
        assert [r["nu"] for r in rows] == [str(v) for v in range(1, 11)]
        losses = [float(r["delta_r"]) for r in rows]
        assert losses == sorted(losses)


def _manifest_outputs(path):
    lines = path.read_text().splitlines()
    return [line for line in lines if line.startswith("outputs=")][0][8:].split(",")


def test_sweep_rate_loss_repeated_delta_writes_one_file(tmp_path, capsys):
    # 0.001 and 1e-3 are one value: one file, written and listed once
    rc = run_cli(["sweep", "rate-loss", "--p", "0.5", "--deltas", "0.001,1e-4,1e-3",
                  "--nu", "1..3"], tmp_path)
    assert rc == 0
    names = ["rate_loss_delta_0.001.csv", "rate_loss_delta_0.0001.csv"]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(names)
    wrote = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert wrote == [f"wrote {tmp_path / name}" for name in names]
    outputs = _manifest_outputs(tmp_path / "sweep_rate_loss.manifest")
    assert outputs == [str(tmp_path / name) for name in names]


def test_sweep_rate_loss_deltas_printing_alike_are_usage_error(tmp_path):
    # two different deltas that both print as 0.123457 would share a file
    rc = run_cli(["sweep", "rate-loss", "--p", "0.5", "--deltas", "0.1234567,0.1234568",
                  "--nu", "1..3"], tmp_path)
    assert rc == 2
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_protection_repeated_np_writes_one_file(tmp_path, capsys):
    rc = run_cli(["sweep", "protection", "--n", "6", "--delta", "1e-3",
                  "--np", "5,2,5"], tmp_path)
    assert rc == 0
    names = ["protection_np5.csv", "protection_np2.csv"]
    wrote = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert wrote == [f"wrote {tmp_path / name}" for name in names]
    outputs = _manifest_outputs(tmp_path / "sweep_protection.manifest")
    assert outputs == [str(tmp_path / name) for name in names]


def test_sweep_protection_axes(tmp_path):
    rc = run_cli(["sweep", "protection", "--n", "10", "--delta", "1e-6",
                  "--np", "0..5"], tmp_path)
    assert rc == 0
    for n_p in range(6):
        rows = read_csv(tmp_path / f"protection_np{n_p}.csv")
        assert len(rows) == 19
    first = read_csv(tmp_path / "protection_np0.csv")
    last = read_csv(tmp_path / "protection_np5.csv")
    for row0, row5 in zip(first, last):
        assert float(row5["proxy_raw"]) <= float(row0["proxy_raw"]) + 1e-15


def test_sweep_fer_rate(tmp_path):
    rc = run_cli(["sweep", "fer-rate", "--n", "8", "--p", "0.5",
                  "--delta", "1e-6", "--rates", "0.25,0.5,0.75"], tmp_path)
    assert rc == 0
    rows = read_csv(tmp_path / "fer_rate.csv")
    assert [r["rate"] for r in rows] == ["0.25", "0.5", "0.75"]
    assert [r["k"] for r in rows] == ["64", "128", "192"]
    for row in rows:
        assert float(row["proxy_clamped"]) <= 1.0


def test_sweep_reruns_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["sweep", "fer-rate", "--n", "9", "--p", "0.5",
                     "--delta", "1e-6", "--out-dir", str(out)]) == 0
    assert (out_a / "fer_rate.csv").read_bytes() == (out_b / "fer_rate.csv").read_bytes()


def test_manifest_only_writes_nothing(tmp_path, capsys):
    rc = run_cli(["construct", "--n", "4", "--p", "0.5", "--delta", "0",
                  "--rate", "0.5", "--manifest-only"], tmp_path)
    assert rc == 0
    captured = capsys.readouterr()
    assert "command=construct" in captured.out
    assert "n=4" in captured.out
    assert not list(tmp_path.iterdir())


def test_outdir_env_variable(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("FAULTYPOLAR_OUTDIR", str(target))
    rc = main(["construct", "--n", "2", "--p", "0.5", "--delta", "0",
               "--rate", "0.5"])
    assert rc == 0
    assert (target / "code.csv").exists()


def test_csv_floats_round_trip(tmp_path):
    rc = run_cli(["construct", "--n", "6", "--p", "0.5", "--delta", "1e-6",
                  "--rate", "0.5"], tmp_path)
    assert rc == 0
    from faultypolar import FaultSpec, evolve_all

    z = evolve_all(6, 0.5, FaultSpec(delta=1e-6))
    rows = read_csv(tmp_path / "reliabilities.csv")
    parsed = np.array([float(r["z"]) for r in rows])
    assert np.array_equal(parsed, z)  # 17 significant digits round-trip doubles


def _write_csv_rows(path, header, rows):
    """Reference writer: the csv module, row by row, one _fmt per cell."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


@pytest.mark.parametrize("header, columns", [
    (["index", "frozen"],
     [np.arange(1, 9, dtype=np.int64),
      np.array([1, 1, 1, 0, 1, 0, 0, 0], dtype=bool).astype(np.int64)]),
    (["index", "z"],
     [np.arange(1, 8), np.array([0.0, 5e-324, 1 / 3, 1.0, 1e16, np.inf, 0.1])]),
    # sim.csv: one row of Python ints and floats
    (["frames", "frame_erasures", "fer", "ber", "fer_lo95", "fer_hi95", "proxy_sum"],
     [[819], [402], [402 / 819], [0.0123], [0.0], [1.0], [1.7320508075688772]]),
    (["index", "z"], []),
    (["index", "z"], [np.arange(1, 5), np.array([np.nan, -0.0, -np.inf, 0.0])]),
    (["index", "frozen"], [np.arange(1, 5), np.array([True, False, False, True])]),
    (["index", "z"], [np.array([], dtype=np.int64), np.array([], dtype=np.float64)]),
    # many blocks and part of one more
    (["index", "frozen"],
     [np.arange(1, 2**15 + 6), np.arange(2**15 + 5) % 3 == 0]),
    (["index", "z"],
     [np.arange(1, 2**15 + 1),
      np.ldexp(np.random.default_rng(5).random(2**15),
               np.random.default_rng(6).integers(-1074, 1000, 2**15))]),
])
def test_write_csv_matches_the_row_writer(header, columns, tmp_path):
    _write_csv(tmp_path / "cols.csv", header, columns)
    _write_csv_rows(tmp_path / "rows.csv", header, zip(*columns))
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("width", [2, 5])
@pytest.mark.parametrize("cast", [lambda v: (v * 8).astype(np.int64), lambda v: v > 0,
                                  lambda v: v], ids=["int", "bool", "float"])
def test_write_csv_blocks_join_seamlessly(width, cast, tmp_path, monkeypatch):
    # a partial last block after full ones, and one row either side of a
    # block boundary, give the bytes of a write in one block
    block = cli.CSV_BLOCK_CELLS // width
    header = [f"c{j}" for j in range(width)]
    values = np.random.default_rng(width).random((width, 2 * block + 3)) - 0.5
    for rows in (block - 1, block, block + 1, 2 * block + 3):
        columns = [np.arange(rows), *(cast(v[:rows]) for v in values[1:])]
        _write_csv(tmp_path / "blocks.csv", header, columns)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "CSV_BLOCK_CELLS", width * rows)
            _write_csv(tmp_path / "one.csv", header, columns)
        text = (tmp_path / "blocks.csv").read_bytes()
        assert text == (tmp_path / "one.csv").read_bytes()
        assert text.count(b"\n") == rows + 1


# The CLI contract, recorded before the commands became table-driven: each
# case's manifest lines (the outputs= line aside) and the files it writes,
# in order. Every case runs twice: writing its files, and --manifest-only.
DEFAULT_RATES = ("0.050000000000000003,0.10000000000000001,0.14999999999999999,"
                 "0.20000000000000001,0.25,0.29999999999999999,0.34999999999999998,"
                 "0.40000000000000002,0.45000000000000001,0.5,0.55000000000000004,"
                 "0.59999999999999998,0.65000000000000002,0.69999999999999996,0.75,"
                 "0.80000000000000004,0.84999999999999998,0.90000000000000002,"
                 "0.94999999999999996")
CONSTRUCT = ["construct", "--n", "3", "--p", "0.5", "--delta", "0.01", "--rate", "0.5"]
SIMULATE = ["simulate", "--n", "4", "--p", "0.4", "--delta", "0.01", "--rate", "0.5",
            "--trials", "50"]
CLI_CONTRACT = [
    (CONSTRUCT,
     ["command=construct", "version=0.1.0", "delta=0.01", "n=3", "p=0.5",
      "rate=0.5", "k=4"],
     ["reliabilities.csv", "code.csv"]),
    ([*CONSTRUCT, "--nu", "2"],
     ["command=construct", "version=0.1.0", "delta=0.01", "n=3", "nu=2", "p=0.5",
      "rate=0.5", "k=4"],
     ["reliabilities.csv", "code.csv"]),
    ([*CONSTRUCT, "--np", "2"],
     ["command=construct", "version=0.1.0", "delta=0.01", "n=3", "np_levels=2",
      "p=0.5", "rate=0.5", "k=4"],
     ["reliabilities.csv", "code.csv"]),
    ([*SIMULATE, "--seed", "3"],
     ["command=simulate", "version=0.1.0", "delta=0.01", "genie=False", "mode=shared",
      "n=4", "p=0.40000000000000002", "rate=0.5", "seed=3", "trials=50", "k=8"],
     ["sim.csv"]),
    ([*SIMULATE, "--mode", "independent-tree", "--genie", "--nu", "2"],
     ["command=simulate", "version=0.1.0", "delta=0.01", "genie=True",
      "mode=independent-tree", "n=4", "nu=2", "p=0.40000000000000002", "rate=0.5",
      "seed=0", "trials=50", "k=8"],
     ["sim.csv", "perbit.csv"]),
    ([*SIMULATE, "--genie", "--np", "1"],
     ["command=simulate", "version=0.1.0", "delta=0.01", "genie=True", "mode=shared",
      "n=4", "np_levels=1", "p=0.40000000000000002", "rate=0.5", "seed=0",
      "trials=50", "k=8"],
     ["sim.csv", "perbit.csv"]),
    (["sweep", "staircase", "--n", "4"],
     ["command=sweep staircase", "version=0.1.0", "delta=0", "n=4", "p=0.5"],
     ["staircase.csv"]),
    (["sweep", "staircase", "--n", "4", "--p", "0.3", "--delta", "1e-3", "--nu", "2"],
     ["command=sweep staircase", "version=0.1.0", "delta=0.001", "n=4", "nu=2",
      "p=0.29999999999999999"],
     ["staircase.csv"]),
    (["sweep", "staircase", "--n", "4", "--delta", "1e-3", "--np", "3"],
     ["command=sweep staircase", "version=0.1.0", "delta=0.001", "n=4",
      "np_levels=3", "p=0.5"],
     ["staircase.csv"]),
    (["sweep", "fer-rate", "--n", "5", "--delta", "1e-3", "--rates", "0.25,0.5"],
     ["command=sweep fer-rate", "version=0.1.0", "delta=0.001", "n=5", "p=0.5",
      "rates=0.25,0.5"],
     ["fer_rate.csv"]),
    (["sweep", "fer-rate", "--n", "5", "--delta", "1e-3", "--rates", "0.5", "--np", "2"],
     ["command=sweep fer-rate", "version=0.1.0", "delta=0.001", "n=5", "np_levels=2",
      "p=0.5", "rates=0.5"],
     ["fer_rate.csv"]),
    (["sweep", "fer-rate", "--n", "5", "--delta", "1e-3", "--nu", "1"],
     ["command=sweep fer-rate", "version=0.1.0", "delta=0.001", "n=5", "nu=1",
      "p=0.5", f"rates={DEFAULT_RATES}"],
     ["fer_rate.csv"]),
    (["sweep", "rate-loss", "--p", "0.4", "--deltas", "1e-3,1e-2", "--nu", "1..3"],
     ["command=sweep rate-loss", "version=0.1.0", "deltas=0.001,0.01", "nu=1,2,3",
      "p=0.40000000000000002"],
     ["rate_loss_delta_0.001.csv", "rate_loss_delta_0.01.csv"]),
    (["sweep", "rate-loss", "--deltas", "1e-3", "--nu", "0,4"],
     ["command=sweep rate-loss", "version=0.1.0", "deltas=0.001", "nu=0,4", "p=0.5"],
     ["rate_loss_delta_0.001.csv"]),
    (["sweep", "protection", "--n", "5", "--delta", "1e-3", "--np", "0..2",
      "--rates", "0.5"],
     ["command=sweep protection", "version=0.1.0", "delta=0.001", "n=5",
      "np_levels=0,1,2", "p=0.5", "rates=0.5"],
     ["protection_np0.csv", "protection_np1.csv", "protection_np2.csv"]),
    (["sweep", "protection", "--n", "5", "--delta", "1e-3", "--np", "3,1"],
     ["command=sweep protection", "version=0.1.0", "delta=0.001", "n=5",
      "np_levels=3,1", "p=0.5", f"rates={DEFAULT_RATES}"],
     ["protection_np3.csv", "protection_np1.csv"]),
]


@pytest.mark.parametrize("args, manifest, names", CLI_CONTRACT)
def test_cli_contract(args, manifest, names, tmp_path, capsys):
    assert run_cli(args, tmp_path) == 0
    paths = [str(tmp_path / name) for name in names]
    assert capsys.readouterr().out == "".join(f"wrote {path}\n" for path in paths)
    label = "_".join(args[:2] if args[0] == "sweep" else args[:1]).replace("-", "_")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*names, f"{label}.manifest"])
    assert (tmp_path / f"{label}.manifest").read_text() == "\n".join(
        [*manifest, "outputs=" + ",".join(paths)]) + "\n"


@pytest.mark.parametrize("args, manifest, names", CLI_CONTRACT)
def test_cli_contract_manifest_only(args, manifest, names, tmp_path, capsys):
    assert run_cli([*args, "--manifest-only"], tmp_path) == 0
    assert capsys.readouterr().out == "\n".join(manifest) + "\n"
    assert not list(tmp_path.iterdir())


def _exit_code(args, out_dir):
    try:
        return run_cli(args, out_dir)
    except SystemExit as exc:  # argparse refuses the command line
        return exc.code


@pytest.mark.parametrize("args, code", [
    ([*CONSTRUCT, "--nu", "-1", "--manifest-only"], 2),
    ([*CONSTRUCT, "--np", "9", "--manifest-only"], 2),
    (["construct", "--n", "3", "--p", "0.5", "--delta", "0", "--rate", "inf",
      "--manifest-only"], 2),
    ([*SIMULATE, "--mode", "both"], 2),
    ([*SIMULATE[:-1], "0"], 2),
    ([*SIMULATE, "--threads", "0"], 2),
    (["construct", "--n", "30", "--p", "0.5", "--delta", "0", "--rate", "0.5"], 3),
    (["sweep", "protection", "--n", "5", "--delta", "1e-3"], 2),
    (["construct", "--n", "3", "--p", "0.5", "--delta", "0", "--rate", "0.5",
      "--threads", "-5"], 2),
    (["sweep", "staircase", "--n", "4", "--threads", "0"], 2),
    # an empty rate grid, refused before any density evolution
    (["sweep", "fer-rate", "--n", "4", "--rates", ","], 2),
    (["sweep", "protection", "--n", "4", "--delta", "0.1", "--np", "0", "--rates", ","], 2),
])
def test_cli_error_exit_codes(args, code, tmp_path, capsys):
    assert _exit_code(args, tmp_path) == code
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("args", [
    ["sweep", "rate-loss", "--p", "0.5", "--deltas", "1e-3", "--nu", "0..1000000000000000"],
    ["sweep", "protection", "--n", "5", "--delta", "1e-3", "--np", "0..1000000000000000"],
])
def test_oversized_range_spec_is_usage_error(args, tmp_path, capsys):
    assert _exit_code(args, tmp_path) == 2
    assert "parse_int_spec" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _cli_write_peaks(args, tmp_path, monkeypatch):
    """(command's peak, most held when a write starts, most one write adds)."""
    write, peaks, held, added = cli._write_csv, [], [], []

    def traced(*table):
        peaks.append(tracemalloc.get_traced_memory()[1])
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        write(*table)
        added.append(tracemalloc.get_traced_memory()[1] - held[-1])

    monkeypatch.setattr(cli, "_write_csv", traced)
    tracemalloc.start()
    try:
        assert run_cli(args, tmp_path) == 0
        peaks.append(tracemalloc.get_traced_memory()[1])
        return max(peaks), max(held), max(added)
    finally:
        tracemalloc.stop()


def test_csv_text_is_held_one_block_at_a_time(tmp_path, monkeypatch):
    # a write adds at most one block of CSV_BLOCK_CELLS cells (about 0.3 MiB
    # of cells, their Python values and text) to the tables it writes; what
    # is held besides them is the interpreter's first imports
    n, block = 18, 2**19
    size = 2**n
    # the sorted values and the i/N axis
    _, held, added = _cli_write_peaks(["sweep", "staircase", "--n", str(n)], tmp_path,
                                      monkeypatch)
    assert held <= 16 * size + block and added <= block
    # the float64 reliabilities, the int32 index and the bool mask (the
    # frozen column is a view of it); the command peaks before it writes,
    # while np.partition copies the reliabilities
    peak, held, added = _cli_write_peaks(["construct", "--n", str(n), "--p", "0.5",
                                          "--delta", "1e-6", "--rate", "0.5"], tmp_path,
                                         monkeypatch)
    assert held <= (8 + 4 + 1) * size + block and added <= block
    assert peak <= 16 * size + block


def _parse_output(parser, argv, capsys):
    """(exit code, stdout, stderr) of parser.parse_args(argv); 0 if it returns."""
    try:
        parser.parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


COMMAND_LINES = [
    CONSTRUCT, SIMULATE, ["sweep", "staircase", "--n", "4"],
    ["sweep", "fer-rate", "--n", "5", "--nu", "2"],
    ["sweep", "rate-loss", "--deltas", "1e-3", "--nu", "1..3"],
    ["sweep", "protection", "--n", "5", "--delta", "1e-3", "--np", "0..2"],
]


def _set(args, flag, value):
    """args with the value of `flag` replaced, or the flag appended."""
    if flag not in args:
        return [*args, flag, value]
    at = args.index(flag) + 1
    return [*args[:at], value, *args[at + 1:]]


# (args, exit code, the line on stderr): a bad value under a command that
# takes it, refused before any density evolution, as the run refuses it
REFUSALS = [
    *[(_set(args, "--n", "1030"), 3,
       "resource limit: n=1030 exceeds the memory budget (max exponent 24)")
      for args in COMMAND_LINES[2:] if "--n" in args],
    (_set(COMMAND_LINES[2], "--n", "-1"), 2, "error: exponent n must be nonnegative, got -1"),
    (_set(COMMAND_LINES[2], "--p", "2"), 2, "error: p must lie in [0, 1], got 2.0"),
    (_set(COMMAND_LINES[3], "--rates", "1e-9"), 2,
     "error: rate 1e-09 gives k=0, outside 1..31"),
    (_set(CONSTRUCT, "--rate", "0"), 2, "error: k must lie in 1..7, got 0"),
    (_set(SIMULATE, "--trials", "0"), 2, "error: trials must be >= 1, got 0"),
    (_set(SIMULATE, "--seed", "-1"), 2,
     "error: master_seed must be an unsigned 64-bit integer"),
    (_set(_set(COMMAND_LINES[5], "--n", "4"), "--np", "9"), 2,
     "error: n_p must lie in 0..5, got 9"),
    (_set(COMMAND_LINES[4], "--p", "1"), 2,
     "error: p must be below 1 so the capacity view is defined"),
    # a count the int64 nu axis cannot hold
    *[(_set(COMMAND_LINES[4], "--nu", str(nu)), 2, f"error: n_u must be below 2**63, got {nu}")
      for nu in (2**63, 10**400)],
    # n comes before the fault model --np builds from it
    (_set(_set(COMMAND_LINES[2], "--n", str(2**63 - 1)), "--np", "0"), 3,
     f"resource limit: n={2**63 - 1} exceeds the memory budget (max exponent 24)"),
]


@pytest.mark.parametrize("args, code, message", REFUSALS,
                         ids=[" ".join(args) for args, _, _ in REFUSALS])
def test_refusals_run_no_density_evolution(args, code, message, tmp_path, capsys,
                                           monkeypatch):
    # every recursion enters at construction._levels
    recursions = []
    levels = construction._levels

    def counting(*call_args, **kwargs):
        recursions.append(call_args[0])
        return levels(*call_args, **kwargs)

    monkeypatch.setattr(construction, "_levels", counting)
    assert run_cli(args, tmp_path) == code
    assert capsys.readouterr().err.splitlines() == [message]
    assert recursions == []


# (args, exit code, --out-dir is an existing file): each bad input under
# every command that takes it, as one line and an exit code, never a traceback
BAD_INPUTS = [
    # an exponent above the cap, refused before 2**n is built, with
    # --manifest-only as without
    *[(_set(args, "--n", n), 3, False) for n in ("1030", str(10**6))
      for line in COMMAND_LINES if "--n" in line
      for args in (line, [*line, "--manifest-only"])],
    # --manifest-only refuses what the run refuses
    *[([*args, "--manifest-only"], code, False) for args, code, _ in REFUSALS
      if "1030" not in args],
    # a finite rate whose rate*N overflows
    *[(_set(args, flag, value), 2, False)
      for args, flag, value in [(CONSTRUCT, "--rate", "1e308"),
                                ([*CONSTRUCT, "--manifest-only"], "--rate", "1e308"),
                                (SIMULATE, "--rate", "1e308"),
                                ([*SIMULATE, "--manifest-only"], "--rate", "1e308"),
                                (COMMAND_LINES[3], "--rates", "0.5,1e308"),
                                (COMMAND_LINES[5], "--rates", "0.5,1e308")]],
    # an output directory that cannot be made
    *[(args, 2, True) for args in COMMAND_LINES],
]


@pytest.mark.parametrize("args, code, out_is_file", BAD_INPUTS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_bad_input_is_one_line_and_no_output(args, code, out_is_file, tmp_path, capsys):
    out = tmp_path / "out"
    if out_is_file:
        out.write_text("")
    assert main([*args, "--out-dir", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1, err
    assert err.startswith("error: " if code == 2 else "resource limit: "), err
    assert not list(tmp_path.rglob("*.csv"))


def _typed_flags():
    """(command words, flag) for every flag of every command that converts
    its value (an integer, a float or a list of them), read off cli's parser."""
    found = []

    def walk(parser, words):
        subparsers = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
        if not subparsers:
            found.extend((words, action.option_strings[0]) for action in parser._actions
                         if action.option_strings and action.type is not None)
        for action in subparsers:
            for name, sub in action.choices.items():
                walk(sub, [*words, name])

    walk(cli.build_parser(), [])
    return found


TYPED_FLAGS = _typed_flags()
EXTREMES = ["-1", "0", str(2**63 - 1), str(2**63), str(2**64), str(10**400),
            "nan", "inf", "-inf", "-0.0", "1e-320"]


@pytest.mark.parametrize("words, flag", TYPED_FLAGS,
                         ids=[" ".join([*words, flag]) for words, flag in TYPED_FLAGS])
def test_extreme_values_are_refused_or_run(words, flag, tmp_path, capsys):
    # every value, as a full run and with --manifest-only, exits 0, 2 or 3
    # and raises nothing; the value replaces the flag in the command's line
    # of COMMAND_LINES, and --nu and --np exclude each other
    line = next(line for line in COMMAND_LINES if line[:len(words)] == words)
    pairs = zip(line[len(words)::2], line[len(words) + 1::2])
    base = [*words, *itertools.chain.from_iterable(
        pair for pair in pairs if pair[0] not in (flag, "--nu", "--np"))]
    failures = []
    for value, only in itertools.product(EXTREMES, ([], ["--manifest-only"])):
        argv = [*base, f"{flag}={value}", *only, "--out-dir", str(tmp_path / "out")]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        except Exception as exc:  # reported, with every other raise
            code = repr(exc)
        if code not in (0, 2, 3):
            failures.append((" ".join(argv[:-2]), code))
        capsys.readouterr()
    assert not failures


@pytest.mark.parametrize("args", COMMAND_LINES)
def test_each_command_parses_as_with_the_full_parser(args, tmp_path, capsys,
                                                     monkeypatch):
    # main builds the arguments of the command argv names alone; its help,
    # usage errors and manifest must be those of the full parser
    words = args[:2] if args[0] == "sweep" else args[:1]
    for argv in ([*words, "--help"], [*words, "--bogus"], [*args, "--np", "1"],
                 words[:1] + ["--help"], ["--help"], ["nonesuch"]):
        assert (_parse_output(cli.build_parser(argv), argv, capsys)
                == _parse_output(cli.build_parser(), argv, capsys)), argv
    # the other commands are listed but get no arguments
    for other in COMMAND_LINES:
        if other != args:
            assert _parse_output(cli.build_parser(args), other, capsys)[0] == 2
    assert main([*args, "--manifest-only"]) == 0
    manifest = capsys.readouterr().out
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv=None: full())
    assert main([*args, "--manifest-only"]) == 0
    assert capsys.readouterr().out == manifest


@pytest.mark.parametrize("args", [
    ["--p", "nan", "--deltas", "0.1", "--nu", ","],
    ["--p", "0.5", "--deltas", "7", "--nu", ","],
    ["--p", "-3", "--deltas", ",", "--nu", "1..3"],
    ["--p", "0.5", "--deltas", ",", "--nu", "1..3"],
])
def test_sweep_rate_loss_checks_inputs_without_points(args, tmp_path):
    assert run_cli(["sweep", "rate-loss", *args], tmp_path) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name, args", [
    ("_write_csv", CONSTRUCT),
    ("construct_code", CONSTRUCT),
    ("run_simulation", SIMULATE),
    ("staircase", ["sweep", "staircase", "--n", "4"]),
    ("fer_vs_rate_sweep", ["sweep", "fer-rate", "--n", "5"]),
    ("protection_sweep", ["sweep", "protection", "--n", "5", "--delta", "1e-3",
                          "--np", "0..2"]),
    ("rate_loss_sweep", ["sweep", "rate-loss", "--deltas", "1e-3", "--nu", "1..3"]),
])
def test_commands_call_the_module_names_perfbench_wraps(name, args, tmp_path,
                                                        monkeypatch):
    # perfbench's tracer swaps these cli attributes; a command that held on
    # to the function objects would bypass the swap and misattribute time
    calls = []
    original = getattr(cli, name)

    def spy(*call_args, **kwargs):
        calls.append(name)
        return original(*call_args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert run_cli(args, tmp_path) == 0
    assert calls
