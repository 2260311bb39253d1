"""CLI: file outputs, manifests, determinism, and exit codes."""

import csv

import numpy as np
import pytest

from faultypolar.cli import main, parse_float_list, parse_int_spec


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


def test_resource_error_exit_code(tmp_path):
    rc = run_cli(["construct", "--n", "30", "--p", "0.5", "--delta", "0",
                  "--rate", "0.5"], tmp_path)
    assert rc == 3


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
