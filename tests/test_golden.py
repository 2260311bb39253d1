"""Golden outputs: sha256 hashes that pin the reproducibility contract.

Each hash was recorded from the decoder and random streams before they
were reworked; a change to any stream, schedule or CSV format breaks one of
these tests. Update a hash only together with a deliberate, documented
change of the contract.
"""

import hashlib

import numpy as np
import pytest

from faultypolar import (
    FaultSpec,
    SimConfig,
    construct_code,
    encode,
    run_simulation,
    sc_decode,
    transmit_bec,
)
from faultypolar.cli import main

SIMULATE_GOLDENS = {
    # non-genie shared decoder with the root levels protected (--nu 3 of 7)
    "shared-nu3": (
        ["simulate", "--n", "7", "--p", "0.4", "--delta", "0.02", "--rate", "0.4",
         "--mode", "shared", "--nu", "3", "--trials", "600", "--seed", "11"],
        {"sim.csv": "5ce4c02efabbde6053bb386e058d9d57101fbc28df51022b8eef0886c423cf21"},
    ),
    "tree-genie": (
        ["simulate", "--n", "5", "--p", "0.3", "--delta", "0.02", "--rate", "0.25",
         "--mode", "independent-tree", "--genie", "--trials", "700", "--seed", "3"],
        {"sim.csv": "4c98c19994d5b3a2b54abb69984c590353644ecf708fd6f4fbafd7ad12346f86",
         "perbit.csv": "cccae7dc4b23df5e7197f5d1b5b8ce62c4caeb6275f910b6b9b4874691cb5a4d"},
    ),
    # delta = 0: no fault slots are drawn at all
    "delta0": (
        ["simulate", "--n", "6", "--p", "0.45", "--delta", "0", "--rate", "0.5",
         "--mode", "shared", "--genie", "--trials", "500", "--seed", "5"],
        {"sim.csv": "adc5c125c4220d2991976ee6b8d3cd902170a5f32a32060ee3addf8109d14c5f",
         "perbit.csv": "c3b9578d75825a439890d19d06c81afb8dbfd8bb1c9a472d17f8e3eab5f245cd"},
    ),
}

SC_DECODE_GOLDENS = {
    "shared": (31, "19c3d2700d0565b8ac0ae331316939ad2674ce10afea843b1bc4b4157fb7b98f"),
    "independent_tree": (39, "4664d62e2677a5ccc22ab33fff7f2da7db9e93040be452bd07b7c04b05a56db9"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(SIMULATE_GOLDENS))
def test_simulate_csv_goldens(name, tmp_path):
    argv, expected = SIMULATE_GOLDENS[name]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(expected)
    for filename, digest in expected.items():
        assert _sha256((tmp_path / filename).read_bytes()) == digest, filename


@pytest.mark.parametrize("mode", sorted(SC_DECODE_GOLDENS))
def test_sc_decode_single_frame_golden(mode):
    fault = FaultSpec(delta=0.05, correlation_mode=mode)
    code = construct_code(6, 0.3, fault, 24)
    rng = np.random.Generator(np.random.Philox(key=2024))
    u = np.zeros(code.N, dtype=np.int8)
    u[code.info_indices - 1] = rng.integers(0, 2, code.k, dtype=np.int8)
    y = transmit_bec(encode(u), 0.3, rng)
    result = sc_decode(y, code, fault, rng=rng)

    first, digest = SC_DECODE_GOLDENS[mode]
    assert result.frame_erased is True
    assert result.first_erasure_index == first
    h = hashlib.sha256()
    h.update(result.u_hat.astype(np.int8).tobytes())
    h.update(result.decision_erased.astype(bool).tobytes())
    h.update(repr((result.frame_erased, result.first_erasure_index)).encode())
    assert h.hexdigest() == digest


def test_small_chunks_at_max_seed_golden():
    # many chunk boundaries and the largest master seed
    fault = FaultSpec(delta=0.03)
    code = construct_code(4, 0.4, fault, 6)
    config = SimConfig(code=code, channel_erasure=0.4, fault=fault, trials=300,
                       master_seed=2**64 - 1, genie=True)
    outcome = run_simulation(config, chunk_size=7)
    assert (outcome.frame_erasures, outcome.info_bit_erasures) == (140, 179)
    assert outcome.per_bit_erasures.tolist() == [
        300, 292, 287, 172, 269, 150, 125, 25, 254, 119, 100, 20, 78, 18, 28, 10]
