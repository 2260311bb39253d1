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
from faultypolar import montecarlo
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
    # non-genie independent-tree decoder: the sign path with faulty leaf levels
    "tree-nu2": (
        ["simulate", "--n", "6", "--p", "0.4", "--delta", "0.03", "--rate", "0.4",
         "--mode", "independent-tree", "--nu", "2", "--trials", "500", "--seed", "17"],
        {"sim.csv": "6b244bdc000f3dbc1bc44ae7cad39c91fc8c3ed3b2f5d058959db48539f9ba61"},
    ),
    "shared-genie": (
        ["simulate", "--n", "6", "--p", "0.35", "--delta", "0.02", "--rate", "0.5",
         "--mode", "shared", "--genie", "--trials", "600", "--seed", "23"],
        {"sim.csv": "0c42b8bfa0833f137402d449ed1a134c865355c8c59337da47647d630b91f724",
         "perbit.csv": "4ad32ef7daad95f287c2d5b83c57c9e678575b1b06116ba803a6ef43a9ca7135"},
    ),
    # delta = 0: no fault slots are drawn at all
    "delta0": (
        ["simulate", "--n", "6", "--p", "0.45", "--delta", "0", "--rate", "0.5",
         "--mode", "shared", "--genie", "--trials", "500", "--seed", "5"],
        {"sim.csv": "adc5c125c4220d2991976ee6b8d3cd902170a5f32a32060ee3addf8109d14c5f",
         "perbit.csv": "c3b9578d75825a439890d19d06c81afb8dbfd8bb1c9a472d17f8e3eab5f245cd"},
    ),
    # 8 of 400 frames erased: fer_lo95 and fer_hi95 come from the
    # Clopper-Pearson branch of binomial_ci95, not the normal approximation
    "clopper-pearson": (
        ["simulate", "--n", "6", "--p", "0.1", "--delta", "0.001", "--rate", "0.25",
         "--mode", "shared", "--trials", "400", "--seed", "29"],
        {"sim.csv": "37da800b28274f0a161e9204784aa1a56ced77a33ef2e36288bd3613e0dbc32b"},
    ),
    # low-rate non-genie independent-tree decoder: most bits are frozen, so
    # most per-bit trees feed no counted decision
    "tree-low-rate": (
        ["simulate", "--n", "6", "--p", "0.3", "--delta", "0.02", "--rate", "0.125",
         "--mode", "independent-tree", "--trials", "400", "--seed", "31"],
        {"sim.csv": "e80bad50876396b086bf9d4aa222339afea6360a4b7dd628cb4a772cbe8dfba4"},
    ),
    # non-genie shared decoder with the root levels protected (--np 3 of 9)
    # and frozen subtrees on both sides of the protection boundary
    "shared-np3": (
        ["simulate", "--n", "9", "--p", "0.35", "--delta", "0.005", "--rate", "0.45",
         "--mode", "shared", "--np", "3", "--trials", "300", "--seed", "37"],
        {"sim.csv": "527ebb89ad3a8585e0881e31609f00fd073e796f26b88eeeff2d119ae3cd8155"},
    ),
}

# construct and the four sweeps of acceptance criterion 10
DESIGN_GOLDENS = {
    "construct": (
        ["construct", "--n", "6", "--p", "0.5", "--delta", "1e-6", "--rate", "0.5"],
        {"code.csv": "bd2955f8b64014a540d53595d4dbf2e9554a2d08f067047946d5324da0ef0cba",
         "reliabilities.csv": "b0ecd5592a4af9d9feb01eb2345883d8ac3ef0fa931bcc76efbc94c1c2145f7c"},
    ),
    "staircase": (
        ["sweep", "staircase", "--n", "8", "--p", "0.5", "--delta", "1e-6"],
        {"staircase.csv": "eb51ffa1ef42efe12bb379af6a0f6c46f334e614b46ba7eaa2b6be4c9d08389c"},
    ),
    "fer-rate": (
        ["sweep", "fer-rate", "--n", "8", "--p", "0.5", "--delta", "1e-6"],
        {"fer_rate.csv": "c5d14fae168480c907dfd7be5bc8efb41c27786288e41bb4ce2b7634a6362e58"},
    ),
    "rate-loss": (
        ["sweep", "rate-loss", "--p", "0.5", "--deltas", "1e-3,1e-4,1e-5", "--nu", "1..10"],
        {"rate_loss_delta_0.001.csv":
             "945b9f50f16addf2838c8977d7446e68c4bfabeb3a60176e2bb52d35be821417",
         "rate_loss_delta_0.0001.csv":
             "5d67881506f446bc717ee006798f552fc6f28fe579b15c6ab071680b07a3431f",
         "rate_loss_delta_1e-05.csv":
             "bf2615a010e3dcbe87cf7f27b6fc3c21e1cfa2d723eb7bbff8b0cc34e439d22c"},
    ),
    "protection": (
        ["sweep", "protection", "--n", "8", "--p", "0.5", "--delta", "1e-6", "--np", "0..5"],
        {"protection_np0.csv": "c5d14fae168480c907dfd7be5bc8efb41c27786288e41bb4ce2b7634a6362e58",
         "protection_np1.csv": "c5d14fae168480c907dfd7be5bc8efb41c27786288e41bb4ce2b7634a6362e58",
         "protection_np2.csv": "fe25f75385045a217bb11c261d5a2dcece949bcde0d009870ee067ef38ee2c2f",
         "protection_np3.csv": "a5681844550be6bf7e4696e05266f01b94b6b1a254aa0e213586a8261d8849ef",
         "protection_np4.csv": "8930dacdcf86b44740c7eb19c7a20f468743e37aecc0dd0d62bb6df7c32c3818",
         "protection_np5.csv": "562642e564cb1ece35a2df373adb0d782ec8a69acb11cbd31e2a6153029d6622"},
    ),
    # closed form past the enumeration cap (nu 21, 25), nu = 0, unsorted and
    # repeated nu, and the delta = 0 rounding residue of the closed form
    "rate-loss-edges": (
        ["sweep", "rate-loss", "--p", "0.3", "--deltas", "0,1e-3,0.5,1",
         "--nu", "25,0,20,3,3,21"],
        {"rate_loss_delta_0.csv":
             "c3fcd9eb24d32c0f1c17841a1c5780d3bf192b260312ac4eaf57d6b756a8a2eb",
         "rate_loss_delta_0.001.csv":
             "e04b28edb9d812815a1aa0ffdaa386eca2d11fa8412e4b53281c03f40526631b",
         "rate_loss_delta_0.5.csv":
             "0fb16a9e234798d54e9fa109d220cbc7f701c635fa764e59d249dbf06f9af2c3",
         "rate_loss_delta_1.csv":
             "ae63a638856bd4b9d1af90dee82856c3c5ae65a779908955de32365a8a2ca4db"},
    ),
    # at p = 0.45 the enumerated means at nu = 5, 6 fall below p by a
    # rounding residue, which the rate loss clamps to 0
    "rate-loss-clamp": (
        ["sweep", "rate-loss", "--p", "0.45", "--deltas", "0", "--nu", "4..6"],
        {"rate_loss_delta_0.csv":
             "83a8bdf86207e67fa082fff0e2b23c9516a53d3ada81dd86b7e393ffa13ae1dc"},
    ),
    # unsorted and repeated n_p, and n_p = n + 1 (every level protected)
    "protection-edges": (
        ["sweep", "protection", "--n", "10", "--delta", "1e-3", "--np", "11,5,0,1,5"],
        {"protection_np0.csv": "c1f0600243c196253ef695f61059aad0e67d12be64a91d9478c19f60e581c57f",
         "protection_np1.csv": "c1f0600243c196253ef695f61059aad0e67d12be64a91d9478c19f60e581c57f",
         "protection_np5.csv": "418538b91726da48bbf5e8836b29bc336d1768be58270c2444f2bc4af018b04d",
         "protection_np11.csv": "634ef18e9add07d7af66672ecfa605888359acb9b91a93ea18bafb4b0569cd85"},
    ),
}

SC_DECODE_GOLDENS = {
    "shared": (31, "19c3d2700d0565b8ac0ae331316939ad2674ce10afea843b1bc4b4157fb7b98f"),
    "independent_tree": (39, "4664d62e2677a5ccc22ab33fff7f2da7db9e93040be452bd07b7c04b05a56db9"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_csv_goldens(argv, expected, out_dir):
    assert main([*argv, "--out-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.glob("*.csv")) == sorted(expected)
    for filename, digest in expected.items():
        assert _sha256((out_dir / filename).read_bytes()) == digest, filename


@pytest.mark.parametrize("name", sorted(SIMULATE_GOLDENS))
def test_simulate_csv_goldens(name, tmp_path):
    _check_csv_goldens(*SIMULATE_GOLDENS[name], tmp_path)


def test_clopper_pearson_golden_takes_the_beta_branch(tmp_path, monkeypatch):
    import scipy.special

    calls = []
    inverse = scipy.special.betaincinv
    monkeypatch.setattr(scipy.special, "betaincinv",
                        lambda *args: calls.append(args) or inverse(*args))
    argv, _ = SIMULATE_GOLDENS["clopper-pearson"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    header, row = (tmp_path / "sim.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    frames, erased = int(cells["frames"]), int(cells["frame_erasures"])
    assert min(erased, frames - erased) < 10
    assert calls == [(erased, frames - erased + 1, 0.025),
                     (erased + 1, frames - erased, 0.975)]


@pytest.mark.parametrize("name", sorted(DESIGN_GOLDENS))
def test_design_csv_goldens(name, tmp_path):
    _check_csv_goldens(*DESIGN_GOLDENS[name], tmp_path)


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


def test_small_chunks_at_max_seed_golden(monkeypatch):
    # many chunk boundaries and the largest master seed
    monkeypatch.setattr(montecarlo, "_chunk_trials", lambda *args: 7)
    fault = FaultSpec(delta=0.03)
    code = construct_code(4, 0.4, fault, 6)
    config = SimConfig(code=code, channel_erasure=0.4, fault=fault, trials=300,
                       master_seed=2**64 - 1, genie=True)
    outcome = run_simulation(config)
    assert (outcome.frame_erasures, outcome.info_bit_erasures) == (140, 179)
    assert outcome.per_bit_erasures.tolist() == [
        300, 292, 287, 172, 269, 150, 125, 25, 254, 119, 100, 20, 78, 18, 28, 10]
