"""The public API: faultypolar.__all__, pinned name by name.

A public name is added or removed only together with an edit here.
"""

import faultypolar

PUBLIC_NAMES = [
    "CodeConstruction",
    "DecodeResult",
    "DEFAULT_RATE_GRID",
    "ERASED_BIT",
    "FaultSpec",
    "INDEPENDENT_TREE",
    "InternalInvariantError",
    "ProxyComparison",
    "ResourceLimitError",
    "SHARED",
    "SimConfig",
    "SimOutcome",
    "SweepResult",
    "binomial_ci95",
    "compare_to_proxy",
    "construct_code",
    "design_code",
    "encode",
    "erasure_floor",
    "evolve_all",
    "expected_epsilon",
    "fer_proxy",
    "fer_vs_rate_sweep",
    "pe_counts",
    "protection_sweep",
    "rate_loss",
    "rate_loss_sweep",
    "run_simulation",
    "sc_decode",
    "staircase",
    "substream",
    "t_minus",
    "t_minus_faulty",
    "t_plus",
    "t_plus_faulty",
    "transmit_bec",
]


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 36
    assert faultypolar.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    namespace = {}
    exec("from faultypolar import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(faultypolar, name)
