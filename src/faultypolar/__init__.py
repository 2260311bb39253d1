"""Polar codes on the binary erasure channel with erasure-faulty SC decoding."""

__version__ = "0.1.0"

from .analysis import (
    DEFAULT_RATE_GRID,
    SweepResult,
    fer_proxy,
    fer_vs_rate_sweep,
    protection_sweep,
    rate_loss_sweep,
    staircase,
)
from .codec import (
    ERASED_BIT,
    DecodeResult,
    encode,
    sc_decode,
    transmit_bec,
)
from .construction import (
    CodeConstruction,
    construct_code,
    design_code,
    evolve_all,
    expected_epsilon,
    pe_counts,
    rate_loss,
)
from .core import (
    INDEPENDENT_TREE,
    SHARED,
    FaultSpec,
    erasure_floor,
    t_minus,
    t_minus_faulty,
    t_plus,
    t_plus_faulty,
)
from .errors import InternalInvariantError, ResourceLimitError
from .montecarlo import (
    ProxyComparison,
    SimConfig,
    SimOutcome,
    binomial_ci95,
    compare_to_proxy,
    run_simulation,
    substream,
)

__all__ = [
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
