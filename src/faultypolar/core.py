"""Single-step erasure-probability transfer functions for the BEC decoding tree.

All functions accept scalars or numpy arrays and evaluate elementwise.
Probabilities outside [0, 1] are rejected rather than clamped so that caller
bugs surface immediately. These checks guard the public calls;
construction.evolve_all checks p once at its entry and then runs the same
arithmetic in place without them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SHARED = "shared"
INDEPENDENT_TREE = "independent_tree"

_CORRELATION_MODES = (SHARED, INDEPENDENT_TREE)


def _require_unit_interval(value, name):
    arr = np.asarray(value)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _require_integer(value, name):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _require_count(value, name) -> int:
    """value as an int, once it is an integer in 0..2**63 - 1, the range of an int64."""
    count = int(_require_integer(value, name))
    if count < 0:
        raise ValueError(f"{name} must be nonnegative, got {count}")
    if count >= 2**63:
        raise ValueError(f"{name} must be below 2**63, got {count}")
    return count


def t_plus(eps):
    """Variable-node step: eps**2."""
    _require_unit_interval(eps, "eps")
    return eps * eps


def t_minus(eps):
    """Check-node step: 2*eps - eps**2."""
    _require_unit_interval(eps, "eps")
    return 2 * eps - eps * eps


def t_plus_faulty(eps, delta):
    """Variable-node step with message-erasure faults: eps**2 + (1 - eps**2)*delta."""
    _require_unit_interval(eps, "eps")
    _require_unit_interval(delta, "delta")
    e2 = eps * eps
    return e2 + (1 - e2) * delta


def t_minus_faulty(eps, delta):
    """Check-node step with message-erasure faults: 2*eps - eps**2 + (1-eps)**2 * delta."""
    _require_unit_interval(eps, "eps")
    _require_unit_interval(delta, "delta")
    tm = 2 * eps - eps * eps
    return tm + (1 - tm) * delta


def erasure_floor(delta):
    """Nonunit fixed point delta/(1 - delta) of the faulty variable-node step.

    No reliability value can polarize below this floor once the channel
    erasure probability is at or above it. Returns inf for delta == 1.
    """
    _require_unit_interval(delta, "delta")
    with np.errstate(divide="ignore"):
        return np.divide(delta, 1 - delta)


@dataclass(frozen=True)
class FaultSpec:
    """Decoder fault model: per-message extra-erasure probability and protection.

    Parameters
    ----------
    delta : float
        Probability that a non-erased message is independently replaced by
        an erasure. 0 gives a fault-free decoder, 1 a completely faulty one.
    unprotected_steps : int or None
        Number of decoding-tree transitions, counted from the leaf (channel)
        side, at which faults apply. None means every transition is faulty.
        effective_steps(n) gives the count for a code of exponent n.
    correlation_mode : str
        "shared": intermediate decoder messages are computed once and reused
        across bit decisions, as a hardware decoder does.
        "independent_tree": each bit's full decoding tree is recomputed with
        fresh fault randomness, matching the density-evolution independence
        assumption. This field is the one setting of the mode: sc_decode and
        run_simulation (through SimConfig.fault) read it, and density
        evolution ignores it.
    """

    delta: float = 0.0
    unprotected_steps: int | None = None
    correlation_mode: str = INDEPENDENT_TREE

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta!r}")
        if self.unprotected_steps is not None:
            _require_count(self.unprotected_steps, "unprotected_steps")
        if self.correlation_mode not in _CORRELATION_MODES:
            raise ValueError(f"correlation_mode must be one of {_CORRELATION_MODES}, "
                             f"got {self.correlation_mode!r}")

    def effective_steps(self, n: int) -> int:
        """Faulty transitions s in a code of exponent n: the one protection rule.

        s = min(unprotected_steps, n) (n for None), and 0 when delta is 0.
        Density evolution faults its steps 0..s - 1 from the channel side,
        and the decoder the levels n - 1 down to n - s those steps produce."""
        if self.delta == 0:
            return 0
        if self.unprotected_steps is None:
            return n
        return min(int(self.unprotected_steps), n)

    @classmethod
    def from_protected_levels(cls, n: int, n_p: int, delta: float,
                              correlation_mode: str = INDEPENDENT_TREE) -> "FaultSpec":
        """Build a spec from the number of protected tree levels n_p.

        The tree of a code of exponent n has n + 1 levels of processing
        elements; protecting n_p of them starting from the root leaves
        n_u = (n + 1) - n_p unprotected, a count like n, so n_p is at least
        1 when n is 2**63 - 1. pe_counts checks n_p here.
        """
        n = _require_count(n, "exponent n")
        n_p = int(_require_integer(n_p, "n_p"))
        lowest = max(0, n + 2 - 2**63)
        if not lowest <= n_p <= n + 1:
            raise ValueError(f"n_p must lie in {lowest}..{n + 1}, got {n_p}")
        return cls(delta=delta, unprotected_steps=(n + 1) - n_p,
                   correlation_mode=correlation_mode)
