"""Exact nilpotent Schur multipliers of finite abelian groups.

Two independent computation routes — a closed form driven by Witt counts of
basic commutators, and an explicit basic-commutator/tensor oracle — plus the
machinery they stand on: invariant-factor canonicalization, Hall basis
enumeration, and exact necklace counting.
"""

from .abelian import (
    MAX_ORDER,
    CyclicDecomposition,
    InvariantFactors,
    canonicalize,
    factorize,
)
from .hall import CapExceeded, enumerate_basic
from .multiplier import (
    MultiplierResult,
    VerificationReport,
    multiplier_order,
    nilpotent_multiplier,
    tensor_oracle,
    verify,
)
from .witt import b_sequence, divisors, witt_count

__version__ = "0.1.0"

__all__ = [
    "MAX_ORDER",
    "CyclicDecomposition",
    "InvariantFactors",
    "canonicalize",
    "factorize",
    "CapExceeded",
    "enumerate_basic",
    "MultiplierResult",
    "VerificationReport",
    "multiplier_order",
    "nilpotent_multiplier",
    "tensor_oracle",
    "verify",
    "b_sequence",
    "divisors",
    "witt_count",
]
