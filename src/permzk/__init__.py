"""Permutation-group conjugacy proofs with a perfect zero-knowledge simulator.

The package is organized bottom-up: exact permutation arithmetic (`perm`),
stabilizer chains and sampling (`engine`), generic session plumbing
(`framework`), the three-round conjugacy protocol (`conjugacy`), its
rewinding simulator and distribution checks (`simulator`), the two-round
non-conjugacy protocol (`nonconjugacy`), the single-element variant and its
coset-intersection reductions (`element`), plus text instance files
(`instances`) and a command line front end (`cli`).
"""

from .perm import Permutation, conjugator_in_sym, format_perm, parse_perm
from .engine import (
    BudgetExceeded,
    GeneratingSet,
    GeneratingTuple,
    StabilizerChain,
    build_chain,
    centralizer_in_sym,
    enumerate_elements,
    group_equal,
    random_generating_tuple,
)

__version__ = "0.1.0"

__all__ = [
    "Permutation",
    "parse_perm",
    "format_perm",
    "conjugator_in_sym",
    "GeneratingSet",
    "GeneratingTuple",
    "StabilizerChain",
    "BudgetExceeded",
    "build_chain",
    "group_equal",
    "enumerate_elements",
    "random_generating_tuple",
    "centralizer_in_sym",
]
