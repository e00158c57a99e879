"""Exact skein-theoretic quantum invariants of links in S^1 x S^2,
twisted doubles, and their cyclic and branched cyclic covers."""

from .cyclo import CycloElem, constants, reduce_to_kp
from .diagram import KnotRef, PDCode, SliceWord
from .laurent import LaurentPoly
from .matring import RingMatrix, TVInvariant
from .polyalg import InvariantCheckError, PowerSumSeries, RingPoly
from .skein import bracket_pd, bracket_word, closure_B, knot_scalars, transfer_Q
from .tqft import (UnsupportedSpecialization, branched_series,
                   colored_double_invariant, connected_sum, cover_series,
                   double_invariant, tangle_invariant)

__all__ = [
    "CycloElem", "InvariantCheckError", "KnotRef", "LaurentPoly", "PDCode",
    "PowerSumSeries", "RingMatrix", "RingPoly", "SliceWord", "TVInvariant",
    "UnsupportedSpecialization", "bracket_pd", "bracket_word",
    "branched_series", "closure_B", "colored_double_invariant",
    "connected_sum", "constants", "cover_series", "double_invariant",
    "knot_scalars", "reduce_to_kp", "tangle_invariant", "transfer_Q",
]
__version__ = "0.1.0"
