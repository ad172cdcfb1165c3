"""Quantum-invariant periodicity criteria for oriented links.

Computes quantum SL(N) link invariants two independent ways (HOMFLY,
by the Hecke-algebra trace on a braid, read off a PD code by Vogel's
algorithm, with a skein expansion as fallback; and a vertex-weight state
sum on braid closures) and applies congruence criteria that either
certify "not p-periodic" or emit candidate linking numbers.
"""

__version__ = "0.1.0"

from .diagram import (BraidWord, PlanarDiagram, closure_components,
                      linking_tuple, parse_braid, parse_pd, pd_from_braid,
                      power, writhe)
from .laurent import (BiLaurent, IdealVariant, InexactDivisionError,
                      LaurentPoly, congruent, exact_divide, quantum_integer,
                      reduce)
from .skein import alexander, homfly, jones, p0_part, quantum_sln
from .statemodel import bracket, invariant_statesum
from .criteria import (knot_candidates, link_candidates, lower_bound,
                       possible_linking, rhs_sum)
from .classical import (murasugi_candidates, traczyk_jones_check,
                        traczyk_p0_candidates)

__all__ = [
    "__version__",
    "BraidWord", "PlanarDiagram", "closure_components", "linking_tuple",
    "parse_braid", "parse_pd", "pd_from_braid", "power", "writhe",
    "BiLaurent", "IdealVariant", "InexactDivisionError", "LaurentPoly",
    "congruent", "exact_divide", "quantum_integer", "reduce",
    "alexander", "homfly", "jones", "p0_part", "quantum_sln",
    "bracket", "invariant_statesum",
    "knot_candidates", "link_candidates", "lower_bound", "possible_linking",
    "rhs_sum",
    "murasugi_candidates", "traczyk_jones_check", "traczyk_p0_candidates",
]
