"""Quantum-invariant periodicity criteria for oriented links.

Computes quantum SL(N) link invariants two independent ways (HOMFLY,
by the Hecke-algebra trace on a braid, read off a PD code by Vogel's
algorithm, with a skein expansion as fallback; and a vertex-weight state
sum on braid closures) and applies congruence criteria that either
certify "not p-periodic" or emit candidate linking numbers.
"""

__version__ = "0.1.0"
