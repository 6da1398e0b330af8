"""Builders turning the enumerated Tamari elements into Poset objects."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .elements import enumerate_type_a, enumerate_type_b
from .poset import Poset

# Posets store a dense N x N boolean order matrix (12 MB for |T_7^B| = 3432,
# 166 MB for |T_8^B| = 12870), and building one briefly holds two more of
# that size, so poset building stops at n = 7 even though plain enumeration
# runs further.
POSET_MAX_N = 7


@lru_cache(maxsize=16)
def tamari_poset(kind: str, n: int) -> Poset:
    """The Tamari lattice of the given kind ("a" or "b") as a Poset.

    Elements are the lexicographically ordered tuples from the enumerators;
    the order is componentwise comparison, built one coordinate at a time and
    then validated like any other poset.  Results are cached (posets are
    immutable), so repeated verification runs share the same object.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > POSET_MAX_N:
        raise ValueError(
            f"n={n} exceeds the poset cap {POSET_MAX_N}; the dense order "
            "matrix would be impractically large"
        )
    if kind == "b":
        elements = enumerate_type_b(n)
    elif kind == "a":
        elements = enumerate_type_a(n)
    else:
        raise ValueError(f"kind must be 'a' or 'b', got {kind!r}")
    # one contiguous row per coordinate; inf survives the float cast
    columns = np.array(elements, dtype=float).T.copy()
    leq = np.ones((len(elements), len(elements)), dtype=bool)
    for column in columns:
        leq &= column[:, None] <= column[None, :]
    return Poset(elements, leq)
