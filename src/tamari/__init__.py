"""Tamari lattices of types A and B: enumeration, order structure, chain packing.

The library enumerates the classical Tamari lattice T_n and its type B
analogue T_n^B from their tuple encodings, builds the posets under
componentwise order, computes Greene-Kleitman chain/antichain partitions
with a profit-flow engine (cross-checked by exhaustive oracles), and
machine-verifies the structural claims about maximum chains: the longest
chain of T_n^B has n^2 + 1 elements and, for n >= 4, the largest union of
two chains has exactly 2 n^2 - 3.

Quick start::

    from tamari import tamari_poset, gk_partition, first_chain

    p = tamari_poset("b", 4)        # 70 elements
    gk_partition(p).parts           # (17, 12, 9, 8, 6, 5, 4, 3, 2, 2, 1, 1)
    len(first_chain(4))             # 17

The ``tamari`` command line tool exposes enumeration, chain partitions,
claim verification and DOT/JSON export; see ``tamari --help``.
"""

from .elements import (
    INF,
    MAX_N,
    RuleViolation,
    brute_force_type_a,
    brute_force_type_b,
    element_listing,
    entry_sum,
    enumerate_type_a,
    enumerate_type_b,
    format_vector,
    is_type_a,
    is_type_b,
    leq_componentwise,
    parse_vector,
    type_a_violation,
    type_b_violation,
)
from .gk import (
    AntichainFamily,
    ChainFamily,
    GKPartition,
    chain_union_sizes,
    conjugate_partition,
    gk_partition,
    max_antichain_union,
    max_chain_union,
    oracle_chain_union,
    oracle_max_antichain,
)
from .lattices import tamari_poset
from .poset import (
    LevelAssignment,
    LeveledSubposet,
    Poset,
    PosetError,
    find_isomorphism,
    is_isomorphic,
    is_lattice,
)
from .theorems import (
    REFUTED,
    SKIPPED,
    VERIFIED,
    VerificationReport,
    antichain_partition,
    first_chain,
    second_chain,
    shifted_level_map,
    verify_claims,
    verify_disjoint,
    verify_lambda2,
    verify_level_sums,
    verify_structure,
)

__version__ = "0.1.0"

__all__ = [
    "INF",
    "MAX_N",
    "RuleViolation",
    "brute_force_type_a",
    "brute_force_type_b",
    "element_listing",
    "entry_sum",
    "enumerate_type_a",
    "enumerate_type_b",
    "format_vector",
    "is_type_a",
    "is_type_b",
    "leq_componentwise",
    "parse_vector",
    "type_a_violation",
    "type_b_violation",
    "AntichainFamily",
    "ChainFamily",
    "GKPartition",
    "chain_union_sizes",
    "conjugate_partition",
    "gk_partition",
    "max_antichain_union",
    "max_chain_union",
    "oracle_chain_union",
    "oracle_max_antichain",
    "tamari_poset",
    "LevelAssignment",
    "LeveledSubposet",
    "Poset",
    "PosetError",
    "find_isomorphism",
    "is_isomorphic",
    "is_lattice",
    "REFUTED",
    "SKIPPED",
    "VERIFIED",
    "VerificationReport",
    "antichain_partition",
    "first_chain",
    "second_chain",
    "shifted_level_map",
    "verify_claims",
    "verify_disjoint",
    "verify_lambda2",
    "verify_level_sums",
    "verify_structure",
]
