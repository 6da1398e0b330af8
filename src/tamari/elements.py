"""Tuple encodings of the type A and type B Tamari lattice elements.

Elements of the classical Tamari lattice T_n are integer n-tuples, elements
of the type B lattice T_n^B are n-tuples over {0, 1, ..., n-1, inf}; both
families are ordered componentwise.  This module provides the membership
rules (validators that report 1-based violation witnesses), lexicographic
enumerators, the componentwise order, and the canonical text form
``"(0,0,3,inf)"`` used wherever a vector is serialized.

A prefix constrains the rest of a vector only through a small state, and
both enumerators and :func:`element_listing` are one memoised walk over those
states (:func:`_walk`).  Type B rule (i) needs, for each look-back distance
d, the largest ``entries[pos - e] + e`` over ``e <= d``; it is clamped at n,
which is exact since no finite entry reaches n, and of it only the distances
where it equals d and its overall value count (:func:`_type_b_moves`).
Type B rule (ii) needs the mask of positions it forces to ``inf``.  Type A
needs the earlier entries still greater than the position.  At n = 10 there
are 3,064 such states for type B and 143 for type A, against 184,756 and
16,796 elements.

The unbounded entry is the IEEE infinity ``INF = float("inf")``: it compares
above every finite entry and absorbs subtraction, which makes the membership
rules total with no special cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

INF = math.inf

Entry = int | float
Vector = tuple[Entry, ...]

# Enumeration sizes grow like C(2n, n); this keeps library calls honest.
MAX_N = 10


@dataclass(frozen=True)
class RuleViolation:
    """Witness for a failed membership rule.

    ``rule`` is ``"i"`` or ``"ii"`` and ``positions`` holds the 1-based
    indices involved, matching the convention used in error messages.
    """

    rule: str
    positions: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        return self.message


def format_entry(e: Entry) -> str:
    return "inf" if e == INF else str(e)


# The text of every entry an enumerated vector holds, built once.
_ENTRY_TEXT = {e: format_entry(e) for e in (*range(MAX_N + 1), INF)}
# Each entry's piece of an enumerated vector (see _walk): a 1-tuple, or its
# text closed by "," or, at the last position, by ")\n".
_TUPLE_PIECE = {e: (e,) for e in _ENTRY_TEXT}
_TEXT_PIECE = {e: text + "," for e, text in _ENTRY_TEXT.items()}
_LAST_TEXT_PIECE = {e: text + ")\n" for e, text in _ENTRY_TEXT.items()}


def format_vector(v: Sequence[Entry]) -> str:
    """Render a vector in the canonical text form, e.g. ``(0,0,3,inf)``.

    Entries that are the ints ``0..MAX_N`` or ``INF`` itself are looked up
    in a table; any other entry (``True``, ``1.0``, an int out of range)
    goes through :func:`format_entry`, so the text is the same either way.
    """
    try:
        body = ",".join([_ENTRY_TEXT[e] if type(e) is int or e is INF else format_entry(e)
                         for e in v])
    except KeyError:  # an int outside 0..MAX_N
        body = ",".join(map(format_entry, v))
    return "(" + body + ")"


def parse_vector(text: str) -> Vector:
    """Parse the canonical text form back into a tuple.

    Raises ValueError on anything that is not a parenthesized, comma
    separated list of integers and ``inf`` tokens.
    """
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"vector text must be parenthesized: {text!r}")
    body = s[1:-1].strip()
    if not body:
        raise ValueError(f"empty vector: {text!r}")
    entries: list[Entry] = []
    for tok in body.split(","):
        tok = tok.strip()
        if tok == "inf":
            entries.append(INF)
        else:
            try:
                entries.append(int(tok))
            except ValueError:
                raise ValueError(f"bad entry {tok!r} in {text!r}") from None
    return tuple(entries)


def entry_sum(v: Sequence[Entry]) -> int:
    """Sum of the entries with each ``inf`` counted as n = len(v)."""
    n = len(v)
    return sum(n if e == INF else e for e in v)


def _check_symbols_b(entries: Sequence[Entry]) -> int:
    n = len(entries)
    if n == 0:
        raise ValueError("vector must have at least one entry")
    for pos, e in enumerate(entries, start=1):
        if e == INF:
            continue
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(
                f"entry {pos}: expected an integer in [0, {n - 1}] or inf, got {e!r}"
            )
        if not 0 <= e <= n - 1:
            raise ValueError(
                f"entry {pos}: value {e} outside the symbol range [0, {n - 1}]"
            )
    return n


def type_b_violation(entries: Sequence[Entry]) -> RuleViolation | None:
    """Check the type B membership rules; return a witness or None.

    Rule (i): for i < j, r_i <= r_j - (j - i) whenever that bound is
    nonnegative (vacuous when r_j = inf, since the bound is then inf).
    Rule (ii): whenever inf > r_i >= i, the entry at position n + i - r_i
    must be inf.  Indices in witnesses are 1-based.

    Malformed entries (finite values outside [0, n-1], non-integers) raise
    ValueError rather than returning a violation.
    """
    n = _check_symbols_b(entries)
    for j in range(1, n):
        rj = entries[j]
        if rj == INF:
            continue
        for i in range(j):
            bound = rj - (j - i)
            if bound >= 0 and entries[i] > bound:
                return RuleViolation(
                    "i",
                    (i + 1, j + 1),
                    f"rule (i) fails at (i,j)=({i + 1},{j + 1}): "
                    f"r_{i + 1}={format_entry(entries[i])} > "
                    f"r_{j + 1}-{j - i}={bound}",
                )
    for i in range(n):
        ri = entries[i]
        if ri == INF:
            continue
        if ri >= i + 1:
            f = n + i - ri  # 0-based; always in (i, n)
            if entries[f] != INF:
                return RuleViolation(
                    "ii",
                    (i + 1, f + 1),
                    f"rule (ii) fails: r_{i + 1}={ri} >= {i + 1} forces "
                    f"r_{f + 1}=inf, found {format_entry(entries[f])}",
                )
    return None


def is_type_b(entries: Sequence[Entry]) -> bool:
    return type_b_violation(entries) is None


def _check_symbols_a(entries: Sequence[Entry]) -> int:
    n = len(entries)
    if n == 0:
        raise ValueError("vector must have at least one entry")
    for pos, e in enumerate(entries, start=1):
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"entry {pos}: expected an integer in [1, {n}], got {e!r}")
        if not 1 <= e <= n:
            raise ValueError(f"entry {pos}: value {e} outside the range [1, {n}]")
    return n


def type_a_violation(entries: Sequence[Entry]) -> RuleViolation | None:
    """Check the type A membership rules; return a witness or None.

    Rule (i): v_i >= i.  Rule (ii): if i <= j <= v_i then v_j <= v_i.
    """
    n = _check_symbols_a(entries)
    for i in range(n):
        if entries[i] < i + 1:
            return RuleViolation(
                "i", (i + 1,), f"rule (i) fails: v_{i + 1}={entries[i]} < {i + 1}"
            )
    for i in range(n):
        vi = entries[i]
        for j in range(i, vi):  # 1-based j runs over i..v_i
            if entries[j] > vi:
                return RuleViolation(
                    "ii",
                    (i + 1, j + 1),
                    f"rule (ii) fails: v_{i + 1}={vi} covers position {j + 1} "
                    f"but v_{j + 1}={entries[j]} > {vi}",
                )
    return None


def is_type_a(entries: Sequence[Entry]) -> bool:
    return type_a_violation(entries) is None


def _check_n(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the enumeration cap {MAX_N}")


def _walk(n: int, start, moves, opening, pieces) -> list[tuple]:
    """Every vector the rules allow, as ``(prefix, suffixes)`` blocks in
    order: each vector of a block is its ``prefix`` plus one of its
    ``suffixes``, and ``prefix`` is ``opening`` plus one piece per position
    below ``n // 2``.

    ``moves(pos, state)`` lists ``(value, next_state)`` for the values a
    vector may hold at 0-based ``pos`` after a prefix in ``state``, in
    order, and ``pieces[pos][value]`` is the value's piece of the output.
    The completions of a prefix depend on it only through its state, so a
    forward pass collects the states reachable at each position, a backward
    pass builds the suffixes from each state at positions ``n // 2`` and on
    once, and each prefix of length ``n // 2`` is paired with the suffixes
    of its state.  Every state has a completion, so no block is empty.
    """
    split = n // 2
    # forward: the steps out of every state reachable at each position
    steps: list[dict] = []
    states: dict = {start: None}
    for pos in range(n):
        piece = pieces[pos]
        table: dict = {}
        reached: dict = {}
        for state in states:
            table[state] = got = [(piece[val], nxt) for val, nxt in moves(pos, state)]
            for _, nxt in got:
                reached[nxt] = None
        steps.append(table)
        states = reached
    # backward: every suffix from each state at positions split..n-1
    below = {state: [piece for piece, _ in got] for state, got in steps[n - 1].items()}
    for pos in range(n - 2, split - 1, -1):
        level: dict = {}
        for state, got in steps[pos].items():
            level[state] = suffixes = []
            for piece, nxt in got:
                suffixes += map(piece.__add__, below[nxt])
        below = level
    # prefixes down to split, each paired with the suffixes of its state
    prefixes = [(opening, start)]
    for pos in range(split):
        table = steps[pos]
        prefixes = [(prefix + piece, nxt) for prefix, state in prefixes for piece, nxt in table[state]]
    return [(prefix, below[state]) for prefix, state in prefixes]


def _vectors(blocks: list[tuple]) -> list:
    """The vectors of :func:`_walk`'s blocks over 1-tuple pieces."""
    out: list = []
    for prefix, suffixes in blocks:
        out += map(prefix.__add__, suffixes)
    return out


def _type_b_moves(n: int):
    """The type B rules as moves over ``(tight, top, forced)`` prefix states.

    Rule (i) asks of a finite ``val`` at 0-based ``pos`` that it reach
    ``entries[pos - d] + d`` for every look-back distance ``1 <= d <=
    min(val, pos)``; write ``reach(d)`` for the largest of these terms up to
    distance ``d``, so ``reach(d) >= d``.  A ``val <= pos`` passes iff
    ``reach(val) == val``, and a ``val > pos`` iff ``val >= reach(pos)``.
    So the rule needs of a prefix only the bit mask ``tight`` of the
    distances ``d`` with ``reach(d) == d`` (bit 0 always set), and ``top``,
    the overall reach ``reach(pos)`` raised to at least ``pos + 1`` and
    clamped at ``n``.  The raise is exact because the test ``val >= top``
    is only made for ``val >= pos + 1``; the clamp is exact because no
    finite entry reaches ``n`` (an ``inf`` entry reaches every distance,
    so it leaves ``top == n`` and no tight distance).  After ``val`` is
    placed, the reach at distance ``d`` is the larger of ``val + 1`` and
    the old reach at ``d - 1`` plus one, so ``d`` is tight iff ``d > val``
    and ``d - 1`` was tight; ``top`` becomes ``top + 1`` for a tight
    ``val <= pos`` and ``val + 1`` for a ``val >= top``.  Rule (ii) needs
    only ``forced``, the bit mask of positions ``>= pos`` that
    an earlier ``r_i >= i`` forces to ``inf``; each such position lies
    strictly to the right of its trigger.
    """

    low: dict = {}  # tight -> [(val, next tight)] for the tight vals

    def moves(pos: int, state: tuple) -> list:
        tight, top, forced = state
        rest = forced & ~(1 << pos)
        out = []
        if not forced >> pos & 1:
            shifts = low.get(tight)
            if shifts is None:
                shifts = low[tight] = [(val, (tight << 1) >> (val + 1) << (val + 1) | 1)
                                      for val in range(tight.bit_length()) if tight >> val & 1]
            up = min(n, top + 1)
            out = [(val, (nxt, up, rest)) for val, nxt in shifts]
            for val in range(top, n):
                out.append((val, (1, val + 1, rest | 1 << (n + pos - val))))
        out.append((INF, (1, n, rest)))
        return out

    return moves


def _type_a_moves(n: int):
    """The type A rules as moves over prefix states.

    The state at ``pos`` is the ascending tuple of the distinct earlier
    entries that are greater than ``pos`` and less than ``n``: by rule (ii)
    the value at ``pos`` may not exceed the smallest of them (or ``n``), and
    by rule (i) it is at least ``pos + 1``.  Entries ``<= pos`` constrain no
    later position, and an entry ``n`` caps nothing below ``n``.
    """

    def moves(pos: int, state: tuple) -> list:
        cap = state[0] if state else n
        out = []
        for val in range(pos + 1, cap + 1):
            nxt = state if val == cap else (val, *state)
            out.append((val, nxt[1:] if nxt and nxt[0] == pos + 1 else nxt))
        return out

    return moves


def _family(kind: str, n: int):
    """Start state and moves of the family named ``"a"`` or ``"b"``."""
    _check_n(n)
    if kind == "b":
        return (1, 1, 0), _type_b_moves(n)
    if kind == "a":
        return (), _type_a_moves(n)
    raise ValueError(f"kind must be 'a' or 'b', got {kind!r}")


def enumerate_type_b(n: int) -> list[Vector]:
    """All valid type B vectors of length n in lexicographic order (inf greatest).

    One memoised walk over the rule states of :func:`_type_b_moves`: rule (i)
    needs of a prefix only its reach at each look-back distance, clamped at
    n (exact, since a finite entry is at most n - 1, so every reach of n or
    more excludes all of them), and rule (ii) only the mask of positions it
    forces to ``inf``.
    """
    return _vectors(_walk(n, *_family("b", n), (), [_TUPLE_PIECE] * n))


def enumerate_type_a(n: int) -> list[Vector]:
    """All valid type A vectors of length n in lexicographic order.

    One memoised walk over the rule states of :func:`_type_a_moves`: the value
    at 0-based ``pos`` runs from ``pos + 1`` (rule (i)) to the smallest
    earlier entry greater than ``pos``, or ``n`` if there is none (rule (ii)),
    so a prefix matters only through those earlier entries.
    """
    return _vectors(_walk(n, *_family("a", n), (), [_TUPLE_PIECE] * n))


def element_listing(kind: str, n: int) -> str:
    """The canonical texts of the elements of ``T_n`` (``kind="a"``) or
    ``T_n^B`` (``kind="b"``), one line each, in enumeration order.

    The same walk as the enumerators, over text pieces instead of 1-tuples,
    without building any vector.  Each suffix ends in a newline, so a block
    of the walk is written as ``prefix + prefix.join(suffixes)``: one join
    per prefix of length n // 2 (3,003 of them for ``T_10^B``).
    """
    start, moves = _family(kind, n)
    blocks = _walk(n, start, moves, "(", [_TEXT_PIECE] * (n - 1) + [_LAST_TEXT_PIECE])
    return "".join([prefix + prefix.join(suffixes) for prefix, suffixes in blocks])


def brute_force_type_b(n: int) -> list[Vector]:
    """Independent oracle: filter the full (n+1)^n symbol grid by the rules.

    Only intended for small n; used to pin enumeration counts in tests.
    """
    _check_n(n)
    symbols: tuple[Entry, ...] = tuple(range(n)) + (INF,)
    return [v for v in product(symbols, repeat=n) if is_type_b(v)]


def brute_force_type_a(n: int) -> list[Vector]:
    """Independent oracle: filter the full n^n grid by the type A rules."""
    _check_n(n)
    return [v for v in product(range(1, n + 1), repeat=n) if is_type_a(v)]


def leq_componentwise(a: Sequence[Entry], b: Sequence[Entry]) -> bool:
    """Componentwise order with inf greatest; lengths must agree."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))
