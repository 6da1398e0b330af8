"""Tuple encodings of the type A and type B Tamari lattice elements.

Elements of the classical Tamari lattice T_n are integer n-tuples, elements
of the type B lattice T_n^B are n-tuples over {0, 1, ..., n-1, inf}; both
families are ordered componentwise.  This module provides the membership
rules (validators that report 1-based violation witnesses), lexicographic
enumerators, the componentwise order, and the canonical text form
``"(0,0,3,inf)"`` used wherever a vector is serialized.

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


def enumerate_type_b(n: int) -> list[Vector]:
    """All valid type B vectors of length n in lexicographic order (inf greatest).

    Backtracking with prefix pruning.  Rule (i): a finite ``val`` at 0-based
    ``pos`` must reach the running maximum of ``entries[pos - d] + d`` over
    ``1 <= d <= min(val, pos)``.  Rule (ii) is enforced by recording the forced
    positions (which always lie strictly to the right of the trigger).
    """
    _check_n(n)
    out: list[Vector] = []
    entries: list[Entry] = [0] * n
    forced = [0] * n  # count of rule-(ii) constraints demanding inf here

    def place(pos: int) -> None:
        if pos == n:
            out.append(tuple(entries))
            return
        if not forced[pos]:
            reach: Entry = 0
            for val in range(n):
                if 0 < val <= pos:
                    reach = max(reach, entries[pos - val] + val)
                    if reach == INF:
                        break
                if reach > val:
                    continue
                entries[pos] = val
                if val >= pos + 1:
                    f = n + pos - val
                    forced[f] += 1
                    place(pos + 1)
                    forced[f] -= 1
                else:
                    place(pos + 1)
        entries[pos] = INF
        place(pos + 1)
        entries[pos] = 0

    place(0)
    return out


def enumerate_type_a(n: int) -> list[Vector]:
    """All valid type A vectors of length n in lexicographic order.

    The value at 0-based ``pos`` runs from ``pos + 1`` (rule (i)) to the
    smallest earlier entry that reaches it, or ``n`` if none does (rule (ii)).
    """
    _check_n(n)
    out: list[Vector] = []
    entries = [0] * n

    def place(pos: int) -> None:
        if pos == n:
            out.append(tuple(entries))
            return
        cap = min((e for e in entries[:pos] if e > pos), default=n)
        for val in range(pos + 1, cap + 1):
            entries[pos] = val
            place(pos + 1)

    place(0)
    return out


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
