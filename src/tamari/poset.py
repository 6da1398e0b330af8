"""Finite poset engine: order validation, Hasse diagrams, levels, duality.

A :class:`Poset` stores its order as bitset up-set rows (Python ints; bit j
of row i is set iff element i is below or equal to element j) together with
its covers (the Hasse diagram) as each element's ascending upper and lower
cover lists.  Every other view, down-set rows, levels and the sorted cover
pairs, is derived from these two and cached; ``Poset.from_vectors`` builds
the componentwise order of vectors straight into rows, each row once, and
``is_lattice`` reads them.  Construction validates the order by a cover
certificate: walking a linear extension from the top, each up-set must be
the union of the up-sets of its covers, which are found along the way (Aho,
Garey & Ullman, "The transitive reduction of a directed graph", 1972).  Only
a relation that fails it is scanned again, row by row, to name the violated
axiom and a witness.  The extension it walked, index order whenever that
is one, is the poset's only one: row closures, levels, ``is_lattice`` and
``topological_order`` all walk it.  A dual shares its source's covers,
levels, built rows and extension, reversed, and builds its other rows when
read.  The dense numpy views (``leq_matrix``, ``cover_matrix``), kept for
tests and oracles, are the only code that imports numpy.  Everything here
is immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain
from numbers import Integral
from operator import and_, getitem, itemgetter, or_
from typing import Callable, Iterable, Iterator, Sequence


# truth values 0 and 1, as bytes, to binary digits
_DIGITS = bytes.maketrans(b"\0\1", b"01")


class PosetError(ValueError):
    """Raised when a claimed order relation fails a partial-order axiom."""

    def __init__(self, message: str, kind: str | None = None, witness=None):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


def _bits(row: int) -> Iterator[int]:
    """The indices of the set bits of ``row``, ascending."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _two_step(up: list[int]) -> Iterator[int]:
    """The relation composed with itself, row by row: row i is the OR of
    ``up[k]`` over the k in ``up[i]``.  Lazy, so a scan for the first row it
    changes stops there; only a relation that failed the cover certificate
    is scanned."""
    return (reduce(or_, map(up.__getitem__, _bits(row)), 0) for row in up)


def _bool_rows(rows: list[int], n: int):
    """The rows as a read-only n x n numpy boolean matrix, bit j of row i
    at ``[i, j]``: the dense views, the only code that imports numpy."""
    import numpy as np

    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    bits = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)
    bits.setflags(write=False)
    return bits


def _selected(rows: list[int], idx: list[int]) -> list[int]:
    """Rows ``idx`` restricted to the columns ``idx`` and renumbered, so bit
    q of row p is bit ``idx[q]`` of ``rows[idx[p]]``.  Each row is read as a
    binary string, never as a matrix."""
    if not idx:
        return []
    n = len(rows)
    pick = itemgetter(*[n - 1 - j for j in reversed(idx)])
    return [int("".join(pick(format(rows[i], f"0{n}b"))), 2) for i in idx]


def _by_up_size(up: list[int]) -> list[int]:
    """The indices in descending up-set size, index order among equals: a
    linear extension of any partial order, since a strictly smaller element
    has a strictly larger up-set: the certificate's fallback."""
    return sorted(range(len(up)), key=[-row.bit_count() for row in up].__getitem__)


def _closure(adjacent: list[list[int]], order: Iterable[int]) -> list[int]:
    """Row u is u's bit OR the rows of ``adjacent[u]``, which ``order`` lists before u."""
    rows = [1 << u for u in range(len(adjacent))]
    for u in order:
        row = rows[u]
        for v in adjacent[u]:
            row |= rows[v]
        rows[u] = row
    return rows


def is_lattice(p: Poset) -> bool:
    """True iff every pair has a unique least upper and greatest lower bound.

    A finite poset with a least element is a lattice iff every pair has a
    join, since the meet of a pair is then the join of its common lower
    bounds; so only up rows are read.  Over a linear extension the lowest
    common upper bound of a pair is a minimal one, and a join exists iff its
    up-set is exactly the common upper bounds.
    """
    if len(p.minimal_elements()) != 1:
        return False
    up = p._up
    if p._extension != range(p.n):  # renumbered along the poset's extension
        up = _selected(up, p._extension)
    for a in range(p.n):
        for b in range(a + 1, p.n):
            ub = up[a] & up[b]
            if not ub or up[(ub & -ub).bit_length() - 1] != ub:
                return False
    return True


def _cover_certificate(up: list[int]) -> tuple[list[list[int]], Sequence[int]] | None:
    """Each element's ascending upper covers and the linear extension they
    were certified along, if the rows form a partial order, else None.

    The rows are walked down index order (:func:`_walk_covers`), and the
    extension is ``range(n)``; only if that walk fails are they walked again
    down :func:`_by_up_size`, which is a linear extension of any partial
    order, so the second walk fails exactly when the relation is not one.
    """
    ups = _walk_covers(up)
    if ups is not None:
        return ups, range(len(up))
    order = _by_up_size(up)
    ups = _walk_covers(_selected(up, order))
    if ups is None:
        return None
    out: list[list[int]] = [[]] * len(up)
    for i, covers in enumerate(ups):
        out[order[i]] = sorted(order[j] for j in covers)
    return out, order


def _walk_covers(rows: list[int]) -> list[list[int]] | None:
    """Each element's ascending upper covers if index order is a linear
    extension of a partial order given by the rows, else None.

    The elements are walked from the top.  For each element, the lowest
    strict successor not yet reached from the covers found so far is its
    next cover.  The element's up-set must then be exactly the union of its
    covers' up-sets.  The up-sets above it were certified first, so by
    induction the relation is transitive iff every check passes; reflexivity
    and antisymmetry follow from each row's lowest bit being its own.
    """
    index = list(range(len(rows)))  # one int object per element, shared by the lists naming it
    ups: list[list[int]] = [[]] * len(rows)
    for i in reversed(index):
        above = rows[i] ^ 1 << i
        if not above:
            continue
        # above's lowest bit is at most i unless the row's lowest bit is i;
        # checked first, so every row met below is certified and holds its own bit
        j = (above & -above).bit_length() - 1
        if j <= i:
            return None
        covers = [index[j]]
        reached = rows[j]
        rest = above ^ above & reached
        while rest:
            j = (rest & -rest).bit_length() - 1
            covers.append(index[j])
            reached |= rows[j]
            rest ^= rest & rows[j]
        if reached != above:
            return None
        ups[i] = covers
    return ups


def _index_pairs(pairs: Iterable, n: int) -> list[tuple[int, int]]:
    """``pairs`` as (int, int) tuples of indices in ``range(n)``, else a
    PosetError naming the first that is not two integer indices or not in
    range.  Lists and tuples of two ints, as JSON gives them, are checked by
    C-level passes; only other pairs, or a bad one, take the loop.  A numpy
    array may be a pair, but only once numpy is loaded; it is not imported."""
    pairs = list(pairs)
    if set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}:
        # typed before any set, where (0.0, 1) and (True, 1) would pass as (0, 1) and (1, 1)
        ends = list(chain.from_iterable(pairs))
        if set(map(type, ends)) <= {int} and (not ends or 0 <= min(ends) and max(ends) < n):
            return list(map(tuple, pairs))
    array = getattr(sys.modules.get("numpy"), "ndarray", ())
    checked = []
    for pair in pairs:
        if not (
            isinstance(pair, (tuple, list, array))
            and len(pair) == 2
            and all(isinstance(x, Integral) and not isinstance(x, bool) for x in pair)
        ):
            raise PosetError(f"cover {pair!r} is not a pair of element indices")
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise PosetError(f"cover ({u},{v}) out of range for {n} elements")
        checked.append((int(u), int(v)))
    return checked


def _antisymmetry_error(labels: list, i: int, j: int) -> PosetError:
    return PosetError(
        f"relation is not antisymmetric: {labels[i]!r} <= {labels[j]!r} and back",
        kind="antisymmetry",
        witness=(labels[i], labels[j]),
    )


def _closing_order(succ: list[list[int]]) -> tuple[list[int], tuple[int, int] | None]:
    """The nodes in the order Tarjan's algorithm (1972), run iteratively,
    closes their strongly connected components, and the least node i on a
    cycle with the least other member of its component, None for an
    acyclic digraph: the first mutually related pair of the closure in
    row-major order.

    A component closes only after every component it reaches, so without a
    cycle each node comes after all of its successors, the order
    :func:`_closure` needs.  The cost is linear in the arcs.
    """
    n = len(succ)
    index = [-1] * n  # n once the node's component has closed
    low = [0] * n
    stack: list[int] = []
    closed: list[int] = []
    cyclic: list[list[int]] = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:  # w is on the stack, as a closed index is n
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:  # v roots a component: close it
                    size = len(closed)
                    while not closed or closed[-1] != v:
                        w = stack.pop()
                        index[w] = n
                        closed.append(w)
                    if len(closed) - size > 1:
                        cyclic.append(sorted(closed[size:]))
    return closed, tuple(min(cyclic)[:2]) if cyclic else None


def _validate_order(labels: list, up: list[int]) -> tuple[list[list[int]], Sequence[int]]:
    """Return the upper covers and the extension of :func:`_cover_certificate`.

    A relation that fails the cover certificate is scanned row by row for
    the first violated axiom (reflexivity, then antisymmetry, then
    transitivity) and its first witness in row-major order, which is raised
    as a :class:`PosetError`.
    """
    certified = _cover_certificate(up)
    if certified is not None:
        return certified
    for i, row in enumerate(up):
        if not row >> i & 1:
            raise PosetError(
                f"relation is not reflexive at {labels[i]!r}",
                kind="reflexivity",
                witness=(labels[i],),
            )
    for i, row in enumerate(up):
        for j in _bits(row ^ 1 << i):
            if up[j] >> i & 1:
                raise _antisymmetry_error(labels, i, j)
    # reflexive, so each two-step row holds its row, and a bit more where transitivity fails
    i, two = next((i, two) for i, two in enumerate(_two_step(up)) if two != up[i])
    j = next(_bits(two ^ up[i]))
    k = next(k for k in _bits(up[i]) if up[k] >> j & 1)
    raise PosetError(
        f"relation is not transitive: {labels[i]!r} <= {labels[k]!r} <= "
        f"{labels[j]!r} but not {labels[i]!r} <= {labels[j]!r}",
        kind="transitivity",
        witness=(labels[i], labels[k], labels[j]),
    )


def _componentwise_rows(vectors: list) -> list[int]:
    """Up-set rows of the componentwise order on equal-length vectors.

    Per coordinate, the vectors holding at least each value form a bitset,
    filled in a bytearray down the values; each row is then built once, as
    the intersection of its vector's sets.
    """
    width = len(vectors[0]) if vectors else 0
    if any(len(v) != width for v in vectors):
        raise PosetError("vectors of different lengths are not ordered componentwise")
    at_least: list[dict] = []
    for c in range(width):
        holding: dict = {}
        for i, v in enumerate(vectors):
            holding.setdefault(v[c], []).append(i)
        bits = bytearray((len(vectors) + 7) // 8)
        for value in sorted(holding, reverse=True):
            for i in holding[value]:
                bits[i >> 3] |= 1 << (i & 7)
            holding[value] = int.from_bytes(bits, "little")
        at_least.append(holding)
    everything = (1 << len(vectors)) - 1
    return [reduce(and_, map(getitem, at_least, v), everything) for v in vectors]


@dataclass(frozen=True)
class LevelAssignment:
    """A map element index -> level whose fibers partition into antichains.

    ``mode`` is one of ``"lowest"`` (longest chain up from a minimal
    element), ``"highest"`` (mirrored from the top so that elements on a
    maximum chain keep the same level in both modes) or ``"shifted"`` (the
    lowest map with every unleveled element raised by one).
    """

    levels: tuple[int, ...]
    mode: str

    def __getitem__(self, i: int) -> int:
        return self.levels[i]

    def fibers(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, lv in enumerate(self.levels):
            out.setdefault(lv, []).append(i)
        return dict(sorted(out.items()))


@dataclass(frozen=True)
class LeveledSubposet:
    """Elements lying on some maximum-length chain, with their levels.

    ``members`` are indices into the ambient poset (ascending), ``levels``
    restricts the lowest-level map to them, and ``poset`` is the induced
    subposet (labels inherited from the ambient poset, in member order).
    """

    members: tuple[int, ...]
    levels: dict[int, int] = field(repr=False)
    poset: "Poset" = field(repr=False)

    def level_sizes(self) -> dict[int, int]:
        return dict(sorted(Counter(self.levels[m] for m in self.members).items()))


class Poset:
    """Immutable finite poset over an indexed sequence of labels."""

    def __init__(self, labels: Sequence, leq: Sequence[Sequence]):
        """Build from an n x n matrix of truth values (a numpy array or
        nested lists): ``leq[i][j]`` iff element i is below or equal to j."""
        labels = list(labels)
        if not labels:
            raise PosetError("poset needs at least one element", kind="empty")
        n = len(labels)
        shape = (len(leq), *sorted({len(row) for row in leq}))
        if shape != (n, n):
            raise PosetError(f"relation shape {shape} does not match {n} labels")
        # a row's truth values, last first, are the binary digits of its bits
        self.labels = labels
        self._up = [int(bytes(map(bool, row))[::-1].translate(_DIGITS), 2) for row in leq]
        self._certify()

    @classmethod
    def _from_rows(cls, labels: Sequence, up: list[int]) -> "Poset":
        """Build from up-set rows (bit j of ``up[i]`` iff i <= j)."""
        p = cls.__new__(cls)
        p.labels, p._up = list(labels), up
        if not p.labels:
            raise PosetError("poset needs at least one element", kind="empty")
        p._certify()
        return p

    def _certify(self) -> None:
        """Validate the rows; keep the extension walked and the ascending
        upper covers with the lower covers, which one walk over them in index
        order gives ascending too.  The sorted pairs are derived only when
        read (:attr:`_cover_pairs`)."""
        ups, self._extension = _validate_order(self.labels, self._up)
        downs: list[list[int]] = [[] for _ in ups]
        for u, vs in enumerate(ups):
            for v in vs:
                downs[v].append(u)
        self._cover_lists = ups, downs

    @classmethod
    def from_predicate(cls, labels: Sequence, leq: Callable) -> "Poset":
        """Build from a binary order predicate, validating the axioms."""
        labels = list(labels)
        up = [sum(1 << j for j, b in enumerate(labels) if leq(a, b)) for a in labels]
        return cls._from_rows(labels, up)

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence]) -> "Poset":
        """The componentwise order on equal-length vectors, validated like
        any other poset; the vectors themselves are the labels.

        Per coordinate, the vectors holding at least each value form a
        bitset, and a vector's up-set is the intersection of its "at least"
        sets, one per coordinate.
        """
        vectors = list(vectors)
        return cls._from_rows(vectors, _componentwise_rows(vectors))

    @classmethod
    def from_covers(cls, labels: Sequence, covers: Iterable[tuple[int, int]]) -> "Poset":
        """Rebuild a poset from cover pairs (lower, upper) by transitive closure.

        Each pair must be two integer element indices.  Redundant pairs
        (implied by longer paths) are accepted and dropped; a cycle is
        rejected as an antisymmetry violation naming the least element on a
        cycle and the least other element on a cycle through it.  One
        search, :func:`_closing_order`, gives both the closure order and
        that witness.
        """
        labels = list(labels)
        n = len(labels)
        succ: list[list[int]] = [[] for _ in range(n)]
        for u, v in _index_pairs(covers, n):
            if u != v:
                succ[u].append(v)
        order, cycle = _closing_order(succ)
        if cycle is not None:
            raise _antisymmetry_error(labels, *cycle)
        return cls._from_rows(labels, _closure(succ, order))

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def leq(self, i: int, j: int) -> bool:
        return bool(self._up[i] >> j & 1)

    def closure_mismatch(self, pairs: Iterable) -> tuple[tuple | None, tuple | None]:
        """The least of ``pairs``, (lower, upper) element indices, with
        distinct ends that is not a strict relation, and the least cover
        missing from them: ``(None, None)`` exactly when the reflexive-
        transitive closure of the pairs is this order, which is decided
        without closing them.  A pair that is not two indices in range
        raises what :meth:`from_covers` raises for it."""
        got = set(_index_pairs(pairs, self.n))
        up = self._up
        stray = min(
            ((u, v) for u, v in got.difference(self._cover_pairs) if u != v and not up[u] >> v & 1),
            default=None,
        )
        return stray, next((pair for pair in self._cover_pairs if pair not in got), None)

    def relabeled(self, labels: Sequence) -> "Poset":
        """The same order over new labels, one per element; the rows, covers
        and extension are shared, since they are never mutated."""
        labels = list(labels)
        if len(labels) != self.n:
            raise PosetError(f"{len(labels)} labels for {self.n} elements")
        p = Poset.__new__(Poset)
        p.labels, p._up, p._cover_lists = labels, self._up, self._cover_lists
        p._extension = self._extension
        return p

    @cached_property
    def leq_matrix(self):
        """Read-only dense numpy view of the order, for tests and oracles."""
        return _bool_rows(self._up, self.n)

    @cached_property
    def cover_matrix(self):
        ups, _ = self._cover_lists
        return _bool_rows([reduce(or_, (1 << v for v in vs), 0) for vs in ups], self.n)

    @property
    def covers(self) -> list[tuple[int, int]]:
        """Sorted cover pairs (lower, upper): the Hasse diagram edges."""
        return list(self._cover_pairs)

    @cached_property
    def _cover_pairs(self) -> list[tuple[int, int]]:
        """The cover pairs in sorted order, read off the ascending upper
        covers when first asked for; building the order lists none."""
        ups, _ = self._cover_lists
        return [(u, v) for u, vs in enumerate(ups) for v in vs]

    @cached_property
    def _up(self) -> list[int]:
        """Up-set rows (bit j of row i iff i <= j), closed over the upper
        covers down the poset's extension.  Preset wherever the rows are the
        input, so only a dual builds them."""
        ups, _ = self._cover_lists
        return _closure(ups, reversed(self._extension))

    @cached_property
    def _down(self) -> list[int]:
        """Down-set rows (bit j of row i iff j <= i), closed over the lower
        covers up the poset's extension.  Read only by the isomorphism
        search, and by a dual as its up rows."""
        _, downs = self._cover_lists
        return _closure(downs, self._extension)

    def minimal_elements(self) -> list[int]:
        _, downs = self._cover_lists
        return [v for v in range(self.n) if not downs[v]]

    def maximal_elements(self) -> list[int]:
        ups, _ = self._cover_lists
        return [v for v in range(self.n) if not ups[v]]

    def first_comparable_pair(self, members: Sequence[int]) -> tuple[int, int] | None:
        """The first (a, b) with a != b and a <= b, scanning ``members`` in
        their given order for a and then for b; None for an antichain.
        Since a <= a, a has a comparable partner iff its hits in the mask
        are more than its own bit."""
        mask = 0
        for m in members:  # OR, so a repeated member counts once
            mask |= 1 << m
        up = self._up
        for a in members:
            hit = up[a] & mask
            if hit != 1 << a:
                return a, next(b for b in members if b != a and hit >> b & 1)
        return None

    def first_comparable_in_parts(self, parts: Iterable[Sequence[int]]) -> tuple[int, int] | None:
        """The first comparable pair inside one of ``parts``, one
        :meth:`first_comparable_pair` scan per part in their given order until
        a hit; None when every part is an antichain."""
        return next(filter(None, map(self.first_comparable_pair, parts)), None)

    def index(self, label) -> int:
        return self._label_index[label]

    @cached_property
    def _label_index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    def topological_order(self) -> list[int]:
        """The poset's one linear extension, which the cover certificate
        walked: index order whenever that is one; it builds no row."""
        return list(self._extension)

    def __repr__(self) -> str:
        return f"Poset(n={self.n})"

    # -- levels and chains ---------------------------------------------------

    @cached_property
    def _level_arrays(self) -> tuple[list[int], list[int]]:
        """Per element, the cover steps of a longest chain below it and of
        one above it, by longest paths along the poset's extension; any
        linear extension gives the same lengths, and this one reads no row."""
        up_adj, down_adj = self._cover_lists
        low = [0] * self.n
        for u in self._extension:
            du = low[u] + 1
            for v in up_adj[u]:
                if low[v] < du:
                    low[v] = du
        up = [0] * self.n
        for v in reversed(self._extension):
            dv = up[v] + 1
            for u in down_adj[v]:
                if up[u] < dv:
                    up[u] = dv
        return low, up

    def longest_chain_length(self) -> int:
        """Number of cover steps in a maximum chain (elements minus one)."""
        low, _ = self._level_arrays
        return max(low)

    def level_map(self, mode: str = "lowest") -> LevelAssignment:
        """The levels of one of :class:`LevelAssignment`'s modes.

        An element lies on a maximum chain iff its longest chains down and
        up add up to the longest chain; the shifted map raises every other
        element by one.
        """
        low, up = self._level_arrays
        top = max(low)
        if mode == "lowest":
            return LevelAssignment(tuple(low), "lowest")
        if mode == "highest":
            return LevelAssignment(tuple(top - u for u in up), "highest")
        if mode == "shifted":
            levels = tuple(lv if lv + u == top else lv + 1 for lv, u in zip(low, up))
            return LevelAssignment(levels, "shifted")
        raise ValueError(f"unknown level mode {mode!r}")

    def leveled_subposet(self) -> LeveledSubposet:
        """The subposet of elements on a chain of globally maximal length,
        derived once per poset."""
        return self._leveled

    @cached_property
    def _leveled(self) -> LeveledSubposet:
        low, up = self._level_arrays
        top = max(low)
        members = tuple(v for v in range(self.n) if low[v] + up[v] == top)
        levels = {v: low[v] for v in members}
        return LeveledSubposet(members, levels, self.induced(members))

    # -- derived posets ------------------------------------------------------

    def dual(self) -> "Poset":
        """Same elements with the order reversed (an involution).  Nothing
        is rebuilt: the dual takes the cover lists, level arrays and rows
        built here swapped and the extension reversed, and builds any other
        row view, and its sorted cover pairs, when read."""
        d = Poset.__new__(Poset)
        d.labels, d._extension = list(self.labels), self._extension[::-1]
        d._cover_lists, d._level_arrays = self._cover_lists[::-1], self._level_arrays[::-1]
        for rows, swapped in (("_up", "_down"), ("_down", "_up")):
            if rows in vars(self):
                setattr(d, swapped, vars(self)[rows])
        return d

    def induced(self, indices: Sequence[int]) -> "Poset":
        idx = list(indices)
        return Poset._from_rows([self.labels[i] for i in idx], _selected(self._up, idx))


# -- isomorphism -------------------------------------------------------------


def _refine_colors(p: Poset, q: Poset) -> tuple[list[int], list[int]] | None:
    """Iterated neighborhood refinement over the cover digraphs.

    p and q are refined as one disjoint union, q after p.  Returns stable
    color vectors for both posets, or None as soon as the color histograms
    diverge (no isomorphism can exist then).
    """

    def number(keys: Iterable[tuple]) -> list[int]:
        # colours by first appearance of each key, a fresh table per round
        table: dict[tuple, int] = {}
        return [table.setdefault(k, len(table)) for k in keys]

    colors = number(
        (r._down[v].bit_count(), r._up[v].bit_count(), len(downs[v]), len(ups[v]))
        for r in (p, q)
        for ups, downs in [r._cover_lists]
        for v in range(r.n)
    )
    if sorted(colors[: p.n]) != sorted(colors[p.n :]):
        return None
    # shifted only once the cheap first histograms agree
    ups, downs = (
        a + [[u + p.n for u in us] for us in b]
        for a, b in zip(p._cover_lists, q._cover_lists)
    )
    while True:
        classes = len(set(colors))
        colors = number(
            (c, tuple(sorted(colors[u] for u in us)), tuple(sorted(colors[u] for u in ds)))
            for c, us, ds in zip(colors, ups, downs)
        )
        pc, qc = colors[: p.n], colors[p.n :]
        if sorted(pc) != sorted(qc):
            return None
        if len(set(colors)) == classes:
            return pc, qc


def find_isomorphism(p: Poset, q: Poset) -> list[int] | None:
    """Exact order-isomorphism search: refinement plus backtracking.

    Returns a mapping ``m`` with ``m[i]`` the q-index matched to p-index i,
    or None if the posets are not isomorphic.  Exhaustive, not heuristic:
    a None answer is a proof of non-isomorphism.  Posets whose multisets of
    (longest chain below, longest chain above) differ are rejected from the
    cached level arrays before any refinement.  A candidate ``x`` for
    ``u`` must have as many mapped elements above and below as ``u``, among
    them the images of the first mapped elements on u's cover paths; as the
    partial map keeps the order, x then relates to every mapped element as u.
    """
    if p.n != q.n:
        return None
    # an isomorphism keeps each element's longest chains below and above
    if Counter(zip(*p._level_arrays)) != Counter(zip(*q._level_arrays)):
        return None
    refined = _refine_colors(p, q)
    if refined is None:
        return None
    pc, qc = refined
    candidates: dict[int, list[int]] = {}
    for j, c in enumerate(qc):
        candidates.setdefault(c, []).append(j)
    # most-constrained p-vertices first
    order = sorted(range(p.n), key=lambda v: (len(candidates.get(pc[v], ())), pc[v], v))
    (pups, pdowns), pup, pdown, qup, qdown = p._cover_lists, p._up, p._down, q._up, q._down
    mapping = [-1] * p.n
    pmask = qmask = 0  # the mapped p-elements and their images

    def side(u: int, covers: list[list[int]], rows: list[int]) -> tuple[int, int]:
        # images of the first mapped elements on u's cover paths, and the count on that side
        hits, seen, todo = 0, {u}, [u]
        for w in todo:  # todo grows while it is read
            for v in covers[w]:
                if pmask >> v & 1:
                    hits |= 1 << mapping[v]
                elif rows[v] & pmask and v not in seen:
                    seen.add(v)
                    todo.append(v)
        return hits, (rows[u] & pmask).bit_count()

    # stack[d]: index of the next candidate to try for order[d]
    stack = [0]
    while stack:
        d = len(stack) - 1
        if d == len(order):
            return mapping
        u = order[d]
        cands = candidates.get(pc[u], ())
        want = side(u, pups, pup) + side(u, pdowns, pdown)
        for i in range(stack[-1], len(cands)):
            x = cands[i]
            qa, qb = qup[x] & qmask, qdown[x] & qmask
            got = (qa & want[0], qa.bit_count(), qb & want[2], qb.bit_count())
            if qmask >> x & 1 or got != want:
                continue
            stack[-1] = i + 1
            mapping[u] = x
            pmask, qmask = pmask | 1 << u, qmask | 1 << x
            stack.append(0)
            break
        else:
            stack.pop()
            if stack:  # undo the choice one level up
                v = order[len(stack) - 1]
                pmask, qmask = pmask ^ 1 << v, qmask ^ 1 << mapping[v]
    return None


def is_isomorphic(p: Poset, q: Poset) -> bool:
    return find_isomorphism(p, q) is not None
