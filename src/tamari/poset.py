"""Finite poset engine: order validation, Hasse diagrams, levels, duality.

A :class:`Poset` stores its order as bitset down-set rows (Python ints; bit
j of row i is set iff element j is below or equal to element i) together
with its covers (the Hasse diagram) as each element's ascending upper and
lower cover lists.  Along the poset's linear extension, index order for
every Tamari family, row i has no bit above i, so the rows are triangular.
Every other view, up-set rows, levels and the sorted cover pairs, is
derived from these two and cached; ``Poset.from_vectors`` builds the
componentwise order of vectors straight into rows, each row once, and
``is_lattice`` reads them.  Construction validates the order by a cover
certificate: walking a linear extension from the bottom, each down-set must
be the union of the down-sets of its lower covers, which are found along
the way, each the highest bit not yet reached (Aho, Garey & Ullman, "The
transitive reduction of a directed graph", 1972).  Only a relation that
fails it is transposed to up-set rows and scanned again, row by row, to
name the violated axiom and a witness.  The extension it walked, index
order whenever that is one, is the poset's only one: row closures, levels,
``is_lattice`` and ``topological_order`` all walk it.  A dual shares its
source's covers, levels, built rows and extension, reversed, and builds its
other rows when read.  The dense numpy views (``leq_matrix``,
``cover_matrix``), kept for tests and oracles, are the only code that
imports numpy.  Everything here is immutable after construction and safe to
share between threads.  The level views are the lowest and shifted maps and
the list of leveled elements, those on a maximum chain, all read off one
longest-path pass each way along the covers.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from numbers import Integral
from operator import and_, getitem, itemgetter, or_
from typing import Callable, Iterable, Iterator, Sequence


# truth values 0 and 1, as bytes, to binary digits
_DIGITS = bytes.maketrans(b"\0\1", b"01")

# each element's ascending upper covers, then its ascending lower covers
_CoverLists = tuple[list[list[int]], list[list[int]]]

# rows and a linear extension -> the rows renumbered along it
_Renumbering = Callable[[list[int], list[int]], list[int]]


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


def _transpose(rows: list[int]) -> list[int]:
    """The converse relation: bit i of row j is bit j of ``rows[i]``.  The
    rows are read as binary strings and their columns as the new rows'
    digits, never as a matrix."""
    n = len(rows)
    columns = zip(*(format(row, f"0{n}b") for row in rows))  # bit n - 1 first
    return [int("".join(column)[::-1], 2) for column in columns][::-1]


def _by_down_size(down: list[int]) -> list[int]:
    """The indices in ascending down-set size, index order among equals: a
    linear extension of any partial order, since a strictly larger element
    has a strictly larger down-set: the certificate's fallback."""
    return sorted(range(len(down)), key=[row.bit_count() for row in down].__getitem__)


def _closure(adjacent: list[list[int]], order: Iterable[int]) -> list[int]:
    """Row u is u's bit OR the rows of ``adjacent[u]``, which ``order`` lists before u."""
    rows = [1 << u for u in range(len(adjacent))]
    for u in order:
        row = rows[u]
        for v in adjacent[u]:
            row |= rows[v]
        rows[u] = row
    return rows


def _closed_along(adjacent: list[list[int]], extension: Sequence[int]) -> list[int]:
    """Down rows renumbered along ``extension``, so bit q of row p is set
    iff ``extension[q]`` lies below ``extension[p]``: each element's lower
    neighbours ``adjacent``, which the extension lists first, renumbered and
    closed again, cheaper than reselecting every closed row bit by bit."""
    at = [0] * len(adjacent)
    for i, v in enumerate(extension):
        at[v] = i
    return _closure([[at[u] for u in adjacent[v]] for v in extension], range(len(adjacent)))


def is_lattice(p: Poset) -> bool:
    """True iff every pair has a unique least upper and greatest lower bound.

    A finite poset with a greatest element is a lattice iff every pair has a
    meet, since the join of a pair is then the meet of its common upper
    bounds; so only down rows are read.  Over a linear extension the highest
    common lower bound of a pair is a maximal one, and a meet exists iff its
    down-set is exactly the common lower bounds.
    """
    if len(p.maximal_elements()) != 1:
        return False
    if p._extension == range(p.n):
        down = p._down
    else:  # renumbered along the poset's extension, closed from the lower covers
        down = _closed_along(p._cover_lists[1], p._extension)
    for a in range(p.n):
        row = down[a]
        for b in range(a + 1, p.n):
            lb = row & down[b]
            if not lb or down[lb.bit_length() - 1] != lb:
                return False
    return True


def _cover_certificate(
    down: list[int], renumbered: _Renumbering = _selected
) -> tuple[_CoverLists, Sequence[int]] | None:
    """Each element's ascending upper and lower covers and the linear
    extension they were certified along, if the rows form a partial order,
    else None.

    The rows are walked up index order (:func:`_walk_covers`), and the
    extension is ``range(n)``; only if that walk fails are they walked again
    up :func:`_by_down_size`, which is a linear extension of any partial
    order, so the second walk fails exactly when the relation is not one.
    ``renumbered(down, order)`` gives the rows along that order.
    """
    walked = _walk_covers(down)
    if walked is not None:
        return walked, range(len(down))
    order = _by_down_size(down)
    walked = _walk_covers(renumbered(down, order))
    if walked is None:
        return None
    out = tuple([[]] * len(down) for _ in walked)
    for side, lists in zip(out, walked):
        for i, covers in enumerate(lists):
            side[order[i]] = sorted(order[j] for j in covers)
    return out, order


def _walk_covers(rows: list[int]) -> _CoverLists | None:
    """Each element's ascending upper and lower covers if index order is a
    linear extension of a partial order given by the down-set rows, else
    None.

    The elements are walked from the bottom.  For each element, the highest
    strict predecessor not yet reached from the covers found so far is its
    next cover: the highest bit of what is left, which ``bit_length`` reads
    without copying the row.  The element's down-set must then be exactly
    the union of its covers' down-sets.  The down-sets below it were
    certified first, so by induction the relation is transitive iff every
    check passes; reflexivity and antisymmetry follow from each row's
    highest bit being its own.  Each element joins its lower covers' upper
    cover lists as it is walked, so those come ascending too.
    """
    index = list(range(len(rows)))  # one int object per element, shared by the lists naming it
    ups: list[list[int]] = [[] for _ in index]
    downs: list[list[int]] = [[]] * len(rows)
    for i in index:
        below = rows[i] ^ 1 << i
        if not below:
            continue
        # below's highest bit is at least i unless the row's highest bit is i;
        # checked first, so every row met below is certified and holds its own bit
        j = below.bit_length() - 1
        if j >= i:
            return None
        covers = [index[j]]
        reached = rows[j]
        rest = below ^ below & reached
        while rest:
            j = rest.bit_length() - 1
            covers.append(index[j])
            reached |= rows[j]
            rest ^= rest & rows[j]
        if reached != below:
            return None
        downs[i] = covers[::-1]  # ascending, and no longer than it needs to be
        for j in covers:
            ups[j].append(i)
    return ups, downs


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


def _closing_order(adjacent: list[list[int]]) -> tuple[list[int], tuple[int, int] | None]:
    """The nodes in the order Tarjan's algorithm (1972), run iteratively,
    closes their strongly connected components, and the least node i on a
    cycle with the least other member of its component, None for an
    acyclic digraph: the first mutually related pair of the closure in
    row-major order, whichever way the arcs point.

    A component closes only after every component it reaches, so without a
    cycle each node comes after all of its ``adjacent`` nodes, the order
    :func:`_closure` needs.  The cost is linear in the arcs.
    """
    n = len(adjacent)
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
        work = [(root, iter(adjacent[root]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(adjacent[w])))
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


def _validate_order(
    labels: list, down: list[int], renumbered: _Renumbering = _selected
) -> tuple[_CoverLists, Sequence[int]]:
    """Return the cover lists and the extension of :func:`_cover_certificate`.

    A relation that fails the cover certificate is transposed to up-set rows
    and scanned row by row for the first violated axiom (reflexivity, then
    antisymmetry, then transitivity) and its first witness in row-major
    order, which is raised as a :class:`PosetError`.
    """
    certified = _cover_certificate(down, renumbered)
    if certified is not None:
        return certified
    up = _transpose(down)
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
    """Down-set rows of the componentwise order on equal-length vectors.

    Per coordinate, the vectors holding at most each value form a bitset,
    read off one byte per vector by C-level translation.  The values are
    coded by rank, 255 at a time, with every lower rank coded 0 and every
    higher one 255; the table sending the codes up to a rank's to "1" and
    the rest to "0" then turns the codes into that rank's set as binary
    digits.  Each row is built once, as the intersection of its vector's
    sets.
    """
    width = len(vectors[0]) if vectors else 0
    if any(len(v) != width for v in vectors):
        raise PosetError("vectors of different lengths are not ordered componentwise")
    at_most: list[dict] = []
    for column in zip(*vectors):
        values = sorted(set(column))
        sets: dict = {}
        for base in range(0, len(values), 255):
            code = {value: min(max(rank - base, 0), 255) for rank, value in enumerate(values)}
            digits = bytes(map(code.__getitem__, column))[::-1]  # the last vector first
            for rank, value in enumerate(values[base : base + 255]):
                sets[value] = int(digits.translate(b"1" * (rank + 1) + b"0" * (255 - rank)), 2)
        at_most.append(sets)
    everything = (1 << len(vectors)) - 1
    return [reduce(and_, map(getitem, at_most, v), everything) for v in vectors]


@dataclass(frozen=True)
class LevelAssignment:
    """A map element index -> level whose fibers partition into antichains.

    ``mode`` is ``"lowest"`` (longest chain up from a minimal element) or
    ``"shifted"`` (the lowest map with every unleveled element, one on no
    maximum chain, raised by one).
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
        # a column's truth values, last first, are the binary digits of its down row
        self.labels = labels
        self._down = [int(bytes(map(bool, col))[::-1].translate(_DIGITS), 2) for col in zip(*leq)]
        self._certify()

    @classmethod
    def _from_rows(
        cls, labels: list, down: list[int], renumbered: _Renumbering = _selected
    ) -> "Poset":
        """Build from down-set rows (bit j of ``down[i]`` iff j <= i) over a
        list of labels that the poset keeps, as every caller builds one;
        ``renumbered`` goes to the certificate."""
        p = cls.__new__(cls)
        p.labels, p._down = labels, down
        if not p.labels:
            raise PosetError("poset needs at least one element", kind="empty")
        p._certify(renumbered)
        return p

    def _certify(self, renumbered: _Renumbering = _selected) -> None:
        """Validate the rows; keep the extension walked and the ascending
        upper and lower covers the walk found.  The sorted pairs are derived
        only when read (:attr:`_cover_pairs`)."""
        self._cover_lists, self._extension = _validate_order(self.labels, self._down, renumbered)

    @classmethod
    def from_predicate(cls, labels: Sequence, leq: Callable) -> "Poset":
        """Build from a binary order predicate, validating the axioms."""
        labels = list(labels)
        down = [sum(1 << i for i, a in enumerate(labels) if leq(a, b)) for b in labels]
        return cls._from_rows(labels, down)

    @classmethod
    def from_vectors(cls, vectors: Sequence[Sequence]) -> "Poset":
        """The componentwise order on equal-length vectors, validated like
        any other poset; the vectors themselves are the labels.

        Per coordinate, the vectors holding at most each value form a
        bitset, and a vector's down-set is the intersection of its "at most"
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
        search over the lower covers, :func:`_closing_order`, gives both the
        closure order and that witness.
        """
        labels = list(labels)
        n = len(labels)
        pred: list[list[int]] = [[] for _ in range(n)]
        for u, v in _index_pairs(covers, n):
            if u != v:
                pred[v].append(u)
        order, cycle = _closing_order(pred)
        if cycle is not None:
            raise _antisymmetry_error(labels, *cycle)
        # a fallback extension renumbers the pairs themselves, closed again
        return cls._from_rows(
            labels, _closure(pred, order), lambda _, extension: _closed_along(pred, extension)
        )

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    def leq(self, i: int, j: int) -> bool:
        return bool(self._down[j] >> i & 1)

    def closure_mismatch(self, pairs: Iterable) -> tuple[tuple | None, tuple | None]:
        """The least of ``pairs``, (lower, upper) element indices, with
        distinct ends that is not a strict relation, and the least cover
        missing from them: ``(None, None)`` exactly when the reflexive-
        transitive closure of the pairs is this order, which is decided
        without closing them.  A pair that is not two indices in range
        raises what :meth:`from_covers` raises for it."""
        got = set(_index_pairs(pairs, self.n))
        down = self._down  # a pair (u, u) is never stray: bit u of row u is set
        stray = min(
            ((u, v) for u, v in got.difference(self._cover_pairs) if not down[v] >> u & 1),
            default=None,
        )
        return stray, next((pair for pair in self._cover_pairs if pair not in got), None)

    def relabeled(self, labels: Sequence) -> "Poset":
        """The same order over new labels, one per element; the covers, the
        extension and whichever rows are built are shared, since they are
        never mutated."""
        labels = list(labels)
        if len(labels) != self.n:
            raise PosetError(f"{len(labels)} labels for {self.n} elements")
        p = Poset.__new__(Poset)
        p.labels, p._cover_lists, p._extension = labels, self._cover_lists, self._extension
        for rows in ("_down", "_up"):
            if rows in vars(self):
                setattr(p, rows, vars(self)[rows])
        return p

    @cached_property
    def leq_matrix(self):
        """Read-only dense numpy view of the order, for tests and oracles."""
        return _bool_rows(self._down, self.n).T

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
        covers down the poset's extension.  Read only by the isomorphism
        search, and by a dual as its down rows."""
        ups, _ = self._cover_lists
        return _closure(ups, reversed(self._extension))

    @cached_property
    def _down(self) -> list[int]:
        """Down-set rows (bit j of row i iff j <= i), closed over the lower
        covers up the poset's extension.  Preset wherever the rows are the
        input, so only a dual builds them."""
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
        Since b <= b, the members strictly below b are its hits in the mask
        but its own bit; only if some member has one is the first a named."""
        mask = 0
        for m in members:  # OR, so a repeated member counts once
            mask |= 1 << m
        down = self._down
        below = reduce(or_, (down[b] & mask ^ 1 << b for b in members), 0)
        if not below:
            return None
        a = next(a for a in members if below >> a & 1)
        return a, next(b for b in members if b != a and down[b] >> a & 1)

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

    def level_map(self, mode: str = "lowest") -> LevelAssignment:
        """The levels of one of :class:`LevelAssignment`'s modes.

        An element lies on a maximum chain iff its longest chains down and
        up add up to the longest chain; the shifted map raises every other
        element by one.
        """
        low, up = self._level_arrays
        if mode == "lowest":
            return LevelAssignment(tuple(low), "lowest")
        if mode == "shifted":
            top = max(low)
            levels = tuple(lv if lv + u == top else lv + 1 for lv, u in zip(low, up))
            return LevelAssignment(levels, "shifted")
        raise ValueError(f"unknown level mode {mode!r}")

    def leveled_elements(self) -> list[int]:
        """The elements on a chain of globally maximal length, ascending:
        those whose longest chains down and up add up to the longest chain,
        read off the level arrays with no row."""
        low, up = self._level_arrays
        top = max(low)
        return [v for v in range(self.n) if low[v] + up[v] == top]

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
        return Poset._from_rows([self.labels[i] for i in idx], _selected(self._down, idx))


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
