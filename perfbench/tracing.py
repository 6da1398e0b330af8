"""Per-layer tracing that the benchmark installs at run time from its own files.

Wrappers replace the library's callables where they are looked up: a
module-level function is rebound in every ``tamari`` module that imported it
by name (``from .gk import gk_partition`` copies it into ``cli``, ``theorems``
and the package), and methods, cached properties and classmethods are
replaced on their class.  ``uninstall`` puts every original back, so an
untraced pass runs the unmodified library.

Each wrapped call made while an op runs becomes a span (name, start, end,
parent span, exception raised, op); spans stay in memory and the runner
writes them out at the end.  Counts are taken at the same boundaries from
arguments and results, so no per-arc or per-element call is wrapped: arcs
are read as ``len(net.to) // 2`` the first time a network runs Dijkstra.
Per-element helpers (``format_vector``, ``entry_sum``, ``is_type_b``,
``leq_componentwise``, ``Poset.leq`` ...) stay unwrapped; their time is
their caller's self time.
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref
from collections import Counter
from functools import cached_property

import tamari
import tamari.cli
import tamari.elements
import tamari.flow
import tamari.gk
import tamari.io
import tamari.lattices
import tamari.poset
import tamari.theorems

MODULES = (
    tamari,
    tamari.elements,
    tamari.lattices,
    tamari.poset,
    tamari.flow,
    tamari.gk,
    tamari.theorems,
    tamari.io,
    tamari.cli,
)

# (layer, owner, attribute); the span is named "<layer>.<attribute>".
TARGETS = (
    ("elements", tamari.elements, "enumerate_type_a"),
    ("elements", tamari.elements, "enumerate_type_b"),
    ("lattices", tamari.lattices, "tamari_poset"),
    ("poset", tamari.poset, "_validate_order"),
    ("poset", tamari.poset, "_two_step"),
    ("poset", tamari.poset, "find_isomorphism"),
    ("poset", tamari.poset.Poset, "__init__"),
    ("poset", tamari.poset.Poset, "from_covers"),
    ("poset", tamari.poset.Poset, "cover_matrix"),
    ("poset", tamari.poset.Poset, "_level_arrays"),
    ("poset", tamari.poset.LevelAssignment, "fibers"),
    ("flow", tamari.flow.MinCostFlow, "cheapest_path"),
    ("gk", tamari.gk, "gk_partition"),
    ("gk", tamari.gk, "chain_union_sizes"),
    ("gk", tamari.gk, "max_chain_union"),
    ("gk", tamari.gk, "max_antichain_union"),
    ("theorems", tamari.theorems, "verify_claims"),
    ("theorems", tamari.theorems, "verify_level_sums"),
    ("theorems", tamari.theorems, "verify_lambda2"),
    ("theorems", tamari.theorems, "verify_structure"),
    ("theorems", tamari.theorems, "first_chain"),
    ("theorems", tamari.theorems, "second_chain"),
    ("theorems", tamari.theorems, "shifted_level_map"),
    ("theorems", tamari.theorems, "is_lattice"),
    ("io", tamari.io, "elements_document"),
    ("io", tamari.io, "poset_document"),
    ("io", tamari.io, "dumps_document"),
    ("io", tamari.io, "dumps_report"),
    ("io", tamari.io, "poset_to_dot"),
    ("io", tamari.io, "document_to_poset"),
    ("cli", tamari.cli, "main"),
)

# metric -> span names whose time it sums (a span nested in another span of
# the same set is not counted twice)
INCLUSIVE = {
    "lattices.tamari_poset_s": {"lattices.tamari_poset"},
    "elements.enumerate_s": {"elements.enumerate_type_a", "elements.enumerate_type_b"},
    "poset.validate_s": {"poset._validate_order"},
    "poset.cover_matrix_s": {"poset.cover_matrix"},
    "poset.from_covers_s": {"poset.from_covers"},
    "poset.levels_s": {"poset._level_arrays"},
    "poset.fibers_s": {"poset.fibers"},
    "poset.isomorphism_s": {"poset.find_isomorphism"},
    "flow.dijkstra_s": {"flow.cheapest_path"},
    "gk.antichain_s": {"gk.max_antichain_union"},
    "theorems.lemma1_s": {"theorems.verify_level_sums"},
    "theorems.thm1_s": {"theorems.verify_lambda2"},
    "theorems.remarks_s": {"theorems.verify_structure"},
    "theorems.chains_s": {"theorems.first_chain", "theorems.second_chain"},
    "theorems.shifted_levels_s": {"theorems.shifted_level_map"},
    "theorems.is_lattice_s": {"theorems.is_lattice"},
    "io.read_s": {"io.document_to_poset"},
    "io.write_s": {
        "io.elements_document",
        "io.poset_document",
        "io.dumps_document",
        "io.dumps_report",
        "io.poset_to_dot",
    },
}

# metric -> layer whose spans' self time it sums
SELF = {"gk.self_s": "gk", "cli.self_s": "cli"}


def _count_elements(counts, args, result):
    counts["elements.count"] += len(result)


def _count_poset(counts, args, result):
    counts["poset.dense_bytes"] += args[0].n ** 2  # the bool order matrix


def _count_two_step(counts, args, result):
    n = args[0].shape[0]
    counts["poset.matmuls"] += 1
    counts["poset.dense_bytes"] += 9 * n * n  # two float32 operands + bool result


def _count_covers(counts, args, result):
    counts["poset.covers"] += int(result.sum())


def _count_parts(counts, args, result):
    counts["gk.parts"] += len(result.parts)
    counts["gk.distinct_parts"] += len(set(result.parts))


def _count_bytes_out(counts, args, result):
    counts["io.bytes_out"] += len(result)


HOOKS = {
    "elements.enumerate_type_a": _count_elements,
    "elements.enumerate_type_b": _count_elements,
    "poset.__init__": _count_poset,
    "poset._two_step": _count_two_step,
    "poset.cover_matrix": _count_covers,
    "gk.gk_partition": _count_parts,
    "io.dumps_document": _count_bytes_out,
    "io.dumps_report": _count_bytes_out,
    "io.poset_to_dot": _count_bytes_out,
}

NAME, START, END, PARENT, ERROR, OP = range(6)


class Tracer:
    """Spans and counts for the ops run while ``op`` is set."""

    def __init__(self):
        self.op: str | None = None
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._networks: weakref.WeakSet = weakref.WeakSet()
        self._undo: list[tuple] = []

    def take(self) -> tuple[list[list], Counter]:
        """The spans and counts recorded since the last call, then a reset."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        if name == "flow.cheapest_path":
            hook = self._count_dijkstra

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:  # recorded, then re-raised
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def _count_dijkstra(self, counts, args, result):
        net = args[0]
        counts["flow.dijkstra_passes"] += 1
        if net not in self._networks:
            self._networks.add(net)
            counts["flow.arcs"] += len(net.to) // 2

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, owner, attr in TARGETS:
            name = f"{layer}.{attr}"
            raw = owner.__dict__[attr]
            if isinstance(raw, cached_property):
                new = cached_property(self._wrap(name, raw.func))
                new.__set_name__(owner, attr)
                self._replace(owner, attr, new)
            elif isinstance(raw, classmethod):
                self._replace(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            elif isinstance(owner, type):
                self._replace(owner, attr, self._wrap(name, raw))
            else:
                wrapper = self._wrap(name, raw)
                for module in MODULES:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._replace(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


# -- per-pass metrics ----------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _has_ancestor(spans: list[list], index: int, names: set[str]) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def pass_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    out: dict[str, float] = {}
    for metric, names in INCLUSIVE.items():
        out[metric] = sum(
            s[END] - s[START]
            for i, s in enumerate(spans)
            if s[NAME] in names and not _has_ancestor(spans, i, names)
        )
    own = self_times(spans)
    for metric, layer in SELF.items():
        out[metric] = sum(t for s, t in zip(spans, own) if s[NAME].startswith(layer + "."))
    for name in (
        "elements.count",
        "poset.covers",
        "poset.matmuls",
        "flow.dijkstra_passes",
        "flow.arcs",
        "gk.parts",
        "gk.distinct_parts",
        "io.bytes_in",
        "io.bytes_out",
        "lattices.cache_hits",
        "lattices.cache_misses",
    ):
        out[name] = counts[name]
    out["poset.dense_mb"] = counts["poset.dense_bytes"] / 1e6
    partition = {"gk.gk_partition"}
    passes = sum(
        1
        for i, s in enumerate(spans)
        if s[NAME] == "flow.cheapest_path" and _has_ancestor(spans, i, partition)
    )
    distinct = counts["gk.distinct_parts"]
    out["gk.passes_per_distinct_part"] = passes / distinct if distinct else 0.0
    out["gk.antichain_timeouts"] = sum(
        1 for s in spans if s[NAME] == "gk.max_antichain_union" and s[ERROR] == "OpTimeout"
    )
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
