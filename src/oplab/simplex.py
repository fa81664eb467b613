"""Labeled total orders, the path-graph functor, and approximation checks.

A morphism between labeled chains is stored through its monotone,
label-preserving index map running in the simplex direction, so the
source of the stored arrow is typically the longer chain.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import (
    InvalidBound,
    InvalidCandidate,
    InvalidLabels,
    NotActive,
    NotAPath,
    SourceTargetMismatch,
    ValidationError,
)
from .graphs import (
    Graph,
    GraphMorphism,
    LabelSet,
    MapClass,
    OperadTag,
    STAR,
    _require_enumerable,
    _unchecked_morphism,
    classify_graph_morphism,
    compose_graph_morphisms,
    enumerate_graph_morphisms,
    enumerate_objects,
    path_graph,
    underlying_pointed,
    validate_morphism,
)
from .report import Check, ValidationReport, read_once


class DeltaClass(Enum):
    INERT = "inert"
    TOTALLY_INERT = "totally-inert"
    ACTIVE_BASE = "active-base"
    OTHER = "other"


@dataclass(frozen=True)
class LabeledSimplex:
    labels: LabelSet
    chain: tuple[str, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "chain", tuple(self.chain))
        except TypeError:
            raise InvalidLabels(f"chain {self.chain!r} is not iterable") from None
        if self.labels.pointed:
            raise InvalidLabels("chains are labeled in an unpointed set")
        if not self.chain:
            raise InvalidLabels("a chain must be nonempty")
        for x in self.chain:
            if x not in self.labels.labels:
                raise InvalidLabels(f"chain entry {x!r} not in {self.labels.labels}")

    def dim(self) -> int:
        return len(self.chain) - 1

    # Built once per chain: the path image, the left-module paths at levels
    # 0 and 1 over the pointed labels, and the structural inert between.

    @read_once
    def _cut(self) -> Graph:
        return path_graph(self.labels, self.chain)

    @read_once
    def _lcuts(self) -> tuple[Graph, Graph]:
        pointed = LabelSet(self.labels.labels, True)
        return path_graph(pointed, self.chain + (STAR,)), path_graph(pointed, self.chain)

    @read_once
    def _structural_inert(self) -> GraphMorphism:
        a = self.dim()
        fibers = tuple((j,) for j in range(a))
        return _unchecked_morphism(*self._lcuts, tuple(range(a)) + (None,), fibers)


@dataclass(frozen=True)
class DeltaOpMorphism:
    """A monotone, label-preserving index map from target positions to
    source positions.

    The public constructor checks the map's length, range, monotonicity
    and labels; composites and enumerated hom-sets skip these checks.
    """

    source: LabeledSimplex
    target: LabeledSimplex
    underlying: tuple[int, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "underlying", tuple(self.underlying))
        except TypeError:
            raise ValidationError(f"index map {self.underlying!r} is not iterable") from None
        g = self.underlying
        a, b = self.source.dim(), self.target.dim()
        if len(g) != b + 1:
            raise ValidationError(f"index map has {len(g)} entries, expected {b + 1}")
        for v in g:
            if v not in range(a + 1):
                raise ValidationError(f"index {v!r} outside [0,{a}]")
        if any(g[i] > g[i + 1] for i in range(b)):
            raise ValidationError(f"index map {g} is not monotone")
        for i, v in enumerate(g):
            if self.source.chain[v] != self.target.chain[i]:
                raise ValidationError(
                    f"labels differ at {i}: {self.source.chain[v]!r} vs {self.target.chain[i]!r}"
                )

    @read_once
    def _cut(self) -> GraphMorphism:
        """The path image (see cut_morphism), built once per morphism."""
        edge_map, fibers = _cut_indices(self.underlying, self.source.dim())
        src, tgt = cut_object(self.source), cut_object(self.target)
        return _unchecked_morphism(src, tgt, edge_map, fibers)


def _unchecked_delta(source, target, underlying) -> DeltaOpMorphism:
    obj = object.__new__(DeltaOpMorphism)
    object.__setattr__(obj, "__dict__", {"source": source, "target": target, "underlying": underlying})
    return obj


def identity_delta(x: LabeledSimplex) -> DeltaOpMorphism:
    return DeltaOpMorphism(x, x, tuple(range(x.dim() + 1)))


def compose_delta(m: DeltaOpMorphism, m2: DeltaOpMorphism) -> DeltaOpMorphism:
    """m then m2; index maps compose the other way around."""
    if m.target != m2.source:
        raise SourceTargetMismatch("chain morphisms do not chain")
    return _unchecked_delta(m.source, m2.target, tuple([m.underlying[v] for v in m2.underlying]))


def cut_object(x: LabeledSimplex) -> Graph:
    """The path graph of consecutive pairs of the chain."""
    return x._cut


def cut_morphism(m: DeltaOpMorphism) -> GraphMorphism:
    """Path-graph image of a chain morphism.

    Source edge j lands on target edge i exactly when g(i-1) < j <= g(i)
    (edges 1-based); the fiber over target edge i is the increasing run
    g(i-1)+1 .. g(i), and source edges outside every run are deleted.
    """
    return m._cut


def _cut_indices(g: tuple[int, ...], a: int) -> tuple[tuple, tuple]:
    """Edge map and fibers of the path image of index map g out of a chain
    with a edges (see cut_morphism)."""
    edge_map = [None] * a
    fibers = []
    for i in range(len(g) - 1):
        lo, hi = g[i], g[i + 1]
        fibers.append(tuple(range(lo, hi)))
        for j in range(lo, hi):
            edge_map[j] = i
    return tuple(edge_map), tuple(fibers)


def classify_delta(m: DeltaOpMorphism) -> DeltaClass:
    """Strongest of: totally inert, inert (convex run), active base, other."""
    g = m.underlying
    a, b = m.source.dim(), m.target.dim()
    inert = all(g[i] == g[0] + i for i in range(b + 1))
    if inert and g[b] == a:
        return DeltaClass.TOTALLY_INERT
    if inert:
        return DeltaClass.INERT
    if g[0] == 0 and g[b] == a:
        return DeltaClass.ACTIVE_BASE
    return DeltaClass.OTHER


def lcut(x: LabeledSimplex, level: int) -> Graph:
    """Left-module path of a chain: level 1 is the plain path, level 0
    appends a final edge into the basepoint."""
    if level not in (0, 1):
        raise InvalidLabels("level must be 0 or 1")
    return x._lcuts[level]


def structural_inert(x: LabeledSimplex) -> GraphMorphism:
    """Delete the final basepoint edge: level 0 to level 1."""
    return x._structural_inert


def lcut_morphism(m: DeltaOpMorphism, i: int, j: int) -> GraphMorphism:
    """Image of (m, i->j) on left-module paths, for i,j in {0,1}, i <= j.

    At level 0 the index map is extended by sending the added top element
    to the added top element, so the fiber over the basepoint edge is the
    tail run followed by the source basepoint edge.
    """
    if (i, j) not in ((0, 0), (0, 1), (1, 1)):
        raise InvalidLabels(f"no arrow {i}->{j} in the interval")
    g = m.underlying
    a, b = m.source.dim(), m.target.dim()
    src = lcut(m.source, i)
    tgt = lcut(m.target, j)
    base = m._cut
    if (i, j) == (1, 1):
        return _unchecked_morphism(src, tgt, base.edge_map, base.fibers)
    if (i, j) == (0, 1):
        return _unchecked_morphism(src, tgt, base.edge_map + (None,), base.fibers)
    edge_map = list(base.edge_map) + [None] * (a + 1 - len(base.edge_map))
    tail = tuple(range(g[b], a)) + (a,)
    for e in tail:
        edge_map[e] = b
    return _unchecked_morphism(src, tgt, tuple(edge_map), base.fibers + (tail,))


def cartesian_lift(
    target: LabeledSimplex, phi: GraphMorphism
) -> tuple[LabeledSimplex, DeltaOpMorphism]:
    """Rebuild the chain morphism under an active morphism into a path.

    The source chain is read off by concatenating the fibers in target
    order; the index map records where each fiber ends. When the source
    edges are already in path order the returned morphism cuts back to
    phi on the nose; otherwise it cuts to phi transported along the
    path-ordering permutation of the source edges (checked internally).
    """
    if phi.target != cut_object(target):
        raise SourceTargetMismatch("morphism does not land in the path of the chain")
    if classify_graph_morphism(phi) not in (MapClass.ACTIVE, MapClass.BOTH):
        raise NotActive("cartesian lifts exist over active morphisms only")
    order = [e for fib in phi.fibers for e in fib]
    src_edges = phi.source.edges
    chain = [target.chain[0]]
    for e in order:
        s, t = src_edges[e]
        if s != chain[-1]:
            raise NotAPath(f"fiber concatenation breaks at edge {e}")
        chain.append(t)
    if chain[-1] != target.chain[-1]:
        raise NotAPath("path does not end at the final label")
    indices = tuple(itertools.accumulate(map(len, phi.fibers), initial=0))
    source = LabeledSimplex(target.labels, tuple(chain))
    lift = DeltaOpMorphism(source, target, indices)
    # the lift's path image as index data: no path graph of the new chain
    edge_map, fibers = _cut_indices(lift.underlying, source.dim())
    position = {}
    for k, e in enumerate(order):
        position.setdefault(e, k)  # an edge listed twice keeps its first place
    transported_map = tuple(edge_map[position[e]] if e in position else None for e in range(len(src_edges)))
    transported_fibers = tuple(tuple(order[k] for k in fib) for fib in fibers)
    if transported_map != phi.edge_map or transported_fibers != phi.fibers:
        raise NotAPath("reconstructed morphism disagrees with the input")
    return source, lift


# ---------------------------------------------------------------------------
# Enumeration and the approximation suite.


def enumerate_simplices(labels: LabelSet, max_len: int) -> list[LabeledSimplex]:
    out = []
    for n in range(1, max_len + 1):
        for chain in itertools.product(labels.labels, repeat=n):
            out.append(LabeledSimplex(labels, chain))
    return out


def enumerate_delta_morphisms(a: LabeledSimplex, b: LabeledSimplex) -> list[DeltaOpMorphism]:
    """All chain morphisms a -> b (monotone label-preserving index maps), in
    lexicographic order of their index maps.

    The maps grow one target position at a time, each taking a position of
    a that carries the target's label there and is at least the previous
    index, so no complete map is built only to be discarded.
    """
    positions = {}
    for v, x in enumerate(a.chain):
        positions.setdefault(x, []).append(v)
    maps = [()]
    for x in b.chain:
        allowed = positions.get(x, ())
        maps = [g + (v,) for g in maps for v in allowed if not g or v >= g[-1]]
    return [_unchecked_delta(a, b, g) for g in maps]


def _check_inert_chain_lifts(chains) -> Check:
    for x in chains.values():
        n = x.dim()
        for i in range(1, n + 1):
            sub = chains[x.chain[i - 1 : i + 1]]
            lift = DeltaOpMorphism(x, sub, (i - 1, i))
            if classify_delta(lift) not in (DeltaClass.INERT, DeltaClass.TOTALLY_INERT):
                return Check("inert-chain-lifts", False, f"{x.chain} at {i}")
            cut = cut_morphism(lift)
            rep = validate_morphism(cut)
            if not rep.ok:
                return Check("inert-chain-lifts", False, f"{x.chain} at {i}: {rep.first_failure()}")
            want = tuple(1 if j == i else 0 for j in range(1, n + 1))
            got = underlying_pointed(cut).images
            if got != want:
                return Check("inert-chain-lifts", False, f"{x.chain} at {i} lies over {got}")
    return Check("inert-chain-lifts", True, f"{len(chains)} chains")


def _actives_into(graph_pool, y: LabeledSimplex) -> list[GraphMorphism]:
    # sources smaller than the target still matter: fibers may be empty
    tgt = cut_object(y)
    return [
        phi
        for g in graph_pool
        for phi in enumerate_graph_morphisms(g, tgt)
        if classify_graph_morphism(phi) in (MapClass.ACTIVE, MapClass.BOTH)
    ]


def _orbit_size(labels: LabelSet, entries: tuple[str, ...]) -> int:
    """The size of the orbit of `entries` under label permutations if
    `entries` is the orbit's first member in enumeration order, else 0.

    The first member's k-th new label is the k-th of `labels`."""
    first = {}
    for x in entries:
        if labels.labels[first.setdefault(x, len(first))] != x:
            return 0
    return math.perm(len(labels.labels), len(first))


def _check_cartesian_lifts(labels, chains, homs, graph_pool) -> Check:
    lifts = 0
    cuts: dict[tuple, list[GraphMorphism]] = {}
    universal_ok: set[DeltaOpMorphism] = set()
    for y in chains.values():
        orbit = _orbit_size(labels, y.chain)
        if not orbit:
            continue
        try:
            actives = _actives_into(graph_pool, y)
        except InvalidCandidate as err:
            return Check("cartesian-lifts", False, f"{y.chain}: {err}")
        for phi in actives:
            # rebased onto the suite's chain, which owns its path graph;
            # cartesian_lift has validated it
            _, fresh = cartesian_lift(y, phi)
            source = chains[fresh.source.chain]
            lift = _unchecked_delta(source, y, fresh.underlying)
            order = [e for fib in phi.fibers for e in fib]
            if order == sorted(order):
                if cut_morphism(lift) != phi:
                    return Check(
                        "cartesian-lifts", False, f"{y.chain}: lift does not cut back to the input"
                    )
            # the universal property depends on the lift alone
            if lift not in universal_ok:
                universal = _check_universal(chains, y, source, lift, homs, cuts)
                if universal is not None:
                    return universal
                universal_ok.add(lift)
            lifts += orbit
    return Check("cartesian-lifts", True, f"{lifts} active morphisms lifted")


def _check_universal(chains, y, xbar, lift, homs, cuts) -> Check | None:
    """Every factorization through the path image extends uniquely to chains.

    For each chain z, each h0: z -> y and each psi: cut(z) -> cut(xbar)
    with psi;cut(lift) = cut(h0), exactly one h: z -> xbar must satisfy
    h;lift = h0 and cut(h) = psi. Pairs are tested h0-major, psi in
    enumeration order, and the first failing pair is the witness. Chain
    hom-sets come from the suite's table `homs`; path-image hom-sets are
    enumerated into `cuts` on first use. Both are keyed by entries.

    Within one z, every psi and every cut(h) runs cut(z) -> cut(xbar),
    every h0 and every h;lift runs z -> y, and every cut(h0) and every
    psi;cut(lift) runs cut(z) -> cut(y), so the keys hold index data
    only. The psis are grouped by the (edge map, fibers) of
    psi;cut(lift), and each h is counted under (index map of h;lift, edge
    map and fibers of cut(h)). Each h0 then finds exactly the psis the
    scan would accept, in the same order, and each count is the number of
    matches the scan would find for (h0, psi).
    """
    cut_lift = cut_morphism(lift)
    for z in chains.values():
        key = z.chain, xbar.chain
        try:
            if key not in cuts:
                cuts[key] = enumerate_graph_morphisms(cut_object(z), cut_object(xbar))
        except InvalidCandidate as err:
            return Check("cartesian-universal", False, f"{z.chain} -> {xbar.chain}: {err}")
        by_composite: dict[tuple, list[tuple]] = {}
        for psi in cuts[key]:
            composite = compose_graph_morphisms(psi, cut_lift)
            by_composite.setdefault((composite.edge_map, composite.fibers), []).append(
                (psi.edge_map, psi.fibers)
            )
        factorizations: Counter[tuple] = Counter()
        for h in homs[key]:
            through = compose_delta(h, lift)
            cut_h = cut_morphism(h)
            factorizations[through.underlying, cut_h.edge_map, cut_h.fibers] += 1
        for h0 in homs[z.chain, y.chain]:
            cut_h0 = cut_morphism(h0)
            for edge_map, fibers in by_composite.get((cut_h0.edge_map, cut_h0.fibers), ()):
                count = factorizations[h0.underlying, edge_map, fibers]
                if count != 1:
                    return Check(
                        "cartesian-universal",
                        False,
                        f"{z.chain} -> {y.chain}: {count} factorizations through {xbar.chain}",
                    )
    return None


def _check_strongness(labels: LabelSet, chains) -> Check:
    # the chains of one and two entries at every bound, the suite's own
    # where it has them
    simplices = [chains.get(x.chain, x) for x in enumerate_simplices(labels, 2)]
    points = [x for x in simplices if x.dim() == 0]
    if len(points) != len(labels.labels):
        return Check("strongness", False, f"{len(points)} one-element chains for {len(labels.labels)} labels")
    two = {cut_object(x).edges[0] for x in simplices if x.dim() == 1}
    want = {(a, b) for a in labels.labels for b in labels.labels}
    if two != want:
        return Check("strongness", False, "two-element chains do not cover the single-edge graphs")
    return Check("strongness", True, f"{len(points)} labels; {len(two)} single-edge graphs")


def _check_lcut_marking(labels, homs) -> Check:
    arrows = ((0, 0), (0, 1), (1, 1))
    checked = 0
    for (a, b), ms in homs.items():
        # the two chains are renamed together
        orbit = _orbit_size(labels, a + b)
        if not orbit:
            continue
        for m in ms:
            cls = classify_delta(m)
            inert = cls in (DeltaClass.INERT, DeltaClass.TOTALLY_INERT)
            lcuts = {}
            for i, j in arrows:
                lm = lcuts[i, j] = lcut_morphism(m, i, j)
                rep = validate_morphism(lm)
                if not rep.ok:
                    return Check("lcut-marking", False, f"{a}->{b} at {i}->{j}: {rep.first_failure()}")
                expected = inert and (cls is DeltaClass.TOTALLY_INERT or j == 1)
                got = classify_graph_morphism(lm) in (MapClass.INERT, MapClass.BOTH)
                if got != expected:
                    return Check(
                        "lcut-marking",
                        False,
                        f"{a}->{b} at {i}->{j}: inert={got}, marking says {expected}",
                    )
            via_target = compose_graph_morphisms(lcuts[0, 0], structural_inert(m.target))
            via_source = compose_graph_morphisms(structural_inert(m.source), lcuts[1, 1])
            if lcuts[0, 1] != via_target or lcuts[0, 1] != via_source:
                return Check("lcut-marking", False, f"{a}->{b}: naturality square broken")
            checked += orbit
    return Check("lcut-marking", True, f"{checked} chain morphisms")


def check_approximation(labels: LabelSet, max_dim: int) -> ValidationReport:
    """Exhaustive approximation suite at the given chain bound.

    Verifies inert lifts of the one-edge projections, existence and
    universality of the lift over every active morphism into a path
    image, the fiber condition over single labels, and the left-module
    marking rules including the naturality square. A graph the enumerator
    builds and validate_morphism rejects fails the sub-check that asked for
    it.

    Renaming labels is a symmetry of every sub-check, so cartesian-lifts
    decides one chain y per orbit of label permutations and lcut-marking
    one pair of chains (renamed together) per orbit: the orbit's first
    member in enumeration order, counted with the orbit's size. Counts
    and first failures are those of the walk over every chain. Edge
    orders are no symmetry of chains: abacb and acbab have the same edges
    and lie in different orbits.

    A negative bound raises InvalidBound, and a graph pool past the object
    bounds of oplab.graphs raises SizeBoundExceeded, before any is built.
    """
    if max_dim < 0:
        raise InvalidBound(f"max_dim must be at least 0, got {max_dim}")
    # the graph pool: |labels|^2 edge kinds, at most max_dim edges; the
    # chains number fewer than |labels| more than it
    _require_enumerable(len(labels.labels) ** 2, max_dim)
    # the chains keyed by their entries, and every hom-set between them
    chains = {x.chain: x for x in enumerate_simplices(labels, max_dim + 1)}
    homs = {(a, b): enumerate_delta_morphisms(x, y) for a, x in chains.items() for b, y in chains.items()}
    pool = enumerate_objects(OperadTag.ASSOC, labels, max_dim)
    checks = (
        _check_inert_chain_lifts(chains),
        _check_cartesian_lifts(labels, chains, homs, pool),
        _check_strongness(labels, chains),
        _check_lcut_marking(labels, homs),
    )
    return ValidationReport(checks)
