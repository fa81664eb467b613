"""Finite labeled directed multigraphs, their morphisms, and operad checks.

A graph is an ordered list of labeled edges; edge identity is positional.
A morphism maps edges to target edges or deletes them, and carries a total
order on each fiber. The order data is primary: two morphisms with the
same edge map but different fiber orders are different morphisms.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from .errors import (
    IndexOutOfRange,
    InvalidBound,
    InvalidLabels,
    LabelSetMismatch,
    MissingLabelImage,
    NotInert,
    NotLeftModular,
    NotRightModular,
    SizeBoundExceeded,
    SourceTargetMismatch,
)
from .pointed import MapClass, PointedMap
from .report import Check, ValidationReport, failing, passing

STAR = "*"

DEFAULT_EDGE_BOUND = 6


@dataclass(frozen=True)
class LabelSet:
    labels: tuple[str, ...]
    pointed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise InvalidLabels(f"duplicate labels in {self.labels}")
        for name in self.labels:
            if not name or not isinstance(name, str):
                raise InvalidLabels(f"label {name!r} must be a non-empty string")
            if name == STAR:
                raise InvalidLabels(f"{STAR!r} is reserved for the basepoint")

    def vertices(self) -> tuple[str, ...]:
        return self.labels + ((STAR,) if self.pointed else ())

    def has_vertex(self, v: str) -> bool:
        return v in self.labels or (self.pointed and v == STAR)


def labelset(*names: str, pointed: bool = False) -> LabelSet:
    return LabelSet(tuple(names), pointed)


@dataclass(frozen=True)
class Graph:
    labels: LabelSet
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        for s, t in self.edges:
            if not self.labels.has_vertex(s) or not self.labels.has_vertex(t):
                raise InvalidLabels(f"edge ({s},{t}) uses vertices outside {self.labels}")

    # What `_splice` reads of a graph on either side of a pairing: whether
    # the graph is modular on that side, and per edge whether it touches
    # the basepoint there and the edge with both endpoints tagged.

    @cached_property
    def _as_left(self) -> tuple[bool, tuple[tuple[bool, tuple[str, str]], ...]]:
        return is_left_modular(self), tuple(
            (t == STAR, (left_label(s), left_label(t))) for s, t in self.edges
        )

    @cached_property
    def _as_right(self) -> tuple[bool, tuple[tuple[bool, tuple[str, str]], ...]]:
        return is_right_modular(self), tuple(
            (s == STAR, (right_label(s), right_label(t))) for s, t in self.edges
        )


def empty_graph(labels: LabelSet) -> Graph:
    return Graph(labels, ())


def path_graph(labels: LabelSet, chain) -> Graph:
    """The path along consecutive vertices of the chain (one vertex: no edges)."""
    chain = tuple(chain)
    if not chain:
        raise InvalidLabels("a path needs at least one vertex")
    return Graph(labels, tuple(zip(chain, chain[1:])))


def is_left_modular(g: Graph) -> bool:
    return all(s != STAR for s, _ in g.edges)


def is_right_modular(g: Graph) -> bool:
    return all(t != STAR for _, t in g.edges)


class OperadTag(Enum):
    ASSOC = "assoc"
    ASSOC_POINTED = "assoc-pointed"
    LM = "lm"
    RM = "rm"


def allowed_edges(tag: OperadTag, labels: LabelSet) -> tuple[tuple[str, str], ...]:
    """Edge alphabet of the operad over the unpointed base labels."""
    base = labels.labels
    star = (STAR,)
    if tag is OperadTag.ASSOC:
        src, tgt = base, base
    elif tag is OperadTag.ASSOC_POINTED:
        src, tgt = base + star, base + star
    elif tag is OperadTag.LM:
        src, tgt = base, base + star
    else:
        src, tgt = base + star, base
    return tuple((s, t) for s in src for t in tgt)


def tag_labels(tag: OperadTag, labels: LabelSet) -> LabelSet:
    if tag is OperadTag.ASSOC:
        return LabelSet(labels.labels, False)
    return LabelSet(labels.labels, True)


@dataclass(frozen=True)
class GraphMorphism:
    source: Graph
    target: Graph
    edge_map: tuple[int | None, ...]
    fibers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "edge_map", tuple(self.edge_map))
        object.__setattr__(self, "fibers", tuple(tuple(f) for f in self.fibers))
        n, m = len(self.source.edges), len(self.target.edges)
        if len(self.edge_map) != n:
            raise IndexOutOfRange(f"edge_map has {len(self.edge_map)} entries, expected {n}")
        if len(self.fibers) != m:
            raise IndexOutOfRange(f"fibers has {len(self.fibers)} entries, expected {m}")
        for v in self.edge_map:
            if v is not None and not 0 <= v < m:
                raise IndexOutOfRange(f"edge image {v} outside target")
        for fib in self.fibers:
            for e in fib:
                if not 0 <= e < n:
                    raise IndexOutOfRange(f"fiber entry {e} outside source")


def identity_morphism(g: Graph) -> GraphMorphism:
    n = len(g.edges)
    return GraphMorphism(g, g, tuple(range(n)), tuple((i,) for i in range(n)))


def _base_map(edge_map) -> tuple[int, ...]:
    """The underlying pointed images: 0 for deletion, i for target edge i-1."""
    return tuple(0 if v is None else v + 1 for v in edge_map)


def underlying_pointed(m: GraphMorphism) -> PointedMap:
    return PointedMap(len(m.source.edges), len(m.target.edges), _base_map(m.edge_map))


def _chain_ok(src_edges, order, s: str, t: str) -> bool:
    """Does the ordered fiber form a path from s to t?"""
    if not order:
        return s == t
    if src_edges[order[0]][0] != s or src_edges[order[-1]][1] != t:
        return False
    for a, b in zip(order, order[1:]):
        if src_edges[a][1] != src_edges[b][0]:
            return False
    return True


_MORPHISM_OK = passing("morphism")


def validate_morphism(m: GraphMorphism) -> ValidationReport:
    """Check the structural and path conditions; stop at the first violation.

    Every passing morphism gets the same immutable report.
    """
    if m.source.labels != m.target.labels:
        return failing("label-sets", f"{m.source.labels} vs {m.target.labels}")
    seen: set[int] = set()
    for i, fib in enumerate(m.fibers):
        for e in fib:
            if m.edge_map[e] != i:
                return failing("fiber-partition", f"edge {e} listed under target {i} but mapped to {m.edge_map[e]}")
            if e in seen:
                return failing("fiber-partition", f"edge {e} listed twice")
            seen.add(e)
    for e, v in enumerate(m.edge_map):
        if v is not None and e not in seen:
            return failing("fiber-partition", f"edge {e} mapped to {v} but missing from its fiber")
    for i, fib in enumerate(m.fibers):
        s, t = m.target.edges[i]
        if not fib:
            if s != t:
                return failing("condition-one", f"target edge {i} ({s},{t}) has empty fiber but is not a loop")
        elif not _chain_ok(m.source.edges, fib, s, t):
            return failing("condition-two", f"fiber {fib} of target edge {i} is not a path ({s},{t})")
    return _MORPHISM_OK


def compose_graph_morphisms(f: GraphMorphism, g: GraphMorphism) -> GraphMorphism:
    """The composite f-then-g.

    The composite fiber over a target edge concatenates f's fibers in g's
    fiber order: outer order from g, inner order from f.
    """
    if f.target != g.source:
        raise SourceTargetMismatch("morphisms do not chain")
    edge_map = tuple(
        None if v is None else g.edge_map[v] for v in f.edge_map
    )
    fibers = tuple(
        tuple(e for mid in g.fibers[i] for e in f.fibers[mid])
        for i in range(len(g.target.edges))
    )
    return GraphMorphism(f.source, g.target, edge_map, fibers)


def tensor_graphs(a: Graph, b: Graph) -> Graph:
    if a.labels != b.labels:
        raise LabelSetMismatch(f"{a.labels} vs {b.labels}")
    return Graph(a.labels, a.edges + b.edges)


def tensor_morphisms(f: GraphMorphism, g: GraphMorphism) -> GraphMorphism:
    source = tensor_graphs(f.source, g.source)
    target = tensor_graphs(f.target, g.target)
    off_s = len(f.source.edges)
    off_t = len(f.target.edges)
    edge_map = f.edge_map + tuple(None if v is None else v + off_t for v in g.edge_map)
    fibers = f.fibers + tuple(tuple(e + off_s for e in fib) for fib in g.fibers)
    return GraphMorphism(source, target, edge_map, fibers)


def classify_graph_morphism(m: GraphMorphism) -> MapClass:
    inert = all(len(fib) == 1 for fib in m.fibers)
    active = all(v is not None for v in m.edge_map)
    if inert and active:
        return MapClass.BOTH
    if inert:
        return MapClass.INERT
    if active:
        return MapClass.ACTIVE
    return MapClass.NEITHER


def factorize_graph_morphism(m: GraphMorphism) -> tuple[GraphMorphism, GraphMorphism]:
    """Split into a deletion (inert) followed by an active morphism.

    The intermediate graph keeps the non-deleted edges in source order.
    """
    kept = [e for e, v in enumerate(m.edge_map) if v is not None]
    rank = {e: k for k, e in enumerate(kept)}
    mid = Graph(m.source.labels, tuple(m.source.edges[e] for e in kept))
    inert = GraphMorphism(
        m.source,
        mid,
        tuple(rank.get(e) for e in range(len(m.source.edges))),
        tuple((e,) for e in kept),
    )
    active = GraphMorphism(
        mid,
        m.target,
        tuple(m.edge_map[e] for e in kept),
        tuple(tuple(rank[e] for e in fib) for fib in m.fibers),
    )
    return inert, active


def delete_edge(labels: LabelSet, x: str, y: str) -> GraphMorphism:
    """Generator (x,y) -> empty."""
    g = path_graph(labels, (x, y))
    return GraphMorphism(g, empty_graph(labels), (None,), ())


def add_loop(labels: LabelSet, x: str) -> GraphMorphism:
    """Generator empty -> (x,x), with the empty fiber over the loop."""
    g = path_graph(labels, (x, x))
    return GraphMorphism(empty_graph(labels), g, (), ((),))


def contract_path(labels: LabelSet, chain) -> GraphMorphism:
    """Generator collapsing the path along the chain to a single edge."""
    chain = tuple(chain)
    if len(chain) < 2:
        raise InvalidLabels("contraction needs a chain of at least two vertices")
    src = path_graph(labels, chain)
    tgt = path_graph(labels, (chain[0], chain[-1]))
    n = len(src.edges)
    return GraphMorphism(src, tgt, (0,) * n, (tuple(range(n)),))


def reverse_graph(g: Graph) -> Graph:
    """Reverse every edge and the edge order, so tensor factors swap."""
    return Graph(g.labels, tuple((t, s) for s, t in reversed(g.edges)))


def reverse_morphism(m: GraphMorphism) -> GraphMorphism:
    n = len(m.source.edges)
    k = len(m.target.edges)
    edge_map = tuple(
        None if m.edge_map[n - 1 - e] is None else k - 1 - m.edge_map[n - 1 - e]
        for e in range(n)
    )
    fibers = tuple(
        tuple(n - 1 - e for e in reversed(m.fibers[k - 1 - i])) for i in range(k)
    )
    return GraphMorphism(reverse_graph(m.source), reverse_graph(m.target), edge_map, fibers)


def relabel_vertex(v: str, mapping: dict[str, str], target: LabelSet) -> str:
    if v in mapping:
        w = mapping[v]
    elif v == STAR and target.pointed:
        w = STAR
    else:
        raise MissingLabelImage(f"no image for {v!r}")
    if not target.has_vertex(w):
        raise MissingLabelImage(f"image {w!r} of {v!r} is not a vertex of the target")
    return w


def relabel_graph(g: Graph, mapping: dict[str, str], target: LabelSet) -> Graph:
    """Push a graph forward along a label function; edge order is unchanged."""
    return Graph(
        target,
        tuple((relabel_vertex(s, mapping, target), relabel_vertex(t, mapping, target)) for s, t in g.edges),
    )


def relabel_morphism(m: GraphMorphism, mapping: dict[str, str], target: LabelSet) -> GraphMorphism:
    return GraphMorphism(
        relabel_graph(m.source, mapping, target),
        relabel_graph(m.target, mapping, target),
        m.edge_map,
        m.fibers,
    )


def iso_graphs(a: Graph, b: Graph) -> bool:
    """Equality up to a permutation of the edge list."""
    return a.labels == b.labels and Counter(a.edges) == Counter(b.edges)


# ---------------------------------------------------------------------------
# Pairing of a left-modular and a right-modular graph.


def left_label(name: str) -> str:
    return name + ".0"


def right_label(name: str) -> str:
    return name + ".1"


@lru_cache(maxsize=256)
def pairing_labels(s: LabelSet, t: LabelSet) -> LabelSet:
    """Disjoint union of the two base label sets, tagged left/right."""
    return LabelSet(
        tuple(left_label(x) for x in s.labels) + tuple(right_label(y) for y in t.labels),
        False,
    )


def codiagonal(s: LabelSet) -> dict[str, str]:
    """Label function merging the two tagged copies of s back onto s."""
    out = {left_label(x): x for x in s.labels}
    out.update({right_label(x): x for x in s.labels})
    return out


def _splice(g0: Graph, g1: Graph) -> tuple[Graph, list[int | None]]:
    """The pairing of g0 and g1, and the position in it of each edge pair:
    the pair (i0, i1) sits at index i0 * len(g1.edges) + i1, None when the
    pairing drops it."""
    left_modular, left = g0._as_left
    if not left_modular:
        raise NotLeftModular("left argument has an edge out of the basepoint")
    right_modular, right = g1._as_right
    if not right_modular:
        raise NotRightModular("right argument has an edge into the basepoint")
    edges = []
    positions: list[int | None] = []
    for touches0, edge0 in left:
        for touches1, edge1 in right:
            if touches0:
                edge = (edge0[0], edge1[1]) if touches1 else edge1
            elif touches1:
                edge = edge0
            else:
                positions.append(None)
                continue
            positions.append(len(edges))
            edges.append(edge)
    return Graph(pairing_labels(g0.labels, g1.labels), tuple(edges)), positions


def pairing(g0: Graph, g1: Graph) -> Graph:
    """Splice a left-modular and a right-modular graph through the basepoint.

    Edges are the pairs (e0, e1) in which at least one side touches the
    basepoint; a pair keeps the endpoints of its non-basepoint side, and a
    basepoint-to-basepoint pair runs from the source of e0 to the target
    of e1. Pairs come in g0-major positional order.
    """
    return _splice(g0, g1)[0]


def pairing_inert(m0: GraphMorphism, m1: GraphMorphism) -> GraphMorphism:
    """Pair two inert morphisms edge-pair-wise; the result is inert."""
    if classify_graph_morphism(m0) not in (MapClass.INERT, MapClass.BOTH):
        raise NotInert("left morphism is not inert")
    if classify_graph_morphism(m1) not in (MapClass.INERT, MapClass.BOTH):
        raise NotInert("right morphism is not inert")
    source, src_pos = _splice(m0.source, m1.source)
    target, tgt_pos = _splice(m0.target, m1.target)
    width, tgt_width = len(m1.source.edges), len(m1.target.edges)
    edge_map: list[int | None] = [None] * len(source.edges)
    fibers: list[tuple[int, ...]] = [()] * len(target.edges)
    for i0, d0 in enumerate(m0.edge_map):
        if d0 is None:
            continue
        for i1, d1 in enumerate(m1.edge_map):
            k = src_pos[i0 * width + i1]
            if k is None or d1 is None:
                continue
            v = tgt_pos[d0 * tgt_width + d1]
            if v is None:
                raise NotInert(
                    f"edge pair ({i0},{i1}) is spliced but its image ({d0},{d1}) is not"
                )
            edge_map[k] = v
            fibers[v] = (k,)
    return GraphMorphism(source, target, tuple(edge_map), tuple(fibers))


# ---------------------------------------------------------------------------
# Enumeration.


def _chain_pool(src_edges, s: str, t: str, pools: dict) -> dict[int, list[tuple[int, ...]]]:
    """The orders of each subset of source edges that form a path from s to t.

    Keys are bitmasks of source edges; each value lists, in lexicographic
    order, the orders of that subset that _chain_ok accepts. Subsets without
    such an order are absent. Memoized in the caller's dict by (source edges,
    endpoints).
    """
    key = (src_edges, s, t)
    pool = pools.get(key)
    if pool is None:
        n = len(src_edges)
        pool = {}
        for mask in range(1 << n):
            fiber = tuple(e for e in range(n) if mask >> e & 1)
            orders = [o for o in itertools.permutations(fiber) if _chain_ok(src_edges, o, s, t)]
            if orders:
                pool[mask] = orders
        pools[key] = pool
    return pool


_ROOT_PICK = (0, (), (), 1)


def _extend_picks(picks, pool: dict, factors: dict | None = None) -> list:
    """Extend each partial pick by one target edge.

    A pick is (used, masks, orders, product): the union of its masks, the
    mask of source edges picked for each target edge so far, the path
    orders of each picked mask, and the product of the factors at the
    picked masks. Each pick is extended by every mask of the edge's chain
    pool disjoint from its used mask, in pool order; the product gains
    factors[mask] when factors is given.
    """
    out = []
    for used, masks, orders, product in picks:
        for mask, mask_orders in pool.items():
            if not mask & used:
                factor = 1 if factors is None else factors[mask]
                out.append((used | mask, masks + (mask,), orders + (mask_orders,), product * factor))
    return out


def _pick_edge_map(n: int, masks) -> tuple[int | None, ...]:
    """Send each of the n source edges to the target edge whose mask holds it."""
    images: list[int | None] = [None] * n
    for i, mask in enumerate(masks):
        for e in range(n):
            if mask >> e & 1:
                images[e] = i
    return tuple(images)


def _morphism_candidates(src_edges, tgt_edges, pools: dict):
    """Yield every (edge_map, fibers) whose fibers are disjoint paths.

    Each target edge picks a mask of source edges from its chain pool, the
    masks pairwise disjoint; the source edges no mask holds are deleted.
    Each pick yields every combination of its path orders. The candidates
    are exactly the morphisms whose every fiber passes _chain_ok; callers
    validate them whole.
    """
    picks = [_ROOT_PICK]
    for s, t in tgt_edges:
        picks = _extend_picks(picks, _chain_pool(src_edges, s, t, pools))
    for _, masks, orders, _ in picks:
        edge_map = _pick_edge_map(len(src_edges), masks)
        for fibers in itertools.product(*orders):
            yield edge_map, fibers


def enumerate_graph_morphisms(
    src: Graph, tgt: Graph, max_total_edges: int | None = None
) -> list[GraphMorphism]:
    """All valid morphisms src -> tgt, in a fixed deterministic order.

    Candidates come from the chain-pool search of _morphism_candidates;
    each one must pass validate_morphism.
    """
    n, m = len(src.edges), len(tgt.edges)
    bound = DEFAULT_EDGE_BOUND if max_total_edges is None else max_total_edges
    if n + m > bound:
        raise SizeBoundExceeded(f"{n}+{m} edges exceeds bound {bound}")
    if src.labels != tgt.labels:
        raise LabelSetMismatch(f"{src.labels} vs {tgt.labels}")
    out = []
    for edge_map, fibers in _morphism_candidates(src.edges, tgt.edges, {}):
        cand = GraphMorphism(src, tgt, edge_map, fibers)
        rep = validate_morphism(cand)
        if not rep.ok:
            raise AssertionError(f"enumerator produced invalid morphism: {rep.first_failure()}")
        out.append(cand)
    out.sort(key=_morphism_sort_key)
    return out


def _morphism_sort_key(m: GraphMorphism):
    return (
        tuple(-1 if v is None else v for v in m.edge_map),
        m.fibers,
    )


def enumerate_inert_from(g: Graph) -> list[GraphMorphism]:
    """All inert morphisms out of g: a kept-edge subset in any target order."""
    n = len(g.edges)
    out = []
    for mask in range(1 << n):
        kept = [e for e in range(n) if mask >> e & 1]
        for perm in itertools.permutations(kept):
            target = Graph(g.labels, tuple(g.edges[e] for e in perm))
            pos = {e: j for j, e in enumerate(perm)}
            edge_map = tuple(pos.get(e) for e in range(n))
            fibers = tuple((e,) for e in perm)
            out.append(GraphMorphism(g, target, edge_map, fibers))
    return out


def enumerate_objects(tag: OperadTag, labels: LabelSet, max_edges: int) -> list[Graph]:
    """All graphs of the operad with at most max_edges edges."""
    alphabet = allowed_edges(tag, labels)
    glabels = tag_labels(tag, labels)
    out = []
    for n in range(max_edges + 1):
        for edges in itertools.product(alphabet, repeat=n):
            out.append(Graph(glabels, edges))
    return out


# ---------------------------------------------------------------------------
# Operad axiom checking.


def _check_inert_lifts(objects: list[Graph]) -> Check:
    """Every inert base map out of <n> has exactly one lift, and it is inert.

    The lifts are those of enumerate_inert_from. Distinct inert maps out of
    <n> number sum_m n!/(n-m)!, so distinct underlying maps in that number
    cover each exactly once.
    """
    for g in objects:
        n = len(g.edges)
        bases: set[PointedMap] = set()
        for lift in enumerate_inert_from(g):
            rep = validate_morphism(lift)
            if not rep.ok:
                witness = f"{g.edges} -> {lift.target.edges}: {rep.first_failure()}"
                return Check("inert-lifts", False, witness)
            if classify_graph_morphism(lift) not in (MapClass.INERT, MapClass.BOTH):
                return Check("inert-lifts", False, f"lift {lift.edge_map} at {g.edges} is not inert")
            base = underlying_pointed(lift)
            if base in bases:
                return Check("inert-lifts", False, f"two lifts over {base.images} at {g.edges}")
            bases.add(base)
        want = sum(math.perm(n, m) for m in range(n + 1))
        if len(bases) != want:
            witness = f"{g.edges}: lifts cover {len(bases)} of {want} inert base maps"
            return Check("inert-lifts", False, witness)
    return Check("inert-lifts", True, f"{len(objects)} objects")


def _check_segal_objects(objects: list[Graph], alphabet, max_edges: int) -> Check:
    for n in range(max_edges + 1):
        fiber = [g for g in objects if len(g.edges) == n]
        if len(fiber) != len(alphabet) ** n:
            return Check("segal-objects", False, f"fiber over <{n}> has {len(fiber)} objects")
        restrictions = set()
        for g in fiber:
            # restriction along each rho^i is the single-edge subgraph at i
            restrictions.add(tuple(Graph(g.labels, (g.edges[i],)) for i in range(n)))
        if len(restrictions) != len(fiber):
            return Check("segal-objects", False, f"<{n}>: restrictions not injective")
    return Check("segal-objects", True, f"fibers match {len(alphabet)}^n for n<={max_edges}")


def _validated_count(src: Graph, tgt: Graph, edge_map, orders) -> int:
    """How many morphisms src -> tgt with this edge map and these path
    orders per target edge validate_morphism accepts."""
    return sum(
        validate_morphism(GraphMorphism(src, tgt, edge_map, fibers)).ok
        for fibers in itertools.product(*orders)
    )


def _check_segal_morphisms(objects: list[Graph], alphabet) -> Check:
    """Whole-morphism counts equal products of single-edge counts per base map.

    For each source, a depth-first walk over the trie of target edge tuples
    extends the picks of a target's prefix by its last edge. Every candidate
    of every target is validated whole and counted per edge map, that is per
    pick. A pick's product multiplies, over its target edges, the validated
    count into that single edge at the mask it picked; those factors are
    settled before the walk. A single-edge target's whole count is its
    factor, so the walk does not validate its candidates again: each is
    validated once per source. A nonzero product needs pairwise
    disjoint masks that each have a path order, so the walk reaches its edge
    map. A mismatch is reported at the first failing target in objects
    order, at its least base map in lexicographic order.
    """
    index = {g.edges: (k, g) for k, g in enumerate(objects)}
    depth = max(len(g.edges) for g in objects)
    pools: dict = {}
    pairs_checked = 0
    for src in objects:
        n = len(src.edges)
        edge_pools = [_chain_pool(src.edges, s, t, pools) for s, t in alphabet]
        factors = []
        if depth:
            for ep, pool in zip(alphabet, edge_pools):
                tgt = index[(ep,)][1]
                factors.append({
                    mask: _validated_count(src, tgt, _pick_edge_map(n, (mask,)), (orders,))
                    for mask, orders in pool.items()
                })
        first = None  # the least (position in objects, base map, whole, product) mismatch

        def visit(edges, picks):
            nonlocal first, pairs_checked
            k, tgt = index[edges]
            if len(edges) != 1:
                for _, masks, orders, product in picks:
                    edge_map = _pick_edge_map(n, masks)
                    whole = _validated_count(src, tgt, edge_map, orders)
                    if whole != product:
                        bad = (k, _base_map(edge_map), whole, product)
                        first = bad if first is None else min(first, bad)
            pairs_checked += 1
            if len(edges) < depth:
                for ep, pool, edge_factors in zip(alphabet, edge_pools, factors):
                    visit(edges + (ep,), _extend_picks(picks, pool, edge_factors))

        visit((), [_ROOT_PICK])
        if first is not None:
            k, base, whole, product = first
            return Check(
                "segal-morphisms",
                False,
                f"{src.edges} -> {objects[k].edges} over {base}: {whole} whole vs product {product}",
            )
    return Check("segal-morphisms", True, f"{pairs_checked} source/target pairs")


def check_operad_axioms(tag: OperadTag, labels: LabelSet, max_edges: int) -> ValidationReport:
    """Exhaustively verify the three operad conditions at the given bound.

    (1) every inert base map admits an inert lift at every object;
    (2) the fiber over <n> bijects with n-tuples of single-edge objects;
    (3) counts of validated whole morphisms over a fixed base map equal the
        product of the validated counts into each single-edge restriction of
        the target; one search and one validator decide both sides.
    """
    if max_edges < 0:
        raise InvalidBound(f"max_edges must be at least 0, got {max_edges}")
    alphabet = allowed_edges(tag, labels)
    objects = enumerate_objects(tag, labels, max_edges)
    checks = (
        _check_inert_lifts(objects),
        _check_segal_objects(objects, alphabet, max_edges),
        _check_segal_morphisms(objects, alphabet),
    )
    return ValidationReport(checks)
