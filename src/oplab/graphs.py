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
from functools import lru_cache

from .errors import (
    IndexOutOfRange,
    InvalidBound,
    InvalidCandidate,
    InvalidLabels,
    LabelSetMismatch,
    NotInert,
    NotLeftModular,
    NotRightModular,
    SizeBoundExceeded,
    SourceTargetMismatch,
)
from .pointed import MapClass, PointedMap
from .report import Check, ValidationReport, failing, passing, read_once

STAR = "*"

# A suite refuses, before enumerating, more objects than this or objects
# with more edges than this.
OBJECT_BOUND = 10**4
OBJECT_EDGE_BOUND = 5


def _unchecked_graph(labels, edges) -> Graph:
    """A Graph of these fields without __post_init__, like
    _unchecked_morphism and simplex._unchecked_delta: only for fields
    valid by construction and in the form __post_init__ stores."""
    obj = object.__new__(Graph)
    object.__setattr__(obj, "__dict__", {"labels": labels, "edges": edges})
    return obj


def _unchecked_morphism(source, target, edge_map, fibers) -> GraphMorphism:
    obj = object.__new__(GraphMorphism)
    object.__setattr__(obj, "__dict__", {"source": source, "target": target, "edge_map": edge_map, "fibers": fibers})
    return obj


@dataclass(frozen=True)
class LabelSet:
    labels: tuple[str, ...]
    pointed: bool = False

    def __post_init__(self):
        try:
            object.__setattr__(self, "labels", tuple(self.labels))
        except TypeError:
            raise InvalidLabels(f"labels {self.labels!r} are not iterable") from None
        for name in self.labels:
            if not name or not isinstance(name, str):
                raise InvalidLabels(f"label {name!r} must be a non-empty string")
            if name == STAR:
                raise InvalidLabels(f"{STAR!r} is reserved for the basepoint")
        if len(set(self.labels)) != len(self.labels):
            raise InvalidLabels(f"duplicate labels in {self.labels}")

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
        try:
            object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        except TypeError:
            raise InvalidLabels(f"edges {self.edges!r} are not pairs") from None
        for edge in self.edges:
            if len(edge) != 2 or not self.labels.has_vertex(edge[0]) or not self.labels.has_vertex(edge[1]):
                raise InvalidLabels(f"edge {edge} must join two vertices of {self.labels.vertices()}")

    # The field hash, computed once: the splice memo looks graphs up per pair.
    def __hash__(self):
        return self._hash

    @read_once
    def _hash(self) -> int:
        return hash((self.labels, self.edges))

    # What `_splice` reads of a graph on either side of a pairing: whether
    # the graph is modular on that side, and per edge whether it touches
    # the basepoint there and the edge with both endpoints tagged.

    @read_once
    def _as_left(self) -> tuple[bool, tuple[tuple[bool, tuple[str, str]], ...]]:
        return is_left_modular(self), tuple(
            (t == STAR, (left_label(s), left_label(t))) for s, t in self.edges
        )

    @read_once
    def _as_right(self) -> tuple[bool, tuple[tuple[bool, tuple[str, str]], ...]]:
        return is_right_modular(self), tuple(
            (s == STAR, (right_label(s), right_label(t))) for s, t in self.edges
        )

    @read_once
    def _splices(self) -> dict:
        """pairing_inert's splices of this graph, on the left, with each
        right graph it was paired with: (spliced graph, positions)."""
        return {}

    @read_once
    def _chain_pools(self) -> dict:
        """_morphism_candidates' chain pools out of this graph, by target edge."""
        return {}


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
    pointed = base + (STAR,)
    src = pointed if tag in (OperadTag.ASSOC_POINTED, OperadTag.RM) else base
    tgt = pointed if tag in (OperadTag.ASSOC_POINTED, OperadTag.LM) else base
    return tuple((s, t) for s in src for t in tgt)


def tag_labels(tag: OperadTag, labels: LabelSet) -> LabelSet:
    return LabelSet(labels.labels, tag is not OperadTag.ASSOC)


@dataclass(frozen=True)
class GraphMorphism:
    """Edge map and ordered fibers between two graphs.

    The public constructor checks every index range, and the io loaders
    also run validate_morphism. Composites, pairings, path images and
    enumeration candidates of valid morphisms skip both.
    """

    source: Graph
    target: Graph
    edge_map: tuple[int | None, ...]
    fibers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "edge_map", tuple(self.edge_map))
            object.__setattr__(self, "fibers", tuple(tuple(f) for f in self.fibers))
        except TypeError:
            raise IndexOutOfRange("edge_map or fibers is not iterable") from None
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

    @read_once
    def _class(self) -> MapClass:
        """Inert when every fiber is one edge, active when no edge is deleted."""
        inert = all(map((1).__eq__, map(len, self.fibers)))
        active = None not in self.edge_map
        if inert and active:
            return MapClass.BOTH
        if inert:
            return MapClass.INERT
        if active:
            return MapClass.ACTIVE
        return MapClass.NEITHER

    @read_once
    def _keeps_edges(self) -> bool:
        """Valid and inert (class INERT or BOTH): each target edge's fiber is
        one identical source edge, which the edge map alone sends to it."""
        return validate_morphism(self).ok and self._class in (MapClass.INERT, MapClass.BOTH)


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
    for e in order:
        a, b = src_edges[e]
        if a != s:
            return False
        s = b
    return s == t


_MORPHISM_OK = passing("morphism")


def validate_morphism(m: GraphMorphism) -> ValidationReport:
    """Check the label sets, then the structural and path conditions of
    _validate_indices; stop at the first violation."""
    if m.source.labels is not m.target.labels and m.source.labels != m.target.labels:
        return failing("label-sets", f"{m.source.labels} vs {m.target.labels}")
    return _validate_indices(m.source.edges, m.target.edges, m.edge_map, m.fibers)


def _validate_indices(src_edges, tgt_edges, edge_map, fibers) -> ValidationReport:
    """The fiber-partition and path conditions of the morphism with this
    edge map and these fibers between graphs with these edges; stop at the
    first violation.

    One pass, partition failures before path failures. An edge listed in
    two fibers is mapped elsewhere in the second, so repeats are sought
    per fiber, and a mapped edge is unlisted iff fewer are listed. Every
    passing morphism gets the same immutable report.
    """
    listed = 0
    bad = None  # the first fiber that is no path
    for i, fib in enumerate(fibers):
        seen = set()
        for e in fib:
            if edge_map[e] != i:
                return failing("fiber-partition", f"edge {e} listed under target {i} but mapped to {edge_map[e]}")
            if e in seen:
                return failing("fiber-partition", f"edge {e} listed twice")
            seen.add(e)
        listed += len(fib)
        if bad is None:
            edge = tgt_edges[i]
            if not (src_edges[fib[0]] == edge if len(fib) == 1 else _chain_ok(src_edges, fib, *edge)):
                bad = i
    if listed != len(edge_map) - edge_map.count(None):
        seen = {e for fib in fibers for e in fib}
        for e, v in enumerate(edge_map):
            if v is not None and e not in seen:
                return failing("fiber-partition", f"edge {e} mapped to {v} but missing from its fiber")
    if bad is None:
        return _MORPHISM_OK
    s, t = tgt_edges[bad]
    if not fibers[bad]:
        return failing("condition-one", f"target edge {bad} ({s},{t}) has empty fiber but is not a loop")
    return failing("condition-two", f"fiber {fibers[bad]} of target edge {bad} is not a path ({s},{t})")


def compose_graph_morphisms(f: GraphMorphism, g: GraphMorphism) -> GraphMorphism:
    """The composite f-then-g.

    The composite fiber over a target edge concatenates f's fibers in g's
    fiber order: outer order from g, inner order from f.
    """
    if f.target != g.source:
        raise SourceTargetMismatch("morphisms do not chain")
    edge_map = tuple([None if v is None else g.edge_map[v] for v in f.edge_map])
    fibers = tuple([tuple([e for mid in fib for e in f.fibers[mid]]) for fib in g.fibers])
    return _unchecked_morphism(f.source, g.target, edge_map, fibers)


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
    """The morphism's class, decided once per morphism object."""
    return m._class


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
    edge_map = tuple(None if v is None else k - 1 - v for v in reversed(m.edge_map))
    fibers = tuple(tuple(n - 1 - e for e in reversed(fib)) for fib in reversed(m.fibers))
    return GraphMorphism(reverse_graph(m.source), reverse_graph(m.target), edge_map, fibers)


def iso_graphs(a: Graph, b: Graph) -> bool:
    """Equality up to a permutation of the edge list."""
    return a.labels == b.labels and sorted(a.edges) == sorted(b.edges)


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


def _splice(g0: Graph, g1: Graph, labels: LabelSet) -> tuple[Graph, tuple[int | None, ...]]:
    """The pairing of g0 and g1, labeled by labels (their pairing_labels),
    and the position in it of each edge pair: the pair (i0, i1) sits at
    index i0 * len(g1.edges) + i1, None when the pairing drops it."""
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
    return _unchecked_graph(labels, tuple(edges)), tuple(positions)


def pairing(g0: Graph, g1: Graph) -> Graph:
    """Splice a left-modular and a right-modular graph through the basepoint.

    Edges are the pairs (e0, e1) in which at least one side touches the
    basepoint; a pair keeps the endpoints of its non-basepoint side, and a
    basepoint-to-basepoint pair runs from the source of e0 to the target
    of e1. Pairs come in g0-major positional order.
    """
    return _splice(g0, g1, pairing_labels(g0.labels, g1.labels))[0]


def pairing_inert(m0: GraphMorphism, m1: GraphMorphism) -> GraphMorphism:
    """Pair two valid inert morphisms edge-pair-wise; the result is one too.

    A valid inert keeps its labels and each fiber is one edge equal to its
    image (GraphMorphism._keeps_edges), so target pair (j0, j1) is spliced
    iff source pair (fib0[j0], fib1[j1]) is, with the same edge: one pass
    reads the target splice off the source splice, which is memoized on
    m0's source graph, keyed by m1's. Any other morphism raises NotInert.
    """
    if not m0._keeps_edges:
        raise NotInert("left morphism is not a valid inert")
    if not m1._keeps_edges:
        raise NotInert("right morphism is not a valid inert")
    splices = m0.source._splices
    spliced = splices.get(m1.source)
    if spliced is None:
        labels = pairing_labels(m0.source.labels, m1.source.labels)
        spliced = splices[m1.source] = _splice(m0.source, m1.source, labels)
    source, src_pos = spliced
    src_edges = source.edges
    width = len(m1.source.edges)
    edge_map: list[int | None] = [None] * len(src_edges)
    fibers = []
    edges = []
    for (i0,) in m0.fibers:
        row = i0 * width
        for (i1,) in m1.fibers:
            k = src_pos[row + i1]
            if k is not None:
                edge_map[k] = len(fibers)
                fibers.append((k,))
                edges.append(src_edges[k])
    target = _unchecked_graph(source.labels, tuple(edges))
    return _unchecked_morphism(source, target, tuple(edge_map), tuple(fibers))


# ---------------------------------------------------------------------------
# Enumeration.


def _chain_pool(src_edges, s: str, t: str) -> dict[int, list[tuple[int, ...]]]:
    """The orders of each subset of source edges that form a path from s to t.

    Keys are bitmasks of source edges; each value lists, in lexicographic
    order, the orders of that subset that _chain_ok accepts. Subsets without
    such an order are absent.
    """
    n = len(src_edges)
    pool = {}
    for mask in range(1 << n):
        fiber = tuple(e for e in range(n) if mask >> e & 1)
        orders = [o for o in itertools.permutations(fiber) if _chain_ok(src_edges, o, s, t)]
        if orders:
            pool[mask] = orders
    return pool


def _extend_picks(picks, pool: dict, factors: dict | None = None) -> list:
    """Extend each partial pick by one target edge.

    A pick is (used, edge_map, orders, product): the mask of source edges
    picked so far, the target edge each source edge goes to (None while
    unpicked), the path orders of each picked mask, and the product of the
    factors at the picked masks. Each pick is extended by every mask of the
    edge's chain pool disjoint from its used mask, in pool order, and sends
    that mask's edges to the new target edge; the product gains
    factors[mask] when factors is given and is carried unchanged otherwise
    (the candidate search roots it at None and never reads it).
    """
    out = []
    for used, edge_map, orders, product in picks:
        target = len(orders)
        for mask, mask_orders in pool.items():
            if not mask & used:
                images = list(edge_map)
                # any path order of a mask lists exactly its edges
                for e in mask_orders[0]:
                    images[e] = target
                grown = product if factors is None else product * factors[mask]
                out.append((used | mask, tuple(images), orders + (mask_orders,), grown))
    return out


def _morphism_candidates(src_edges, tgt_edges, pools: dict):
    """Yield every (edge_map, fibers) whose fibers are disjoint paths.

    Each target edge picks a mask of source edges from its chain pool, the
    masks pairwise disjoint; the source edges no mask holds are deleted.
    Each pick yields every combination of its path orders. The candidates
    are exactly the morphisms whose every fiber passes _chain_ok; callers
    validate them whole. A missing pool is built into `pools`, by target edge.
    """
    picks = [(0, (None,) * len(src_edges), (), None)]
    for edge in tgt_edges:
        if edge not in pools:
            pools[edge] = _chain_pool(src_edges, *edge)
        picks = _extend_picks(picks, pools[edge])
    for _, edge_map, orders, _ in picks:
        for fibers in itertools.product(*orders):
            yield edge_map, fibers


def enumerate_graph_morphisms(src: Graph, tgt: Graph) -> list[GraphMorphism]:
    """All valid morphisms src -> tgt, in a fixed deterministic order.

    A graph of more than OBJECT_EDGE_BOUND edges, the bound every suite
    enforces on its objects, raises SizeBoundExceeded before any candidate
    is built. Candidates come from the chain-pool search of
    _morphism_candidates over src's pools; each must pass _validate_indices.
    """
    edges = max(len(src.edges), len(tgt.edges))
    if edges > OBJECT_EDGE_BOUND:
        raise SizeBoundExceeded(f"{edges} edges per object exceeds bound {OBJECT_EDGE_BOUND}")
    if src.labels != tgt.labels:
        raise LabelSetMismatch(f"{src.labels} vs {tgt.labels}")
    out = []
    for edge_map, fibers in _morphism_candidates(src.edges, tgt.edges, src._chain_pools):
        rep = _validate_indices(src.edges, tgt.edges, edge_map, fibers)
        if not rep.ok:
            failure = rep.first_failure()
            raise InvalidCandidate(
                f"{src.edges} -> {tgt.edges}: candidate {edge_map} with fibers {fibers} "
                f"rejected by {failure.name}: {failure.witness}"
            )
        out.append(_unchecked_morphism(src, tgt, edge_map, fibers))
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
            target = _unchecked_graph(g.labels, tuple(g.edges[e] for e in perm))
            pos = {e: j for j, e in enumerate(perm)}
            edge_map = tuple(pos.get(e) for e in range(n))
            fibers = tuple((e,) for e in perm)
            out.append(_unchecked_morphism(g, target, edge_map, fibers))
    return out


def _require_enumerable(kinds: int, max_edges: int) -> None:
    """Refuse the graphs of at most max_edges edges over kinds edge kinds
    when they have more than OBJECT_EDGE_BOUND edges or number more than
    OBJECT_BOUND. Only the counts are computed, never the graphs."""
    if max_edges > OBJECT_EDGE_BOUND:
        raise SizeBoundExceeded(f"{max_edges} edges per object exceeds bound {OBJECT_EDGE_BOUND}")
    count = sum(kinds**n for n in range(max_edges + 1))
    if count > OBJECT_BOUND:
        raise SizeBoundExceeded(f"{count} objects of at most {max_edges} edges exceeds bound {OBJECT_BOUND}")


def _ordered_tuples(alphabet, max_edges: int):
    """Every edge tuple of at most max_edges edges, size by size in
    itertools.product order: objects order."""
    for n in range(max_edges + 1):
        yield from itertools.product(alphabet, repeat=n)


def enumerate_objects(tag: OperadTag, labels: LabelSet, max_edges: int) -> list[Graph]:
    """All graphs of the operad with at most max_edges edges, in objects order."""
    glabels = tag_labels(tag, labels)
    return [Graph(glabels, edges) for edges in _ordered_tuples(allowed_edges(tag, labels), max_edges)]


def _sorted_tuples(alphabet, max_edges: int):
    """Each edge tuple of at most max_edges edges sorted by alphabet rank, in
    combinations order, with its weight n!/prod m_i!: its edge orders."""
    for n in range(max_edges + 1):
        for edges in itertools.combinations_with_replacement(alphabet, n):
            yield edges, math.factorial(n) // math.prod(map(math.factorial, Counter(edges).values()))


# ---------------------------------------------------------------------------
# Operad axiom checking.


def _orbits(tuples, alphabet) -> tuple[list[tuple[tuple, int]], dict]:
    """The orbits of the objects under edge orders and base-label renamings
    (STAR fixed), from the (sorted tuple, weight) pairs of _sorted_tuples.

    Returns each orbit's first tuple with its weights summed, and each
    tuple's weight. Sorting never moves a tuple later in objects order,
    which is combinations order among sorted tuples, so that tuple is the
    orbit's first member in objects order. An orbit is keyed by a canonical
    form: the least sorted rank tuple over the k! renamings of the k base
    labels the tuple uses onto the first k. Renaming a tuple's labels only
    reorders those renamings, so its whole orbit shares the form.
    """
    rank = {ep: r for r, ep in enumerate(alphabet)}
    labels = tuple(dict.fromkeys(v for ep in alphabet for v in ep if v != STAR))
    first = {}
    size = Counter()
    weights = {}
    for key, weight in tuples:
        used = {v for ep in key for v in ep} - {STAR}
        renamings = (dict(zip(used, names)) for names in itertools.permutations(labels[: len(used)]))
        form = min(tuple(sorted(rank[to.get(s, s), to.get(t, t)] for s, t in key)) for to in renamings)
        first.setdefault(form, key)
        size[form] += weight
        weights[key] = weight
    return [(key, size[form]) for form, key in first.items()], weights


def _inert_walk(labels: LabelSet, sources) -> Check:
    """Every inert base map out of <n> has exactly one lift, and it is inert.

    The lifts are those of enumerate_inert_from. Distinct inert maps out of
    <n> number sum_m n!/(n-m)!, so distinct underlying maps in that number
    cover each exactly once.

    Only the sources of _orbits are decided, one per orbit. Permuting a
    source's edges is an isomorphism of objects. It carries the source's
    inert lifts onto the permuted source's, keeps each lift's validity and
    class, and permutes the base maps bijectively, so their count and
    distinctness are the same at every edge order. Renaming the base labels
    keeps each lift's index data, and validation and class only compare
    endpoint names for equality. So the failing objects form whole orbits,
    and the first failing source is the first failing object in objects
    order; its witness is reported as found.
    """
    for edges, _ in sources:
        g = _unchecked_graph(labels, edges)
        n = len(g.edges)
        bases: set[tuple[int, ...]] = set()
        for lift in enumerate_inert_from(g):
            rep = validate_morphism(lift)
            if not rep.ok:
                witness = f"{g.edges} -> {lift.target.edges}: {rep.first_failure()}"
                return Check("inert-lifts", False, witness)
            if classify_graph_morphism(lift) not in (MapClass.INERT, MapClass.BOTH):
                return Check("inert-lifts", False, f"lift {lift.edge_map} at {g.edges} is not inert")
            base = _base_map(lift.edge_map)
            if base in bases:
                return Check("inert-lifts", False, f"two lifts over {base} at {g.edges}")
            bases.add(base)
        want = sum(math.perm(n, m) for m in range(n + 1))
        if len(bases) != want:
            witness = f"{g.edges}: lifts cover {len(bases)} of {want} inert base maps"
            return Check("inert-lifts", False, witness)
    return Check("inert-lifts", True, f"{sum(size for _, size in sources)} objects")


def _check_segal_objects(tuples, kinds: int, max_edges: int) -> Check:
    """No sorted tuple repeats, and those of n edges weigh kinds^n together:
    as many as the n-tuples of single-edge objects."""
    seen = set()
    fibers = Counter()
    for edges, weight in tuples:
        if edges in seen:
            return Check("segal-objects", False, f"sorted tuple {edges} generated twice")
        seen.add(edges)
        fibers[len(edges)] += weight
    for n in range(max_edges + 1):
        if fibers[n] != kinds**n:
            return Check("segal-objects", False, f"fiber over <{n}> has {fibers[n]} objects")
    return Check("segal-objects", True, f"fibers match {kinds}^n for n<={max_edges}")


def _validated_count(src_edges, tgt_edges, edge_map, orders) -> int:
    """How many morphisms with this edge map and these path orders per
    target edge _validate_indices accepts."""
    return sum(
        _validate_indices(src_edges, tgt_edges, edge_map, fibers).ok for fibers in itertools.product(*orders)
    )


def _target_trie(targets) -> dict:
    """The target edge tuples as nested dicts, one level per edge; the node
    at which a target ends holds it under the key None."""
    trie = {}
    for edges in targets:
        node = trie
        for ep in edges:
            node = node.setdefault(ep, {})
        node[None] = edges
    return trie


def _segal_source(src_edges, trie) -> tuple[list, list]:
    """Compare whole-morphism counts with products of single-edge counts
    out of one source, at each target edge tuple of trie (_target_trie).

    A depth-first walk over the trie extends the picks of a target's prefix
    by its last edge. Every candidate of every target is validated whole
    and counted per edge map, that is per pick. A pick's product
    multiplies, over its target edges, the validated count into that single
    edge at the mask it picked; those factors are settled once per edge, on
    its first visit. A single-edge target's whole count is its factor, so
    its candidates are not validated again. A nonzero product needs
    pairwise disjoint masks that each have a path order, so the walk
    reaches its edge map. Returns the targets compared and the (target,
    base map, whole, product) mismatches.
    """
    root = (0, (None,) * len(src_edges), (), 1)
    pools = {}
    factors = {}
    compared = []
    mismatches = []

    def visit(node, picks):
        edges = node.get(None)
        if edges is not None:
            compared.append(edges)
            if len(edges) != 1:
                for _, edge_map, orders, product in picks:
                    whole = _validated_count(src_edges, edges, edge_map, orders)
                    if whole != product:
                        mismatches.append((edges, _base_map(edge_map), whole, product))
        for ep, child in node.items():
            if ep is not None:
                if ep not in factors:
                    pools[ep] = pool = _chain_pool(src_edges, *ep)
                    factors[ep] = {
                        mask: _validated_count(src_edges, (ep,), edge_map, orders)
                        for mask, edge_map, orders, _ in _extend_picks([root], pool)
                    }
                visit(child, _extend_picks(picks, pools[ep], factors[ep]))

    visit(trie, [root])
    return compared, mismatches


def _segal_walk(sources, weights, alphabet, max_edges: int) -> Check:
    """The Segal condition on morphisms (_segal_source), decided at the
    sources of _orbits and the sorted targets that weights counts.

    Permuting a source's or a target's edges carries _validate_indices'
    accepted set onto itself, and so permutes the whole counts and the
    single-edge factors per base map without changing them. Renaming the
    base labels of source and target together keeps the accepted set, as
    _validate_indices only compares endpoint names for equality. So one
    source per orbit and one target per edge order decide every pair, and
    each visited pair counts as the objects in its source's orbit times the
    weight of its target, so the pair count counts every pair of objects
    decided.

    The failing sources form whole orbits, so the first one in objects
    order is the first member of the first failing orbit. That one source
    is walked again over every ordered target (_ordered_tuples), and the
    mismatch is reported at its first failing target in objects order, at
    the least base map.
    """
    trie = _target_trie(weights)
    pairs = 0
    for src, size in sources:
        compared, mismatches = _segal_source(src, trie)
        if mismatches:
            position = {edges: k for k, edges in enumerate(_ordered_tuples(alphabet, max_edges))}
            _, mismatches = _segal_source(src, _target_trie(position))
            _, tgt, base, whole, product = min((position[edges], edges, *rest) for edges, *rest in mismatches)
            return Check("segal-morphisms", False, f"{src} -> {tgt} over {base}: {whole} whole vs product {product}")
        pairs += size * sum(map(weights.__getitem__, compared))
    return Check("segal-morphisms", True, f"{pairs} source/target pairs")


def check_operad_axioms(tag: OperadTag, labels: LabelSet, max_edges: int) -> ValidationReport:
    """Exhaustively verify the three operad conditions at the given bound.

    (1) every inert base map admits an inert lift at every object;
    (2) the fiber over <n> bijects with n-tuples of single-edge objects;
    (3) counts of validated whole morphisms over a fixed base map equal the
        product of the validated counts into each single-edge restriction of
        the target; one search and one validator decide both sides.

    The objects come as sorted edge tuples, each weighted by its edge orders
    (_sorted_tuples), and (2) checks those. (1) and (3) decide one source
    per orbit (_orbits), and (3) compares each with every sorted target;
    the first failure and the counts are those of the walk over every
    ordered object (_inert_walk, _segal_walk).

    A negative bound raises InvalidBound, and objects past OBJECT_BOUND or
    OBJECT_EDGE_BOUND raise SizeBoundExceeded, before any is generated.
    """
    if max_edges < 0:
        raise InvalidBound(f"max_edges must be at least 0, got {max_edges}")
    alphabet = allowed_edges(tag, labels)
    _require_enumerable(len(alphabet), max_edges)
    tuples = list(_sorted_tuples(alphabet, max_edges))
    sources, weights = _orbits(tuples, alphabet)
    checks = (
        _inert_walk(tag_labels(tag, labels), sources),
        _check_segal_objects(tuples, len(alphabet), max_edges),
        _segal_walk(sources, weights, alphabet, max_edges),
    )
    return ValidationReport(checks)
