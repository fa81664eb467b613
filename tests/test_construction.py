"""Validation at the boundary only.

The public constructors of GraphMorphism and DeltaOpMorphism check every
index range (and, for chains, monotonicity and labels), and those of the
value tables (quantales, modules, categories, label sets, presheaves)
check every name, shape, range and home. The morphisms and
graphs that oplab builds internally from valid ones skip those checks; each
such site is tested here against the public constructor: rebuilt from its
fields, the object must construct, and equal, hash and print the same.
"""
import itertools

import pytest

from oplab import graphs, simplex
from oplab.enriched import EnrichedCategory
from oplab.errors import BaseMismatch, IndexOutOfRange, InvalidLabels, NotInert, UnknownObject, ValidationError
from oplab.graphs import (
    Graph,
    GraphMorphism,
    MapClass,
    STAR,
    OperadTag,
    check_operad_axioms,
    compose_graph_morphisms,
    enumerate_graph_morphisms,
    enumerate_inert_from,
    enumerate_objects,
    identity_morphism,
    labelset,
    pairing_inert,
    pairing_labels,
    path_graph,
    tag_labels,
)
from oplab.presheaf import Copresheaf, Presheaf
from oplab.quantale import (
    LEFT,
    RIGHT,
    ModuleLattice,
    Quantale,
    boolean_quantale,
    chain_lattice,
    left_self_module,
    lukasiewicz,
    right_self_module,
)
from oplab.simplex import (
    DeltaOpMorphism,
    LabeledSimplex,
    check_approximation,
    compose_delta,
    cut_morphism,
    enumerate_delta_morphisms,
    enumerate_simplices,
    lcut_morphism,
    structural_inert,
)
from test_simplex import DEFECTS

S = labelset("a", "b")


# ---------------------------------------------------------------------------
# The boundary: each check of the public constructors raises.


def _graph_morphism(edge_map, fibers):
    src = Graph(S, (("a", "b"), ("b", "a")))
    tgt = Graph(S, (("a", "a"),))
    return GraphMorphism(src, tgt, edge_map, fibers)


@pytest.mark.parametrize(
    "edge_map, fibers, message",
    [
        ((0,), ((0, 1),), "edge_map has 1 entries, expected 2"),
        ((0, 0), ((0, 1), ()), "fibers has 2 entries, expected 1"),
        ((0, 1), ((0, 1),), "edge image 1 outside target"),
        ((0, -1), ((0, 1),), "edge image -1 outside target"),
        ((0, 0), ((0, 2),), "fiber entry 2 outside source"),
        ((0, 0), ((-1, 0),), "fiber entry -1 outside source"),
        (None, (), "edge_map or fibers is not iterable"),
        ((0, 0), (1,), "edge_map or fibers is not iterable"),
        # entries that are no numbers fail the range checks, not compare
        (("x", 0), ((1,),), "edge image 'x' outside target"),
        ((0, 0), (("x", 0),), "fiber entry 'x' outside source"),
    ],
)
def test_graph_morphism_constructor_checks_indices(edge_map, fibers, message):
    with pytest.raises(IndexOutOfRange, match=f"^{message}$"):
        _graph_morphism(edge_map, fibers)


@pytest.mark.parametrize(
    "source, target, underlying, message",
    [
        (("a", "b"), ("a",), (0, 1), "index map has 2 entries, expected 1"),
        (("a", "b"), ("b",), (2,), r"index 2 outside \[0,1\]"),
        (("a", "b"), ("a",), (-1,), r"index -1 outside \[0,1\]"),
        (("a", "a"), ("a", "a"), (1, 0), r"index map \(1, 0\) is not monotone"),
        (("a", "b"), ("a",), (1,), "labels differ at 0: 'b' vs 'a'"),
        (("a",), ("a",), None, "index map None is not iterable"),
        (("a",), ("a",), ("x",), r"index 'x' outside \[0,0\]"),
    ],
)
def test_delta_morphism_constructor_checks_map(source, target, underlying, message):
    x, y = LabeledSimplex(S, source), LabeledSimplex(S, target)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        DeltaOpMorphism(x, y, underlying)


# Each side of every `or` and every bound of a range check in the value-table
# constructors raises on its own, with the rest of the input well formed.
_BOOL = boolean_quantale()
_LEQ2 = ((True, True), (False, True))
_NAMES = "element names must be distinct and nonempty"
_ACTION_SHAPE = "action table has the wrong shape"
_BOOL_TENSOR = ((0, 0), (0, 1))
_LEFT_VALUES = "presheaves take values in a left module"
_RIGHT_VALUES = "copresheaves take values in a right module"
_ELSEWHERE = "module and category live over different quantales"


def _quantale(elements=("0", "1"), leq=_LEQ2, tensor=_BOOL_TENSOR, unit=1):
    return Quantale(elements, leq, tensor, unit)


def _module(side=LEFT, elements=("m0", "m1", "m2"), action=None):
    names, leq = chain_lattice(3)
    if action is None:
        action = ((0, 0, 0), (0, 1, 2)) if side == LEFT else ((0, 0), (0, 1), (0, 2))
    return ModuleLattice(_BOOL, side, elements, leq, action)


def _category(objects=labelset("x", "y"), hom=((1, 1), (0, 1))):
    return EnrichedCategory(_BOOL, objects, hom)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: _quantale(elements=("0", "0")), InvalidLabels, _NAMES),
        (lambda: _quantale(elements=(), leq=(), tensor=(), unit=0), InvalidLabels, _NAMES),
        (lambda: _quantale(leq=_LEQ2[:1]), IndexOutOfRange, "order table has the wrong shape"),
        (lambda: _quantale(leq=(_LEQ2[0], (False,))), IndexOutOfRange, "order table has the wrong shape"),
        (lambda: _quantale(tensor=_BOOL_TENSOR[:1]), IndexOutOfRange, "tensor table has the wrong shape"),
        (lambda: _quantale(tensor=((0, 0), (0,))), IndexOutOfRange, "tensor table has the wrong shape"),
        (lambda: _quantale(tensor=((0, -1), (0, 1))), IndexOutOfRange, "tensor entry -1 out of range"),
        (lambda: _quantale(tensor=((0, 2), (0, 1))), IndexOutOfRange, "tensor entry 2 out of range"),
        (lambda: _quantale(unit=-1), IndexOutOfRange, "unit out of range"),
        (lambda: _quantale(unit=2), IndexOutOfRange, "unit out of range"),
        (lambda: _module(side="middle"), InvalidLabels, "side must be 'left' or 'right'"),
        (lambda: _module(elements=("m0", "m0", "m2")), InvalidLabels, f"module {_NAMES}"),
        (lambda: ModuleLattice(_BOOL, LEFT, (), (), ((), ())), InvalidLabels, f"module {_NAMES}"),
        (lambda: _module(action=((0, 1, 2),)), IndexOutOfRange, _ACTION_SHAPE),
        (lambda: _module(action=((0, 0, 0), (0, 1))), IndexOutOfRange, _ACTION_SHAPE),
        # a right module takes one row per element: the left module's shape is refused
        (lambda: _module(side=RIGHT, action=((0, 0, 0), (0, 1, 2))), IndexOutOfRange, _ACTION_SHAPE),
        (lambda: _module(side=RIGHT, action=((0, 0), (0, 1), (0,))), IndexOutOfRange, _ACTION_SHAPE),
        (lambda: _module(action=((0, 0, -1), (0, 1, 2))), IndexOutOfRange, "action entry -1 out of range"),
        (lambda: _module(action=((0, 0, 0), (0, 1, 3))), IndexOutOfRange, "action entry 3 out of range"),
        (lambda: _category(objects=labelset("x", "y", pointed=True)), InvalidLabels, "object sets are unpointed"),
        (lambda: _category(hom=((1, 1),)), IndexOutOfRange, "hom table has the wrong shape"),
        (lambda: _category(hom=((1, 1), (0,))), IndexOutOfRange, "hom table has the wrong shape"),
        (lambda: _category(hom=((1, -1), (0, 1))), IndexOutOfRange, "hom entry -1 out of range"),
        (lambda: _category(hom=((1, 2), (0, 1))), IndexOutOfRange, "hom entry 2 out of range"),
        (lambda: labelset("a", "a"), InvalidLabels, r"duplicate labels in \('a', 'a'\)"),
        (lambda: labelset("a", ""), InvalidLabels, "label '' must be a non-empty string"),
        (lambda: labelset("a", 1), InvalidLabels, "label 1 must be a non-empty string"),
        (lambda: Presheaf(_category(), right_self_module(_BOOL), (0, 0)), BaseMismatch, _LEFT_VALUES),
        (lambda: Copresheaf(_category(), left_self_module(_BOOL), (0, 0)), BaseMismatch, _RIGHT_VALUES),
        (lambda: Presheaf(_category(), left_self_module(lukasiewicz(2)), (0, 0)), BaseMismatch, _ELSEWHERE),
        (lambda: Presheaf(_category(), left_self_module(_BOOL), (0,)), UnknownObject, "one value per object required"),
    ],
)
def test_value_table_constructor_checks_one_side(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


# ---------------------------------------------------------------------------
# Every unchecked construction equals its public rebuild.


def _rebuilt(x):
    """x rebuilt from its fields through the public constructors."""
    if isinstance(x, Graph):
        return Graph(x.labels, x.edges)
    if isinstance(x, GraphMorphism):
        return GraphMorphism(_rebuilt(x.source), _rebuilt(x.target), x.edge_map, x.fibers)
    return DeltaOpMorphism(x.source, x.target, x.underlying)


def assert_as_public(x):
    fresh = _rebuilt(x)
    assert fresh == x and hash(fresh) == hash(x) and repr(fresh) == repr(x)


def test_composites_on_small_fragment_as_public():
    # the fragment of test_compose_associative_on_small_fragment
    pairs = [(s, t) for s in S.labels for t in S.labels]
    objs = [Graph(S, ())] + [Graph(S, (p,)) for p in pairs]
    objs += [path_graph(S, ("a", "b", "a")), path_graph(S, ("a", "a", "a"))]
    homs = {(a, b): enumerate_graph_morphisms(a, b) for a, b in itertools.product(objs, repeat=2)}
    composites = 0
    for a, b, c in itertools.product(objs, repeat=3):
        for f, g in itertools.product(homs[a, b], homs[b, c]):
            fg = compose_graph_morphisms(f, g)
            assert_as_public(fg)
            composites += 1
            for d in objs:
                for h in homs[c, d]:
                    assert_as_public(compose_graph_morphisms(fg, h))
                    assert_as_public(compose_graph_morphisms(g, h))
                    assert_as_public(compose_graph_morphisms(f, compose_graph_morphisms(g, h)))
    for hom in homs.values():
        for m in hom:
            assert_as_public(m)
    assert composites > 0


@pytest.mark.parametrize("t_names, pairs", [(("c",), 625), (("c", "d"), 4825)])
def test_inert_pairs_as_public(t_names, pairs):
    # criterion 3's inert-pair sweep at |S| = 1
    sp = labelset("a", pointed=True)
    tp = labelset(*t_names, pointed=True)
    lefts = [m for g in enumerate_objects(OperadTag.LM, sp, 2) for m in enumerate_inert_from(g)]
    rights = [m for g in enumerate_objects(OperadTag.RM, tp, 2) for m in enumerate_inert_from(g)]
    for m in lefts + rights:
        assert_as_public(m)
    for m0, m1 in itertools.product(lefts, rights):
        assert_as_public(pairing_inert(m0, m1))
    assert len(lefts) * len(rights) == pairs


def test_inert_pair_with_relabeled_target_as_public():
    # the public constructor does not compare label sets, so a target may
    # carry its own; such a map is no valid inert, and pairing_inert refuses
    # it. Over one label set the same map is valid, and pairs as public
    sp, zp, tp = (labelset(x, pointed=True) for x in ("a", "z", "c"))
    m1 = identity_morphism(Graph(tp, ((STAR, "c"),)))
    relabeled = GraphMorphism(Graph(sp, (("a", STAR),)), Graph(zp, (("z", STAR),)), (0,), ((0,),))
    with pytest.raises(NotInert):
        pairing_inert(relabeled, m1)
    out = pairing_inert(identity_morphism(relabeled.source), m1)
    assert out.source.labels is out.target.labels
    assert out.source.labels == pairing_labels(sp, tp)
    assert out.target.edges == (("a.0", "c.1"),)
    assert_as_public(out)


def test_inert_lifts_of_lm_graphs_as_public():
    objects = enumerate_objects(OperadTag.LM, S, 2)
    lifts = [m for g in objects for m in enumerate_inert_from(g)]
    for m in lifts:
        assert_as_public(m)
    assert len(objects) == 43 and len(lifts) == 1 + 6 * 2 + 36 * 5


def test_chain_constructions_as_public():
    chains = enumerate_simplices(S, 3)
    homs = {(a, b): enumerate_delta_morphisms(a, b) for a, b in itertools.product(chains, repeat=2)}
    for x in chains:
        assert_as_public(structural_inert(x))
    for (a, b), hom in homs.items():
        for m in hom:
            assert_as_public(m)
            assert_as_public(cut_morphism(m))
            for i, j in ((0, 0), (0, 1), (1, 1)):
                assert_as_public(lcut_morphism(m, i, j))
            for c in chains:
                for m2 in homs[b, c]:
                    assert_as_public(compose_delta(m, m2))
    assert len(chains) == 14 and sum(map(len, homs.values())) > len(chains)


@pytest.mark.parametrize("tag, names, max_edges", [(OperadTag.ASSOC, ("a",), 3), (OperadTag.LM, ("a", "b"), 1)])
def test_validated_candidates_as_public(monkeypatch, tag, names, max_edges):
    # the whole and single-edge candidates and the inert lifts that
    # check_operad_axioms validates, as index data: the public constructor
    # takes each one and stores it as given
    validate = graphs._validate_indices
    seen = []

    def recording(*args):
        seen.append(args)
        return validate(*args)

    monkeypatch.setattr(graphs, "_validate_indices", recording)
    assert check_operad_axioms(tag, labelset(*names), max_edges).ok
    labels = tag_labels(tag, labelset(*names))
    for src_edges, tgt_edges, edge_map, fibers in seen:
        m = GraphMorphism(Graph(labels, src_edges), Graph(labels, tgt_edges), edge_map, fibers)
        assert (m.source.edges, m.target.edges, m.edge_map, m.fibers) == (src_edges, tgt_edges, edge_map, fibers)
    assert seen


# ---------------------------------------------------------------------------
# Each morphism is classified once, as a fresh classification would.


def _fresh_class(m: GraphMorphism) -> MapClass:
    inert = all(len(fib) == 1 for fib in m.fibers)
    active = all(v is not None for v in m.edge_map)
    if inert:
        return MapClass.BOTH if active else MapClass.INERT
    return MapClass.ACTIVE if active else MapClass.NEITHER


def assert_classified_as_fresh(m):
    got = graphs.classify_graph_morphism(m)
    assert got is _fresh_class(m) is graphs.classify_graph_morphism(_rebuilt(m))
    assert vars(m)["_class"] is got and graphs.classify_graph_morphism(m) is got


def test_memoized_class_of_inert_lifts():
    for tag, labels in ((OperadTag.LM, S), (OperadTag.RM, S), (OperadTag.ASSOC, S)):
        for g in enumerate_objects(tag, labels, 2):
            for m in enumerate_inert_from(g):
                assert_classified_as_fresh(m)


@pytest.mark.parametrize("defect", [None, *DEFECTS])
def test_memoized_class_under_seeded_defects(monkeypatch, defect):
    if defect is not None:
        DEFECTS[defect][0](monkeypatch)
    # the seeded compose_graph_morphisms is read through simplex's binding
    compose = simplex.compose_graph_morphisms
    classify = simplex.classify_graph_morphism
    built, classified = [], []

    def recording_compose(f, g):
        out = compose(f, g)
        built.append(out)
        return out

    def recording_classify(m):
        classified.append(m)
        return classify(m)

    monkeypatch.setattr(simplex, "compose_graph_morphisms", recording_compose)
    monkeypatch.setattr(simplex, "classify_graph_morphism", recording_classify)
    check_approximation(labelset("a"), 3)
    assert built and classified
    for m in built + classified:
        assert_classified_as_fresh(m)


def test_pairing_labels_looked_up_once_per_inert_pair(monkeypatch):
    lookup = graphs.pairing_labels
    calls = []

    def counting(s, t):
        calls.append((s, t))
        return lookup(s, t)

    monkeypatch.setattr(graphs, "pairing_labels", counting)
    sp = labelset("a", pointed=True)
    tp = labelset("c", pointed=True)
    lefts = [m for g in enumerate_objects(OperadTag.LM, sp, 1) for m in enumerate_inert_from(g)]
    rights = [m for g in enumerate_objects(OperadTag.RM, tp, 1) for m in enumerate_inert_from(g)]
    for m0, m1 in itertools.product(lefts, rights):
        out = pairing_inert(m0, m1)
        assert out.source.labels is out.target.labels
    # at most once per inert pair: once per distinct pair of source graphs,
    # on the miss that splices them; every other pair reads the splice's labels
    source_pairs = {(id(m0.source), id(m1.source)) for m0, m1 in itertools.product(lefts, rights)}
    assert len(lefts) * len(rights) == 25
    assert len(calls) == len(source_pairs) == 9
