import itertools
from pathlib import Path

import pytest

from oplab.enriched import (
    EnrichedCategory,
    EnrichedFunctor,
    enumerate_categories,
    evaluate_morphism_inequality,
    evaluate_on_graph,
    is_enriched_functor,
    opposite,
    trivial_category,
    validate_category,
)
from oplab.errors import BaseMismatch, LabelMismatch, ObjectMismatch, UnknownObject
from oplab.graphs import (
    Graph,
    add_loop,
    contract_path,
    delete_edge,
    empty_graph,
    enumerate_graph_morphisms,
    labelset,
    path_graph,
    reverse_graph,
)
from oplab.io import load_category, load_module, load_quantale
from oplab.quantale import (
    LEFT,
    RIGHT,
    ModuleLattice,
    Quantale,
    boolean_downset_module,
    boolean_quantale,
    diamond_lattice,
    left_self_module,
    lukasiewicz,
    module_over_trivial,
    noncommutative_chain4,
    one_element_module,
    reverse_quantale,
    right_self_module,
    transpose_module,
    trivial_quantale,
)
from oplab.simplex import cut_morphism, enumerate_delta_morphisms, enumerate_simplices

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
S = labelset("x", "y")
BOOL = boolean_quantale()
LUK3 = lukasiewicz(3)

PREORDER = EnrichedCategory(BOOL, S, ((1, 1), (0, 1)))
DISCRETE = EnrichedCategory(BOOL, S, ((1, 0), (0, 1)))
METRIC = EnrichedCategory(LUK3, S, ((3, 1), (2, 3)))


def test_validate_preorder():
    assert validate_category(PREORDER).ok


def test_validate_broken_composition():
    T = labelset("x", "y", "z")
    hom = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    rep = validate_category(EnrichedCategory(BOOL, T, hom))
    assert not rep.ok
    assert rep.first_failure().name == "composition-law"


def test_validate_metric_violation():
    # hom(x,y)*hom(y,x) = 1*2 = 0 <= 3 is fine; force a failing triangle
    bad = EnrichedCategory(LUK3, S, ((3, 3), (3, 1)))
    rep = validate_category(bad)
    assert not rep.ok
    assert "hom" in rep.first_failure().witness


def test_unit_law_violation():
    rep = validate_category(EnrichedCategory(BOOL, S, ((0, 0), (0, 1))))
    assert rep.first_failure().name == "unit-law"


def test_enumerate_boolean_two_object_categories():
    cats = enumerate_categories(BOOL, S)
    assert len(cats) == 4
    assert PREORDER in cats and DISCRETE in cats


def test_enumerate_lukasiewicz3_three_object_categories():
    # 4^9 = 262,144 candidate hom tables, within the one table bound
    cats = enumerate_categories(LUK3, labelset("a", "b", "c"))
    assert len(cats) == 1490
    assert all(validate_category(c).ok for c in cats)
    assert len(set(cats)) == len(cats)


def test_opposite_involution_and_validity():
    for c in (PREORDER, DISCRETE, METRIC):
        o = opposite(c)
        assert validate_category(o).ok
        assert opposite(o) == c
    assert opposite(PREORDER).hom == ((1, 0), (1, 1))


# Today's reversal, self modules, transposes and opposites, rebuilt on every
# call: each memoized function must return what these return.


def _reference_reverse_quantale(q):
    k = q.size()
    return Quantale(q.elements, q.leq, tuple(tuple(q.tensor[b][a] for b in range(k)) for a in range(k)), q.unit)


def _reference_left_self_module(q):
    return ModuleLattice(q, LEFT, q.elements, q.leq, q.tensor)


def _reference_right_self_module(q):
    return ModuleLattice(q, RIGHT, q.elements, q.leq, q.tensor)


def _reference_transpose_module(m):
    flipped = RIGHT if m.side == LEFT else LEFT
    if m.side == LEFT:
        action = tuple(tuple(m.action[a][x] for a in range(m.base.size())) for x in range(m.size()))
    else:
        action = tuple(tuple(m.action[x][a] for x in range(m.size())) for a in range(m.base.size()))
    return ModuleLattice(_reference_reverse_quantale(m.base), flipped, m.elements, m.leq, action)


def _reference_opposite(c):
    k = len(c.objects.labels)
    return EnrichedCategory(
        _reference_reverse_quantale(c.base),
        c.objects,
        tuple(tuple(c.hom[j][i] for j in range(k)) for i in range(k)),
    )


def _assert_memo_matches(fn, reference, x):
    out = fn(x)
    assert out == reference(x) and fn(x) is out
    return out


def test_derived_structures_match_reference_and_are_built_once():
    quantales = [boolean_quantale(), lukasiewicz(1), lukasiewicz(2), lukasiewicz(3)]
    quantales += [trivial_quantale(), noncommutative_chain4()]
    quantales += [load_quantale(FIXTURES / "boolean.json"), load_quantale(FIXTURES / "lukasiewicz3.json")]
    modules = [load_module(FIXTURES / "chain3_left_module.json")]
    categories = [load_category(FIXTURES / name) for name in ("codiscrete.json", "preorder.json")]
    for side in (LEFT, RIGHT):
        modules += [boolean_downset_module(3, side), module_over_trivial(*diamond_lattice(), side)]
    for q in quantales:
        r = _assert_memo_matches(reverse_quantale, _reference_reverse_quantale, q)
        assert reverse_quantale(r) == q
        modules.append(_assert_memo_matches(left_self_module, _reference_left_self_module, q))
        modules.append(_assert_memo_matches(right_self_module, _reference_right_self_module, q))
        modules += [one_element_module(q, LEFT), one_element_module(q, RIGHT)]
        categories += [trivial_category(q, S), *enumerate_categories(q, S)]
    for m in modules:
        t = _assert_memo_matches(transpose_module, _reference_transpose_module, m)
        assert t.base is reverse_quantale(m.base)
        assert _assert_memo_matches(transpose_module, _reference_transpose_module, t) == m
    for c in categories:
        o = _assert_memo_matches(opposite, _reference_opposite, c)
        assert o.base is reverse_quantale(c.base)
        assert _assert_memo_matches(opposite, _reference_opposite, o) == c
    assert (len(quantales), len(modules), len(categories)) == (8, 37, 80)


def test_trivial_category():
    t = trivial_category(BOOL, S)
    assert t.hom == ((1, 1), (1, 1))
    assert validate_category(t).ok
    t0 = trivial_category(trivial_quantale(), S)
    assert validate_category(t0).ok
    assert enumerate_categories(trivial_quantale(), S) == [t0]


def test_evaluate_on_graph():
    assert evaluate_on_graph(PREORDER, path_graph(S, ("x", "y"))) == 1
    assert evaluate_on_graph(PREORDER, empty_graph(S)) == BOOL.unit
    two = path_graph(S, ("x", "y", "x"))
    assert evaluate_on_graph(PREORDER, two) == BOOL.mul(1, 0)
    assert evaluate_on_graph(METRIC, path_graph(S, ("x", "y", "x"))) == LUK3.mul(1, 2)
    with pytest.raises(LabelMismatch):
        evaluate_on_graph(PREORDER, path_graph(labelset("x", "y", "z"), ("x", "y")))
    with pytest.raises(UnknownObject):
        PREORDER.obj_index("q")


def test_evaluate_morphism_generators():
    assert evaluate_morphism_inequality(METRIC, contract_path(S, ("x", "y", "x"))).ok
    assert evaluate_morphism_inequality(METRIC, add_loop(S, "x")).ok
    assert evaluate_morphism_inequality(METRIC, delete_edge(S, "x", "y")).ok
    # an invalid table fails on the matching generator
    bad = EnrichedCategory(LUK3, S, ((3, 3), (3, 1)))
    assert not evaluate_morphism_inequality(bad, contract_path(S, ("y", "x", "y"))).ok


def test_evaluate_closure_on_enumerable_morphisms():
    pairs = [(s, t) for s in S.labels for t in S.labels]
    graphs = []
    for n in range(3):
        graphs += [Graph(S, e) for e in itertools.product(pairs, repeat=n)]
    for c in (PREORDER, METRIC):
        for a in graphs:
            for b in graphs:
                for m in enumerate_graph_morphisms(a, b):
                    assert evaluate_morphism_inequality(c, m).ok


def test_a_infinity_soundness():
    simplices = enumerate_simplices(S, 4)
    for c in (PREORDER, DISCRETE, METRIC):
        for a in simplices:
            for b in simplices:
                for m in enumerate_delta_morphisms(a, b):
                    assert evaluate_morphism_inequality(c, cut_morphism(m)).ok


def test_opposite_intertwines_reverse():
    nc = noncommutative_chain4()
    c = EnrichedCategory(nc, S, ((3, 1), (2, 3)))
    assert validate_category(c).ok
    o = opposite(c)
    pairs = [(s, t) for s in S.labels for t in S.labels]
    graphs = [Graph(S, e) for n in range(4) for e in itertools.product(pairs, repeat=n)]
    for g in graphs:
        assert evaluate_on_graph(o, g) == evaluate_on_graph(c, reverse_graph(g))


def test_functor_checks():
    assert is_enriched_functor(EnrichedFunctor(PREORDER, PREORDER)).ok
    assert is_enriched_functor(EnrichedFunctor(DISCRETE, PREORDER)).ok
    rep = is_enriched_functor(EnrichedFunctor(PREORDER, DISCRETE))
    assert not rep.ok
    # over lukasiewicz the unit is the top, so the trivial category is terminal
    assert is_enriched_functor(EnrichedFunctor(METRIC, trivial_category(LUK3, S))).ok
    with pytest.raises(BaseMismatch):
        is_enriched_functor(EnrichedFunctor(PREORDER, METRIC))
    with pytest.raises(ObjectMismatch):
        is_enriched_functor(
            EnrichedFunctor(PREORDER, trivial_category(BOOL, labelset("x", "y", "z")))
        )
