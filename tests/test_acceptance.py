"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines live. Every
check is exact (discrete equality); the only tolerances are the per-
criterion wall-clock budgets, asserted at the end of each test.
"""
import itertools
import time

from oplab.enriched import (
    EnrichedCategory,
    EnrichedFunctor,
    enumerate_categories,
    is_enriched_functor,
    trivial_category,
)
from oplab.graphs import (
    MapClass,
    OperadTag,
    STAR,
    allowed_edges,
    classify_graph_morphism,
    empty_graph,
    enumerate_inert_from,
    enumerate_objects,
    check_operad_axioms,
    iso_graphs,
    labelset,
    left_label,
    pairing,
    pairing_inert,
    pairing_labels,
    path_graph,
    right_label,
    validate_morphism,
)
from oplab.presheaf import (
    check_density,
    check_duality_bijection,
    check_pointwise_limits,
    check_pushforward,
    check_representability,
    enumerate_presheaves,
    ev,
    free_presheaf,
    join_presheaves,
    leq_presheaves,
    rep,
    tensor_action,
)
from oplab.quantale import (
    LEFT,
    ModuleLattice,
    boolean_downset_module,
    boolean_quantale,
    chain_lattice,
    diamond_lattice,
    join as quantale_join,
    left_self_module,
    lukasiewicz,
    module_over_trivial,
    right_self_module,
    trivial_quantale,
    validate_module,
)
from oplab.simplex import (
    cartesian_lift,
    check_approximation,
    cut_morphism,
    enumerate_delta_morphisms,
    enumerate_simplices,
)

BOOL = boolean_quantale()
LUK3 = lukasiewicz(3)
LUK2 = lukasiewicz(2)
S2 = labelset("x", "y")
BOOL_CATS = enumerate_categories(BOOL, S2)
LUK3_CATS = [
    trivial_category(LUK3, S2),
    EnrichedCategory(LUK3, S2, ((3, 1), (2, 3))),
    EnrichedCategory(LUK3, S2, ((3, 0), (3, 3))),
    EnrichedCategory(LUK3, S2, ((3, 2), (2, 3))),
]
FIXTURE_CATS = BOOL_CATS + LUK3_CATS


def _report(num, name, budget, body):
    start = time.monotonic()
    try:
        detail = body()
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL", flush=True)
        raise
    elapsed = time.monotonic() - start
    print(
        f"[acceptance] criterion {num} ({name}): PASS "
        f"[{elapsed:.1f}s / budget {budget}s] {detail}",
        flush=True,
    )
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_1_operad_axioms():
    # (objects, source/target pairs) at <=3 and at <=4 edges over {a,b}
    anchors = {
        OperadTag.ASSOC: ((85, 7225), (341, 116281)),
        OperadTag.LM: ((259, 67081), (1555, 2418025)),
        OperadTag.RM: ((259, 67081), (1555, 2418025)),
    }
    # (bound, objects, source/target pairs) at the largest bound over {a,b}
    # that OBJECT_BOUND admits
    at_bound = {
        OperadTag.ASSOC: (5, 1365, 1863225),
        OperadTag.LM: (5, 9331, 87067561),
        OperadTag.RM: (5, 9331, 87067561),
        OperadTag.ASSOC_POINTED: (4, 7381, 54479161),
    }

    def witnesses(kinds, bound, objects, pairs):
        return [f"{objects} objects", f"fibers match {kinds}^n for n<={bound}", f"{pairs} source/target pairs"]

    def body():
        labels = labelset("a", "b")
        total = 0
        for tag in (OperadTag.ASSOC, OperadTag.LM, OperadTag.RM):
            alphabet = allowed_edges(tag, labels)
            objects = enumerate_objects(tag, labels, 3)
            for n in range(4):
                fiber = [g for g in objects if len(g.edges) == n]
                assert len(fiber) == len(alphabet) ** n
            rep_ = check_operad_axioms(tag, labels, 3)
            assert rep_.ok, (tag, rep_.first_failure())
            assert [c.witness for c in rep_.checks] == witnesses(len(alphabet), 3, *anchors[tag][0])
            total += 1
        at_four = []
        for tag in (OperadTag.ASSOC, OperadTag.LM, OperadTag.RM):
            rep_ = check_operad_axioms(tag, labels, 4)
            assert rep_.ok, (tag, rep_.first_failure())
            kinds = len(allowed_edges(tag, labels))
            assert [c.witness for c in rep_.checks] == witnesses(kinds, 4, *anchors[tag][1])
            at_four.append(f"{tag.value} <=4 edges: {rep_.checks[-1].witness}")
        for tag, (bound, objects, pairs) in at_bound.items():
            rep_ = check_operad_axioms(tag, labels, bound)
            assert rep_.ok, (tag, rep_.first_failure())
            kinds = len(allowed_edges(tag, labels))
            assert [c.witness for c in rep_.checks] == witnesses(kinds, bound, objects, pairs)
        return f"{total} operads at |S|=2, <=3 edges; " + "; ".join(at_four)

    _report(1, "operad axioms", 60, body)


def test_criterion_2_strong_approximation():
    def body():
        lifted = 0
        for names in (("a",), ("a", "b")):
            labels = labelset(*names)
            rep_ = check_approximation(labels, 3)
            assert rep_.ok, rep_.first_failure()
            simplices = enumerate_simplices(labels, 4)
            for a in simplices:
                for b in simplices:
                    for m in enumerate_delta_morphisms(a, b):
                        cm = cut_morphism(m)
                        if classify_graph_morphism(cm) in (MapClass.ACTIVE, MapClass.BOTH):
                            assert cartesian_lift(b, cm) == (a, m)
                            lifted += 1
        larger = {
            (("a",), 4): [
                "5 chains",
                "1609 active morphisms lifted",
                "1 labels; 1 single-edge graphs",
                "456 chain morphisms",
            ],
            (("a", "b"), 4): [
                "62 chains",
                "46738 active morphisms lifted",
                "2 labels; 4 single-edge graphs",
                "10562 chain morphisms",
            ],
            (("a", "b", "c"), 3): [
                "120 chains",
                "7896 active morphisms lifted",
                "3 labels; 9 single-edge graphs",
                "6645 chain morphisms",
            ],
        }
        for (names, max_dim), witnesses in larger.items():
            rep_ = check_approximation(labelset(*names), max_dim)
            assert rep_.ok, rep_.first_failure()
            assert [c.witness for c in rep_.checks] == witnesses
        assert lifted == 387
        return (
            f"{lifted} exact lift round-trips; {{a}} at max_dim 4: 1609 active morphisms lifted; "
            "{a,b} at 4: 46738; {a,b,c} at 3: 7896"
        )

    _report(2, "strong approximation", 30, body)


def _paths(labels, chain, prefix_star=False, suffix_star=False):
    full = ((STAR,) if prefix_star else ()) + tuple(chain) + ((STAR,) if suffix_star else ())
    return path_graph(labels, full)


def test_criterion_3_pairing():
    def body():
        identities = 0
        for s_names in (("a",), ("a", "b")):
            for t_names in (("c",), ("c", "d")):
                sp = labelset(*s_names, pointed=True)
                tp = labelset(*t_names, pointed=True)
                out_labels = pairing_labels(sp, tp)
                for m in range(4):
                    for xs in itertools.product(s_names, repeat=m + 1):
                        for n in range(4):
                            for ys in itertools.product(t_names, repeat=n + 1):
                                plain0 = _paths(sp, xs)
                                star0 = _paths(sp, xs, suffix_star=True)
                                plain1 = _paths(tp, ys)
                                star1 = _paths(tp, ys, prefix_star=True)
                                assert pairing(plain0, plain1) == empty_graph(out_labels)
                                expected = path_graph(out_labels, [right_label(y) for y in ys])
                                assert iso_graphs(pairing(star0, plain1), expected)
                                expected = path_graph(
                                    out_labels,
                                    [left_label(x) for x in xs] + [right_label(y) for y in ys],
                                )
                                assert iso_graphs(pairing(star0, star1), expected)
                                identities += 3
        inert_pairs = 0
        for s_names in (("a",), ("a", "b")):
            for t_names in (("c",), ("c", "d")):
                sp = labelset(*s_names, pointed=True)
                tp = labelset(*t_names, pointed=True)
                lefts = [m for g in enumerate_objects(OperadTag.LM, sp, 2) for m in enumerate_inert_from(g)]
                rights = [m for g in enumerate_objects(OperadTag.RM, tp, 2) for m in enumerate_inert_from(g)]
                for m0 in lefts:
                    for m1 in rights:
                        out = pairing_inert(m0, m1)
                        assert classify_graph_morphism(out) in (MapClass.INERT, MapClass.BOTH)
                        assert validate_morphism(out).ok
                        inert_pairs += 1
        assert (identities, inert_pairs) == (3468, 47524)
        return f"{identities} splice identities, {inert_pairs} inert pairs"

    _report(3, "pairing", 10, body)


def _count(report):
    """The leading number of a suite's one pass witness."""
    assert report.ok, report.first_failure()
    return int(report.checks[0].witness.split()[0])


def test_criterion_4_yoneda():
    def body():
        tuples = sum(_count(check_representability(c)) for c in FIXTURE_CATS)
        assert tuples == 336
        return f"{tuples} biconditional instances, 0 exceptions"

    _report(4, "representability biconditional", 60, body)


def test_criterion_5_pointwise_limits():
    def body():
        families = sum(_count(check_pointwise_limits(c)) for c in FIXTURE_CATS)
        assert families == 6196
        return f"{families} families (joins and meets)"

    _report(5, "pointwise (co)limits", 30, body)


def test_criterion_6_density():
    def body():
        count = sum(_count(check_density(c)) for c in FIXTURE_CATS)
        assert count == 48
        return f"{count} presheaves recovered from representables"

    _report(6, "density", 10, body)


def _diamond_over_boolean():
    names, leq = diamond_lattice()
    return ModuleLattice(BOOL, LEFT, names, leq, ((0, 0, 0, 0), (0, 1, 2, 3)))


def test_criterion_7_trivial_cases():
    def body():
        checked = 0
        object_sets = [labelset(*[f"o{i}" for i in range(k)]) for k in (1, 2, 3)]
        backends = [
            (BOOL, [left_self_module(BOOL), boolean_downset_module(4), _diamond_over_boolean()]),
            (LUK3, [left_self_module(LUK3)]),
            (
                trivial_quantale(),
                [
                    module_over_trivial(*chain_lattice(1)),
                    module_over_trivial(*chain_lattice(2)),
                    module_over_trivial(*chain_lattice(4)),
                    module_over_trivial(*diamond_lattice()),
                ],
            ),
        ]
        for base, modules in backends:
            for objs in object_sets:
                t = trivial_category(base, objs)
                for module in modules:
                    assert validate_module(module).ok
                    assert module.size() <= 4
                    ps = enumerate_presheaves(t, module)
                    assert all(len(set(f.values)) == 1 for f in ps)
                    assert len(ps) == module.size()
                    for x in objs.labels:
                        values = sorted(ev(f, x) for f in ps)
                        assert values == list(range(module.size()))
                        for f in ps:
                            for g in ps:
                                assert leq_presheaves(f, g) == module.le(ev(f, x), ev(g, x))
                    checked += 1
        assert checked == 24
        return f"{checked} (object set, module) pairs; evaluation is an order isomorphism"

    _report(7, "trivial cases", 10, body)


def test_criterion_8_functoriality():
    def body():
        pairs = 0
        for c in BOOL_CATS:
            for d in BOOL_CATS:
                phi = EnrichedFunctor(c, d)
                if is_enriched_functor(phi).ok:
                    rep_ = check_pushforward(phi)
                    assert rep_.ok, rep_.first_failure()
                    pairs += 1
        assert pairs == 9
        return f"{pairs} enriched-functor pairs"

    _report(8, "pushforward/pullback functoriality", 30, body)


def test_criterion_9_duality():
    def body():
        details = []
        for c in BOOL_CATS:
            rep_ = check_duality_bijection(c, right_self_module(BOOL))
            assert rep_.ok, rep_.first_failure()
            details.append(rep_.checks[0].witness)
        luk2_cat = EnrichedCategory(LUK2, S2, ((2, 1), (0, 2)))
        rep_ = check_duality_bijection(luk2_cat, right_self_module(LUK2))
        assert rep_.ok, rep_.first_failure()
        details.append(rep_.checks[0].witness)
        objs = labelset(*[f"o{i}" for i in range(4)])
        discrete = tuple(tuple(BOOL.unit if i == j else 0 for j in range(4)) for i in range(4))
        rep_ = check_duality_bijection(EnrichedCategory(BOOL, objs, discrete), right_self_module(BOOL))
        assert rep_.ok, rep_.first_failure()
        assert rep_.checks[0].witness == "16 copresheaves vs 16 module maps"
        details.append(rep_.checks[0].witness)
        return "; ".join(details)

    _report(9, "presheaf/copresheaf duality", 120, body)


def test_criterion_10_tensor_action():
    def body():
        checked = 0
        for c in FIXTURE_CATS:
            q = c.base
            presheaves = enumerate_presheaves(c)
            for f in presheaves:
                for a in range(q.size()):
                    fa = tensor_action(f, a)
                    for i, x in enumerate(c.objects.labels):
                        assert ev(fa, x) == q.mul(f.values[i], a)
                    for b in range(q.size()):
                        assert tensor_action(fa, b) == tensor_action(f, q.mul(a, b))
                        joined = join_presheaves([tensor_action(f, a), tensor_action(f, b)])
                        assert tensor_action(f, quantale_join(q, (a, b))) == joined
                    checked += 1
            for f in presheaves:
                for g in presheaves:
                    for a in range(q.size()):
                        assert tensor_action(join_presheaves([f, g]), a) == join_presheaves(
                            [tensor_action(f, a), tensor_action(g, a)]
                        )
            for x in c.objects.labels:
                for a in range(q.size()):
                    assert tensor_action(rep(c, x), a) == free_presheaf(c, x, a)
        assert checked == 168
        return f"{checked} (presheaf, scalar) pairs"

    _report(10, "tensor action laws", 10, body)
