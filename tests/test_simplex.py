import inspect
import itertools
import re
from collections import Counter

import pytest

from oplab import graphs, simplex
from oplab.errors import InvalidLabels, NotActive, NotAPath, SourceTargetMismatch, ValidationError
from oplab.graphs import (
    Graph,
    GraphMorphism,
    MapClass,
    STAR,
    classify_graph_morphism,
    compose_graph_morphisms,
    empty_graph,
    labelset,
    validate_morphism,
)
from oplab.simplex import (
    DeltaClass,
    DeltaOpMorphism,
    LabeledSimplex,
    cartesian_lift,
    check_approximation,
    classify_delta,
    compose_delta,
    cut_morphism,
    cut_object,
    enumerate_delta_morphisms,
    enumerate_simplices,
    identity_delta,
    lcut,
    lcut_morphism,
    structural_inert,
)
from oplab.report import Check, ValidationReport, failing, read_once

S = labelset("a", "b")


def test_simplex_invariants():
    with pytest.raises(InvalidLabels):
        LabeledSimplex(S, ())
    with pytest.raises(InvalidLabels):
        LabeledSimplex(S, ("q",))
    with pytest.raises(InvalidLabels, match="^chain None is not iterable$"):
        LabeledSimplex(labelset("a"), None)
    with pytest.raises(ValidationError):
        DeltaOpMorphism(LabeledSimplex(S, ("a", "b")), LabeledSimplex(S, ("a",)), (1,))
    with pytest.raises(ValidationError):
        DeltaOpMorphism(LabeledSimplex(S, ("a", "b")), LabeledSimplex(S, ("a", "b")), (1, 0))


def test_cut_object():
    assert cut_object(LabeledSimplex(S, ("a", "b", "a"))).edges == (("a", "b"), ("b", "a"))
    assert cut_object(LabeledSimplex(S, ("a",))) == empty_graph(S)
    for x in enumerate_simplices(S, 4):
        assert len(cut_object(x).edges) == len(x.chain) - 1


def test_cut_morphism_contraction():
    m = DeltaOpMorphism(LabeledSimplex(S, ("a", "b", "b")), LabeledSimplex(S, ("a", "b")), (0, 2))
    cm = cut_morphism(m)
    assert cm.fibers == ((0, 1),)
    assert validate_morphism(cm).ok


def test_cut_morphism_identity_and_degeneracy():
    x = LabeledSimplex(S, ("a", "b"))
    assert cut_morphism(identity_delta(x)) == GraphMorphism(
        cut_object(x), cut_object(x), (0,), ((0,),)
    )
    deg = DeltaOpMorphism(LabeledSimplex(S, ("a",)), LabeledSimplex(S, ("a", "a")), (0, 0))
    cm = cut_morphism(deg)
    assert cm.source == empty_graph(S)
    assert cm.fibers == ((),)
    assert validate_morphism(cm).ok


def test_cut_functorial():
    simplices = enumerate_simplices(S, 4)
    for a in simplices:
        for b in simplices:
            for m in enumerate_delta_morphisms(a, b):
                for c in simplices:
                    for m2 in enumerate_delta_morphisms(b, c):
                        assert cut_morphism(compose_delta(m, m2)) == compose_graph_morphisms(
                            cut_morphism(m), cut_morphism(m2)
                        )


def test_compose_delta_mismatch():
    x = LabeledSimplex(S, ("a", "b"))
    y = LabeledSimplex(S, ("b", "b"))
    with pytest.raises(SourceTargetMismatch):
        compose_delta(identity_delta(x), identity_delta(y))


def test_classify_delta():
    big = LabeledSimplex(S, ("a", "b", "a", "b"))
    inert = DeltaOpMorphism(big, LabeledSimplex(S, ("b", "a")), (1, 2))
    assert classify_delta(inert) is DeltaClass.INERT
    totally = DeltaOpMorphism(big, LabeledSimplex(S, ("a", "b")), (2, 3))
    assert classify_delta(totally) is DeltaClass.TOTALLY_INERT
    assert classify_delta(identity_delta(big)) is DeltaClass.TOTALLY_INERT
    collapse = DeltaOpMorphism(LabeledSimplex(S, ("a", "a", "a", "a")), LabeledSimplex(S, ("a", "a")), (0, 3))
    assert classify_delta(collapse) is DeltaClass.ACTIVE_BASE
    neither = DeltaOpMorphism(LabeledSimplex(S, ("a", "a", "a")), LabeledSimplex(S, ("a", "a")), (0, 0))
    assert classify_delta(neither) is DeltaClass.OTHER


def test_lcut_levels():
    x = LabeledSimplex(S, ("a", "b"))
    assert lcut(x, 0).edges == (("a", "b"), ("b", STAR))
    assert lcut(x, 1).edges == (("a", "b"),)
    si = structural_inert(x)
    assert validate_morphism(si).ok
    assert classify_graph_morphism(si) is MapClass.INERT


def test_cut_sends_inert_to_inert():
    simplices = enumerate_simplices(S, 4)
    for a in simplices:
        for b in simplices:
            for m in enumerate_delta_morphisms(a, b):
                cls = classify_delta(m)
                if cls in (DeltaClass.INERT, DeltaClass.TOTALLY_INERT):
                    assert classify_graph_morphism(cut_morphism(m)) in (
                        MapClass.INERT,
                        MapClass.BOTH,
                    )
                if cls is DeltaClass.TOTALLY_INERT:
                    level0 = lcut_morphism(m, 0, 0)
                    assert classify_graph_morphism(level0) in (MapClass.INERT, MapClass.BOTH)


def test_cartesian_lift_examples():
    target = LabeledSimplex(S, ("a", "b"))
    src = Graph(S, (("a", "b"), ("b", "b")))
    phi = GraphMorphism(src, cut_object(target), (0, 0), ((0, 1),))
    source, lift = cartesian_lift(target, phi)
    assert source.chain == ("a", "b", "b")
    assert lift.underlying == (0, 2)
    assert cut_morphism(lift) == phi

    loop = LabeledSimplex(S, ("a", "a"))
    phi2 = GraphMorphism(empty_graph(S), cut_object(loop), (), ((),))
    s2, l2 = cartesian_lift(loop, phi2)
    assert s2.chain == ("a",)
    assert l2.underlying == (0, 0)

    ident = identity_delta(target)
    s3, l3 = cartesian_lift(target, cut_morphism(ident))
    assert (s3, l3) == (target, ident)


def test_cartesian_lift_requires_active():
    target = LabeledSimplex(S, ("a", "b"))
    phi = GraphMorphism(
        Graph(S, (("a", "b"), ("a", "a"))), cut_object(target), (0, None), ((0,),)
    )
    with pytest.raises(NotActive):
        cartesian_lift(target, phi)


def test_cartesian_lift_roundtrip_on_actives():
    simplices = enumerate_simplices(S, 4)
    for a in simplices:
        for b in simplices:
            for m in enumerate_delta_morphisms(a, b):
                cm = cut_morphism(m)
                if classify_graph_morphism(cm) in (MapClass.ACTIVE, MapClass.BOTH):
                    assert cartesian_lift(b, cm) == (a, m)


def test_cartesian_lift_builds_no_path_graph(monkeypatch):
    # the lift is checked against phi on index data; only the target's
    # path graph, built before the call, is read
    target = LabeledSimplex(S, ("a", "b", "a"))
    src = Graph(S, (("b", "a"), ("a", "b"), ("b", "b")))
    phi = GraphMorphism(src, cut_object(target), (1, 0, 0), ((1, 2), (0,)))
    built = []
    monkeypatch.setattr(simplex, "path_graph", lambda *args: built.append(args))
    source, lift = cartesian_lift(target, phi)
    assert (source.chain, lift.underlying, built) == (("a", "b", "b", "a"), (0, 2, 3), [])


def test_cartesian_lift_places_a_repeated_edge_by_its_first_fiber():
    # not a valid morphism (one edge in two fibers), but active and a path;
    # the edge's image must be the first fiber that lists it
    loop = LabeledSimplex(labelset("a"), ("a", "a", "a"))
    src = Graph(labelset("a"), (("a", "a"),))
    first = GraphMorphism(src, cut_object(loop), (0,), ((0,), (0,)))
    assert cartesian_lift(loop, first)[1].underlying == (0, 1, 2)
    with pytest.raises(NotAPath):
        cartesian_lift(loop, GraphMorphism(src, cut_object(loop), (1,), ((0,), (0,))))


def test_cartesian_lift_cross_check_can_fail(monkeypatch):
    # reversing one fiber of the shared cut index data must be caught by the
    # comparison with phi, on every round trip with a multi-edge fiber
    real = simplex._cut_indices

    def defective(g, a):
        edge_map, fibers = real(g, a)
        k = next((i for i, fib in enumerate(fibers) if len(fib) > 1), None)
        if k is not None:
            fibers = fibers[:k] + (fibers[k][::-1],) + fibers[k + 1 :]
        return edge_map, fibers

    target = LabeledSimplex(S, ("a", "b"))
    phi = GraphMorphism(Graph(S, (("a", "b"), ("b", "b"))), cut_object(target), (0, 0), ((0, 1),))
    chains = enumerate_simplices(S, 4)
    round_trips = []
    for a in chains:
        for b in chains:
            for m in enumerate_delta_morphisms(a, b):
                cm = cut_morphism(m)
                if classify_graph_morphism(cm) in (MapClass.ACTIVE, MapClass.BOTH) and any(
                    len(fib) > 1 for fib in cm.fibers
                ):
                    round_trips.append((b, cm))
    assert cartesian_lift(target, phi)[1].underlying == (0, 2)
    monkeypatch.setattr(simplex, "_cut_indices", defective)
    with pytest.raises(NotAPath, match="disagrees with the input"):
        cartesian_lift(target, phi)
    assert round_trips
    for b, cm in round_trips:
        with pytest.raises(NotAPath):
            cartesian_lift(b, cm)


def test_lcut_marking_rules_spot():
    # a non-totally-inert inert morphism is marked only at level 1
    big = LabeledSimplex(S, ("a", "b", "a"))
    m = DeltaOpMorphism(big, LabeledSimplex(S, ("a", "b")), (0, 1))
    assert classify_delta(m) is DeltaClass.INERT
    assert classify_graph_morphism(lcut_morphism(m, 1, 1)) in (MapClass.INERT, MapClass.BOTH)
    assert classify_graph_morphism(lcut_morphism(m, 0, 1)) in (MapClass.INERT, MapClass.BOTH)
    assert classify_graph_morphism(lcut_morphism(m, 0, 0)) not in (MapClass.INERT, MapClass.BOTH)
    for i, j in ((0, 0), (0, 1), (1, 1)):
        assert validate_morphism(lcut_morphism(m, i, j)).ok


def test_check_approximation_small():
    rep = check_approximation(labelset("a"), 2)
    assert rep.ok, rep.first_failure()


def test_check_approximation_at_max_dim_zero_and_without_labels():
    # strongness reads the chains of two entries even when the bound holds
    # none; with no labels there is no chain to read the labels off
    assert [c.witness for c in check_approximation(labelset("a"), 0).checks] == [
        "1 chains",
        "1 active morphisms lifted",
        "1 labels; 1 single-edge graphs",
        "1 chain morphisms",
    ]
    assert check_approximation(S, 0).ok
    rep = check_approximation(labelset(), 2)
    assert rep.ok and len(rep.checks) == 4 and rep.checks[0].witness == "0 chains"


# ---------------------------------------------------------------------------
# The label-position enumerator against the filter over every monotone map.


def _reference_delta_morphisms(a, b):
    return [
        DeltaOpMorphism(a, b, g)
        for g in itertools.combinations_with_replacement(range(a.dim() + 1), b.dim() + 1)
        if all(a.chain[g[i]] == b.chain[i] for i in range(b.dim() + 1))
    ]


ENUMERATOR_BOUNDS = [(("a",), 4), (("a", "b"), 4), (("a", "b", "c"), 4), (("a", "b"), 5)]


def _first_enumerator_mismatch(enumerate_homs):
    """The first chain pair on which enumerate_homs differs from the
    reference, in list or order, or None."""
    for labels, max_len in ENUMERATOR_BOUNDS:
        chains = enumerate_simplices(labelset(*labels), max_len)
        for a in chains:
            for b in chains:
                if enumerate_homs(a, b) != _reference_delta_morphisms(a, b):
                    return a.chain, b.chain
    return None


def test_enumerator_matches_reference():
    assert _first_enumerator_mismatch(enumerate_delta_morphisms) is None


def test_enumerator_reference_sees_strict_monotonicity():
    # seeded defect: a strict comparison in the monotonicity guard drops
    # every degeneracy (a repeated index)
    source = inspect.getsource(simplex.enumerate_delta_morphisms)
    assert source.count("v >= g[-1]") == 1
    namespace = dict(vars(simplex))
    exec(source.replace("v >= g[-1]", "v > g[-1]"), namespace)
    assert _first_enumerator_mismatch(namespace["enumerate_delta_morphisms"]) == (("a",), ("a", "a"))


def test_enumerator_builds_each_morphism_once(monkeypatch):
    built = Counter()

    def counting(name):
        real = getattr(simplex, name)

        def build(*fields):
            built[name] += 1
            return real(*fields)

        monkeypatch.setattr(simplex, name, build)

    counting("_unchecked_delta")
    counting("_unchecked_morphism")
    chains = enumerate_simplices(S, 4)
    returned = sum(len(enumerate_delta_morphisms(a, b)) for a in chains for b in chains)
    assert built == {"_unchecked_delta": returned} and returned == 1440


# ---------------------------------------------------------------------------
# The indexed cartesian-universal check against the pairwise scan, and the
# seeded defects the approximation suite must report.


def _scan_check_universal(chains, y, xbar, lift, homs, cuts):
    """Reference: test every (h0, psi) pair and scan every h for matches."""
    cut_lift = simplex.cut_morphism(lift)
    for z in chains.values():
        key = z.chain, xbar.chain
        into_y = homs[z.chain, y.chain]
        into_x = homs[key]
        if key not in cuts:
            cuts[key] = simplex.enumerate_graph_morphisms(simplex.cut_object(z), simplex.cut_object(xbar))
        psis = cuts[key]
        for h0 in into_y:
            cut_h0 = simplex.cut_morphism(h0)
            for psi in psis:
                if simplex.compose_graph_morphisms(psi, cut_lift) != cut_h0:
                    continue
                matches = [
                    h
                    for h in into_x
                    if simplex.compose_delta(h, lift) == h0 and simplex.cut_morphism(h) == psi
                ]
                if len(matches) != 1:
                    return Check(
                        "cartesian-universal",
                        False,
                        f"{z.chain} -> {y.chain}: {len(matches)} factorizations through {xbar.chain}",
                    )
    return None


def _duplicate_homs(monkeypatch):
    real = simplex.enumerate_delta_morphisms

    def defective(a, b):
        homs = real(a, b)
        return homs + homs if (a.dim(), b.dim()) == (2, 1) else homs

    monkeypatch.setattr(simplex, "enumerate_delta_morphisms", defective)


def _collapse_leading_index(monkeypatch):
    # composites into chains of dimension >= 1 only; equal leading labels
    # keep the damaged index map label-preserving
    real = simplex.compose_delta

    def defective(m, m2):
        out = real(m, m2)
        g = out.underlying
        if len(g) > 1 and g[0] == 1 and out.source.chain[0] == out.source.chain[1]:
            return DeltaOpMorphism(out.source, out.target, (0,) + g[1:])
        return out

    monkeypatch.setattr(simplex, "compose_delta", defective)


def _reverse_two_edge_fibers(monkeypatch):
    real = simplex.compose_graph_morphisms

    def defective(f, g):
        out = real(f, g)
        fibers = tuple(fib[::-1] if len(fib) == 2 else fib for fib in out.fibers)
        return GraphMorphism(out.source, out.target, out.edge_map, fibers)

    monkeypatch.setattr(simplex, "compose_graph_morphisms", defective)


DEFECTS = {
    "duplicate-homs": (
        _duplicate_homs,
        "('a', 'a', 'a') -> ('a', 'a'): 2 factorizations through ('a', 'a')",
    ),
    "collapse-leading-index": (
        _collapse_leading_index,
        "('a', 'a') -> ('a', 'a'): 0 factorizations through ('a',)",
    ),
    "reverse-two-edge-fibers": (
        _reverse_two_edge_fibers,
        "('a', 'a', 'a') -> ('a', 'a'): 0 factorizations through ('a', 'a')",
    ),
}


@pytest.mark.parametrize("defect", [None, *DEFECTS])
def test_indexed_universal_matches_scan(monkeypatch, defect):
    if defect is not None:
        DEFECTS[defect][0](monkeypatch)
    for labels in (labelset("a"), S):
        shipped = check_approximation(labels, 2)
        with monkeypatch.context() as m:
            m.setattr(simplex, "_check_universal", _scan_check_universal)
            reference = check_approximation(labels, 2)
        assert shipped == reference


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_approximation_reports_seeded_defect(monkeypatch, defect):
    seed, witness = DEFECTS[defect]
    seed(monkeypatch)
    rep = check_approximation(labelset("a"), 3)
    assert Check("cartesian-universal", False, witness) in rep.checks


def _misclassify_last_edge(monkeypatch):
    # only the projection of a chain of two or more edges onto its last edge
    real = simplex.classify_delta

    def defective(m):
        n = m.source.dim()
        if n >= 2 and m.underlying == (n - 1, n):
            return DeltaClass.OTHER
        return real(m)

    monkeypatch.setattr(simplex, "classify_delta", defective)


def _forget_after_structural_inert(monkeypatch):
    # a composite after a map deleting its last edge is that map alone: the
    # via-source side of the naturality square breaks, the via-target side
    # (whose first map keeps its last edge) does not
    real = simplex.compose_graph_morphisms

    def defective(f, g):
        return f if f.edge_map[-1:] == (None,) else real(f, g)

    monkeypatch.setattr(simplex, "compose_graph_morphisms", defective)


@pytest.mark.parametrize(
    "seed, check",
    [
        (_misclassify_last_edge, Check("inert-chain-lifts", False, "('a', 'a', 'a') at 2")),
        (_forget_after_structural_inert, Check("lcut-marking", False, "('a',)->('a', 'a'): naturality square broken")),
    ],
    ids=["last-edge", "one-side-of-square"],
)
def test_approximation_reports_one_sided_defect(monkeypatch, seed, check):
    seed(monkeypatch)
    assert check in check_approximation(labelset("a"), 2).checks


def _reject_contraction_next_to_a_fiber(tgt_edges, fibers):
    # rejects a morphism the enumerator offers only with three or more
    # source edges, so cartesian-universal's hom-sets meet it first
    for i, fib in enumerate(fibers):
        if len(fib) >= 2 and any(fibers[j] for j in (i - 1, i + 1) if 0 <= j < len(fibers)):
            return True
    return False


def _reject_contraction_onto_one_edge(tgt_edges, fibers):
    # rejects a morphism into a one-edge path image, so cartesian-lifts'
    # actives meet it first
    return len(tgt_edges) == 1 and len(fibers[0]) >= 2


@pytest.mark.parametrize(
    "rejects, check",
    [
        (
            _reject_contraction_next_to_a_fiber,
            Check(
                "cartesian-universal",
                False,
                "('a', 'a', 'a', 'a') -> ('a', 'a', 'a'): (('a', 'a'), ('a', 'a'), ('a', 'a')) -> "
                "(('a', 'a'), ('a', 'a')): candidate (0, 1, 1) with fibers ((0,), (1, 2)) "
                "rejected by condition-two: seeded defect",
            ),
        ),
        (
            _reject_contraction_onto_one_edge,
            Check(
                "cartesian-lifts",
                False,
                "('a', 'a'): (('a', 'a'), ('a', 'a')) -> (('a', 'a'),): candidate (0, 0) "
                "with fibers ((0, 1),) rejected by condition-two: seeded defect",
            ),
        ),
    ],
)
def test_approximation_reports_rejected_candidate(monkeypatch, rejects, check):
    # a validator that rejects what the enumerator builds fails the sub-check
    # that enumerated it, with the rejected candidate as witness
    validate = graphs._validate_indices

    def defective(src_edges, tgt_edges, edge_map, fibers):
        if rejects(tgt_edges, fibers):
            return failing("condition-two", "seeded defect")
        return validate(src_edges, tgt_edges, edge_map, fibers)

    monkeypatch.setattr(graphs, "_validate_indices", defective)
    assert check_approximation(labelset("a"), 3).first_failure() == check


# ---------------------------------------------------------------------------
# Each distinct lift is decided once; the per-phi loop is the reference.


@pytest.mark.parametrize(
    "labels, witnesses",
    [
        (("a",), ["3 chains", "14 active morphisms lifted", "1 labels; 1 single-edge graphs", "31 chain morphisms"]),
        (("a", "b"), ["14 chains", "82 active morphisms lifted", "2 labels; 4 single-edge graphs", "194 chain morphisms"]),
    ],
)
def test_approximation_counts_at_max_dim_two(labels, witnesses):
    rep = check_approximation(labelset(*labels), 2)
    assert rep.ok and [c.witness for c in rep.checks] == witnesses


def _per_phi_check_cartesian_lifts(labels, chains, homs, graph_pool):
    """Reference: decide the universal property again for every chain y and
    every active phi, on the lift that cartesian_lift returns (its source a
    fresh chain) and a hom table of its own instead of the suite's `homs`."""
    lifts = 0
    own = {(a, b): simplex.enumerate_delta_morphisms(x, y) for a, x in chains.items() for b, y in chains.items()}
    cuts = {}
    for y in chains.values():
        for phi in simplex._actives_into(graph_pool, y):
            source, lift = simplex.cartesian_lift(y, phi)
            order = [e for fib in phi.fibers for e in fib]
            if order == sorted(order) and simplex.cut_morphism(lift) != phi:
                return Check("cartesian-lifts", False, f"{y.chain}: lift does not cut back to the input")
            universal = simplex._check_universal(chains, y, source, lift, own, cuts)
            if universal is not None:
                return universal
            lifts += 1
    return Check("cartesian-lifts", True, f"{lifts} active morphisms lifted")


REFERENCE_BOUNDS = [(labelset("a"), d) for d in range(4)] + [(S, d) for d in range(4)] + [(labelset("a", "b", "c"), 2)]


@pytest.mark.parametrize("defect", [None, *DEFECTS])
def test_lift_memo_matches_per_phi_loop(monkeypatch, defect):
    # the suite decides one chain y per orbit of label permutations; the
    # reference walks every y
    if defect is not None:
        DEFECTS[defect][0](monkeypatch)
    for labels, max_dim in REFERENCE_BOUNDS:
        shipped = check_approximation(labels, max_dim)
        with monkeypatch.context() as m:
            m.setattr(simplex, "_check_cartesian_lifts", _per_phi_check_cartesian_lifts)
            reference = check_approximation(labels, max_dim)
        assert shipped == reference, (labels, max_dim)


def _every_pair_check_lcut_marking(labels, homs):
    """Reference: lcut-marking over every pair of chains, each morphism
    counted once."""
    arrows = ((0, 0), (0, 1), (1, 1))
    checked = 0
    for (a, b), ms in homs.items():
        for m in ms:
            cls = simplex.classify_delta(m)
            inert = cls in (DeltaClass.INERT, DeltaClass.TOTALLY_INERT)
            lcuts = {}
            for i, j in arrows:
                lm = lcuts[i, j] = simplex.lcut_morphism(m, i, j)
                rep = simplex.validate_morphism(lm)
                if not rep.ok:
                    return Check("lcut-marking", False, f"{a}->{b} at {i}->{j}: {rep.first_failure()}")
                expected = inert and (cls is DeltaClass.TOTALLY_INERT or j == 1)
                got = simplex.classify_graph_morphism(lm) in (MapClass.INERT, MapClass.BOTH)
                if got != expected:
                    return Check("lcut-marking", False, f"{a}->{b} at {i}->{j}: inert={got}, marking says {expected}")
            via_target = simplex.compose_graph_morphisms(lcuts[0, 0], simplex.structural_inert(m.target))
            via_source = simplex.compose_graph_morphisms(simplex.structural_inert(m.source), lcuts[1, 1])
            if lcuts[0, 1] != via_target or lcuts[0, 1] != via_source:
                return Check("lcut-marking", False, f"{a}->{b}: naturality square broken")
            checked += 1
    return Check("lcut-marking", True, f"{checked} chain morphisms")


@pytest.mark.parametrize(
    "seed, failed_bounds",
    [(None, 0), (_forget_after_structural_inert, 7), (_misclassify_last_edge, 5)],
    ids=["clean", "one-side-of-square", "last-edge"],
)
def test_lcut_marking_matches_every_pair_walk(monkeypatch, seed, failed_bounds):
    # the suite decides one pair of chains per orbit of label permutations
    # (both chains renamed together); the reference walks every pair
    if seed is not None:
        seed(monkeypatch)
    failures = 0
    for labels, max_dim in REFERENCE_BOUNDS:
        shipped = check_approximation(labels, max_dim)
        with monkeypatch.context() as m:
            m.setattr(simplex, "_check_lcut_marking", _every_pair_check_lcut_marking)
            reference = check_approximation(labels, max_dim)
        assert shipped == reference, (labels, max_dim)
        failures += not shipped.checks[3].ok
    # the square breaks wherever a chain has an edge, the last-edge marking
    # wherever one has two
    assert failures == failed_bounds


def _renamed(report, names):
    """The report with every quoted label in its witnesses renamed by `names`."""
    quoted = re.compile("|".join(f"'{x}'" for x in names))
    return ValidationReport(
        tuple(
            Check(c.name, c.ok, quoted.sub(lambda hit: repr(names[hit.group()[1:-1]]), c.witness))
            for c in report.checks
        )
    )


def _first_renaming_mismatch(labels, max_dim):
    """The first order of `labels` whose report, with its labels renamed to
    `labels` position by position, differs from the report in `labels`
    order, or None."""
    base = check_approximation(labelset(*labels), max_dim)
    for order in itertools.permutations(labels):
        renamed = _renamed(check_approximation(labelset(*order), max_dim), dict(zip(order, labels)))
        if renamed != base:
            return order
    return None


@pytest.mark.parametrize("defect", [None, *DEFECTS])
@pytest.mark.parametrize("labels, max_dim", [(("a", "b"), 2), (("a", "b"), 3), (("a", "b", "c"), 2)])
def test_approximation_is_label_invariant(monkeypatch, defect, labels, max_dim):
    # each order of the labels makes other chains the first of their orbits,
    # so the orders together decide every chain
    if defect is not None:
        DEFECTS[defect][0](monkeypatch)
    assert _first_renaming_mismatch(labels, max_dim) is None


def _break_lifts_into_b(monkeypatch):
    # depends on a label's name: the lift into a chain that starts with "b"
    # forgets where its fibers end
    real = simplex.cartesian_lift

    def defective(target, phi):
        source, lift = real(target, phi)
        if target.chain[0] == "b":
            ends = (0,) * len(lift.underlying)
            lift = simplex._unchecked_delta(source, target, ends)
        return source, lift

    monkeypatch.setattr(simplex, "cartesian_lift", defective)


def test_label_invariance_sees_a_name_dependent_defect(monkeypatch):
    # the suite decides only chains whose first label comes first in the
    # label order: it misses the defect in order (a, b), where the walk over
    # every chain reports it, and reports it in order (b, a)
    _break_lifts_into_b(monkeypatch)
    broken = "lift does not cut back to the input"
    assert check_approximation(labelset("a", "b"), 2).ok
    with monkeypatch.context() as m:
        m.setattr(simplex, "_check_cartesian_lifts", _per_phi_check_cartesian_lifts)
        every_y = check_approximation(labelset("a", "b"), 2).first_failure()
    assert every_y == Check("cartesian-lifts", False, f"('b', 'a'): {broken}")
    reduced = check_approximation(labelset("b", "a"), 2).first_failure()
    assert reduced == Check("cartesian-lifts", False, f"('b', 'b'): {broken}")
    assert _first_renaming_mismatch(("a", "b"), 2) == ("b", "a")
    assert _first_renaming_mismatch(("a", "b", "c"), 2) == ("b", "a", "c")


@pytest.mark.parametrize("labels, max_dim, distinct", [(("a",), 3, 35), (("a", "b"), 2, 25)])
def test_universal_decided_once_per_lift(monkeypatch, labels, max_dim, distinct):
    real = simplex._check_universal
    lifts = []

    def counting(chains, y, xbar, lift, homs, cuts):
        lifts.append(lift)
        return real(chains, y, xbar, lift, homs, cuts)

    monkeypatch.setattr(simplex, "_check_universal", counting)
    assert check_approximation(labelset(*labels), max_dim).ok
    assert len(lifts) == len(set(lifts)) == distinct


def test_each_chain_builds_each_path_graph_once(monkeypatch):
    # path graphs are built only by the chain that owns them; count per
    # chain object (kept alive, so ids stay distinct) and per level
    real = simplex.path_graph
    owners = []
    built = Counter()

    def counting(labels, chain):
        owner = inspect.currentframe().f_back.f_locals.get("self")
        assert isinstance(owner, LabeledSimplex)
        owners.append(owner)
        level = "cut" if not labels.pointed else ("lcut-0" if chain[-1] == STAR else "lcut-1")
        built[id(owner), level] += 1
        return real(labels, chain)

    monkeypatch.setattr(simplex, "path_graph", counting)
    assert check_approximation(S, 2).ok
    assert max(built.values()) == 1 and sum(built.values()) == 40
    # only the suite's own chains build path graphs, lifts and one-edge
    # projections included: at {a,b} 3, the 30 chains of at most 4 entries,
    # each its cut and its lcuts at levels 0 and 1, except ('b', 'a', 'b',
    # 'a'), the end of no chain morphism out of a chain that starts with 'a'
    built.clear()
    assert check_approximation(S, 3).ok
    per_owner = Counter(owner for owner, _ in built)
    chain_of = {id(owner): owner.chain for owner in owners}
    assert len(per_owner) == 30 and sum(built.values()) == 88
    assert [chain_of[o] for o, n in per_owner.items() if n != 3] == [("b", "a", "b", "a")]


# ---------------------------------------------------------------------------
# Path images, structural inerts and chain pools are built once per object;
# the memo-free build is the reference.


def _rebuild_on_every_read(m):
    """Path images and structural inerts rebuilt on every read (their
    read_once memos become properties), and a fresh chain-pool memo for
    every enumeration."""
    for cls, name in ((DeltaOpMorphism, "_cut"), (LabeledSimplex, "_structural_inert")):
        m.setattr(cls, name, property(vars(cls)[name].func))
    m.setattr(Graph, "_chain_pools", property(lambda self: {}))


def _assert_matches_memo_free(monkeypatch):
    for labels, bound in ((labelset("a"), 4), (S, 3)):
        for max_dim in range(bound + 1):
            shipped = check_approximation(labels, max_dim)
            with monkeypatch.context() as m:
                _rebuild_on_every_read(m)
                x = LabeledSimplex(labels, ("a", "a"))
                assert cut_morphism(identity_delta(x)) is not cut_morphism(identity_delta(x))
                assert structural_inert(x) is not structural_inert(x)
                reference = check_approximation(labels, max_dim)
            assert shipped == reference, (labels, max_dim)


@pytest.mark.parametrize("defect", [None, *DEFECTS])
def test_memos_match_memo_free_build(monkeypatch, defect):
    if defect is not None:
        DEFECTS[defect][0](monkeypatch)
    _assert_matches_memo_free(monkeypatch)


@pytest.mark.parametrize("rejects", [_reject_contraction_next_to_a_fiber, _reject_contraction_onto_one_edge])
def test_memos_match_memo_free_build_under_rejected_candidates(monkeypatch, rejects):
    validate = graphs._validate_indices

    def defective(src_edges, tgt_edges, edge_map, fibers):
        if rejects(tgt_edges, fibers):
            return failing("condition-two", "seeded defect")
        return validate(src_edges, tgt_edges, edge_map, fibers)

    monkeypatch.setattr(graphs, "_validate_indices", defective)
    _assert_matches_memo_free(monkeypatch)


@pytest.mark.parametrize("labels, max_dim, once, memo_free", [(("a",), 3, 8, 24), (("a", "b"), 2, 140, 315)])
def test_each_graph_builds_each_chain_pool_once(monkeypatch, labels, max_dim, once, memo_free):
    # count per source graph object (kept alive, so ids stay distinct) and
    # target edge; enumerate_graph_morphisms two frames up holds the source
    real = graphs._chain_pool
    sources = []
    built = Counter()

    def counting(src_edges, s, t):
        src = inspect.currentframe().f_back.f_back.f_locals["src"]
        assert src.edges == src_edges
        sources.append(src)
        built[id(src), s, t] += 1
        return real(src_edges, s, t)

    monkeypatch.setattr(graphs, "_chain_pool", counting)
    assert check_approximation(labelset(*labels), max_dim).ok
    assert max(built.values()) == 1 and sum(built.values()) == once
    built.clear()
    with monkeypatch.context() as m:
        _rebuild_on_every_read(m)
        assert check_approximation(labelset(*labels), max_dim).ok
    assert sum(built.values()) == memo_free


def test_each_chain_morphism_builds_its_path_image_once():
    chains = enumerate_simplices(S, 3)
    for a in chains:
        for b in chains:
            for m in enumerate_delta_morphisms(a, b):
                cut = cut_morphism(m)
                assert cut_morphism(m) is cut
                assert lcut_morphism(m, 1, 1).fibers is cut.fibers
                # an equal morphism built apart has its own, equal, image
                assert cut_morphism(DeltaOpMorphism(a, b, m.underlying)) == cut


def test_each_chain_builds_its_structural_inert_once(monkeypatch):
    # count per chain object (kept alive, so ids stay distinct)
    build = vars(LabeledSimplex)["_structural_inert"].func
    owners = []
    built = Counter()

    def _structural_inert(self):
        owners.append(self)
        built[id(self)] += 1
        return build(self)

    monkeypatch.setattr(LabeledSimplex, "_structural_inert", read_once(_structural_inert))
    assert check_approximation(S, 2).ok
    # lcut-marking decides the pairs whose concatenated entries meet 'a'
    # first; ('b', 'a', 'b') is the end of none of their morphisms, and each
    # of the other 13 chains builds its structural inert once
    assert len(built) == 13 and max(built.values()) == 1
    assert ("b", "a", "b") not in {owner.chain for owner in owners}
