import functools
import gc
import itertools
import math
import weakref
from collections import Counter

import pytest

from oplab import graphs
from oplab.errors import (
    InvalidCandidate,
    InvalidLabels,
    LabelSetMismatch,
    NotInert,
    NotLeftModular,
    NotRightModular,
    SizeBoundExceeded,
    SourceTargetMismatch,
)
from oplab.graphs import (
    Graph,
    GraphMorphism,
    MapClass,
    OperadTag,
    STAR,
    add_loop,
    allowed_edges,
    check_operad_axioms,
    classify_graph_morphism,
    compose_graph_morphisms,
    contract_path,
    delete_edge,
    empty_graph,
    enumerate_graph_morphisms,
    enumerate_inert_from,
    enumerate_objects,
    identity_morphism,
    is_left_modular,
    is_right_modular,
    iso_graphs,
    labelset,
    left_label,
    pairing,
    pairing_inert,
    pairing_labels,
    path_graph,
    reverse_graph,
    reverse_morphism,
    right_label,
    tensor_graphs,
    tensor_morphisms,
    underlying_pointed,
    validate_morphism,
)
from oplab.report import Check, ValidationReport, failing, passing, read_once

S = labelset("a", "b")
SP = labelset("a", "b", pointed=True)


def small_graphs(labels, max_edges=2):
    pairs = [(s, t) for s in labels.labels for t in labels.labels]
    out = []
    for n in range(max_edges + 1):
        out += [Graph(labels, e) for e in itertools.product(pairs, repeat=n)]
    return out


# --- objects -------------------------------------------------------------


def test_star_reserved():
    with pytest.raises(InvalidLabels):
        labelset("a", STAR)
    with pytest.raises(InvalidLabels):
        Graph(S, ((STAR, "a"),))


_TWO_VERTICES = r"edge \({}\) must join two vertices of \('a',\)"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: labelset("a", ""), "label '' must be a non-empty string"),
        # the string check runs before the duplicate check, which hashes labels
        (lambda: graphs.LabelSet((["a"],)), r"label \['a'\] must be a non-empty string"),
        (lambda: Graph(labelset("a"), [("a", "a", "a")]), _TWO_VERTICES.format("'a', 'a', 'a'")),
        (lambda: Graph(labelset("a"), [("a", "b")]), _TWO_VERTICES.format("'a', 'b'")),
        # input that is not iterable where a tuple is built
        (lambda: Graph(labelset("a"), [1]), r"edges \[1\] are not pairs"),
        (lambda: Graph(labelset("a"), None), "edges None are not pairs"),
        (lambda: graphs.LabelSet(None), "labels None are not iterable"),
    ],
)
def test_constructors_refuse_malformed_labels_and_edges(build, message):
    with pytest.raises(InvalidLabels, match=f"^{message}$"):
        build()


def test_path_graph():
    assert path_graph(S, ("a", "b", "a")).edges == (("a", "b"), ("b", "a"))
    assert path_graph(S, ("a",)).edges == ()


def test_tensor_unit_and_mismatch():
    g = path_graph(S, ("a", "b"))
    assert tensor_graphs(empty_graph(S), g) == g
    assert tensor_graphs(g, empty_graph(S)) == g
    with pytest.raises(LabelSetMismatch):
        tensor_graphs(g, path_graph(labelset("a"), ("a", "a")))


def test_tensor_of_contracts_validates():
    t = tensor_morphisms(contract_path(S, ("a", "b", "a")), contract_path(S, ("b", "b", "a")))
    assert validate_morphism(t).ok
    assert classify_graph_morphism(t) is MapClass.ACTIVE


def test_every_graph_is_a_tensor_of_single_edges():
    for g in small_graphs(S, 3):
        parts = [Graph(S, (e,)) for e in g.edges]
        built = empty_graph(S)
        for p in parts:
            built = tensor_graphs(built, p)
        assert built == g
        for perm in itertools.permutations(range(len(g.edges))):
            assert iso_graphs(g, Graph(S, tuple(g.edges[i] for i in perm)))


def test_iso_graphs_compares_edges_not_only_labels():
    g = Graph(S, (("a", "b"), ("b", "a"), ("a", "b")))
    assert iso_graphs(g, Graph(S, (("b", "a"), ("a", "b"), ("a", "b"))))
    # equal label sets, different edge multisets
    assert not iso_graphs(g, Graph(S, (("a", "b"), ("b", "a"), ("b", "a"))))
    assert not iso_graphs(g, Graph(S, (("a", "b"), ("b", "a"))))
    # equal edges, different label sets
    assert not iso_graphs(Graph(S, (("a", "a"),)), Graph(labelset("a"), (("a", "a"),)))


# --- morphism validation -------------------------------------------------


def test_validate_contract_passes():
    assert validate_morphism(contract_path(S, ("a", "b", "a"))).ok


def test_validate_broken_chain():
    src = Graph(S, (("a", "b"), ("a", "a")))
    tgt = Graph(S, (("a", "a"),))
    m = GraphMorphism(src, tgt, (0, 0), ((0, 1),))
    rep = validate_morphism(m)
    assert not rep.ok
    assert rep.first_failure().name == "condition-two"


def test_validate_empty_fiber():
    loop_target = GraphMorphism(empty_graph(S), Graph(S, (("a", "a"),)), (), ((),))
    assert validate_morphism(loop_target).ok
    bad = GraphMorphism(empty_graph(S), Graph(S, (("a", "b"),)), (), ((),))
    rep = validate_morphism(bad)
    assert not rep.ok
    assert rep.first_failure().name == "condition-one"


def test_validate_partition_mismatch():
    src = Graph(S, (("a", "b"),))
    tgt = Graph(S, (("a", "b"),))
    rep = validate_morphism(GraphMorphism(src, tgt, (0,), ((),)))
    assert rep.first_failure().name == "fiber-partition"


# --- composition ---------------------------------------------------------


def test_compose_bracketings_agree():
    w = labelset("x", "y", "z", "w")
    xy, yz, zw = path_graph(w, ("x", "y")), path_graph(w, ("y", "z")), path_graph(w, ("z", "w"))
    left = compose_graph_morphisms(
        tensor_morphisms(contract_path(w, ("x", "y", "z")), identity_morphism(zw)),
        contract_path(w, ("x", "z", "w")),
    )
    right = compose_graph_morphisms(
        tensor_morphisms(identity_morphism(xy), contract_path(w, ("y", "z", "w"))),
        contract_path(w, ("x", "y", "w")),
    )
    assert left == right == contract_path(w, ("x", "y", "z", "w"))
    assert left.fibers == ((0, 1, 2),)


def test_compose_identity_neutral():
    for g in small_graphs(S, 2):
        for h in small_graphs(S, 2):
            for m in enumerate_graph_morphisms(g, h):
                assert compose_graph_morphisms(m, identity_morphism(h)) == m
                assert compose_graph_morphisms(identity_morphism(g), m) == m


def test_compose_delete_then_add_loop():
    m = compose_graph_morphisms(delete_edge(S, "a", "a"), add_loop(S, "a"))
    assert m.edge_map == (None,)
    assert m.fibers == ((),)
    assert validate_morphism(m).ok


def test_compose_mismatch():
    with pytest.raises(SourceTargetMismatch):
        compose_graph_morphisms(delete_edge(S, "a", "b"), delete_edge(S, "a", "b"))


def test_compose_associative_on_small_fragment():
    objs = small_graphs(S, 1) + [path_graph(S, ("a", "b", "a")), path_graph(S, ("a", "a", "a"))]
    for a, b in itertools.product(objs, repeat=2):
        homs_ab = enumerate_graph_morphisms(a, b)
        if not homs_ab:
            continue
        for c in objs:
            homs_bc = enumerate_graph_morphisms(b, c)
            if not homs_bc:
                continue
            for d in objs:
                homs_cd = enumerate_graph_morphisms(c, d)
                for f in homs_ab:
                    for g in homs_bc:
                        fg = compose_graph_morphisms(f, g)
                        assert validate_morphism(fg).ok
                        for h in homs_cd:
                            assert compose_graph_morphisms(fg, h) == compose_graph_morphisms(
                                f, compose_graph_morphisms(g, h)
                            )


def test_classes_closed_under_composition():
    g1 = path_graph(S, ("a", "b", "a"))
    for a, b in itertools.product(small_graphs(S, 2) + [g1], repeat=2):
        for f in enumerate_graph_morphisms(a, b):
            cf = classify_graph_morphism(f)
            for c in small_graphs(S, 2):
                for g in enumerate_graph_morphisms(b, c):
                    cg = classify_graph_morphism(g)
                    ch = classify_graph_morphism(compose_graph_morphisms(f, g))
                    if cf in (MapClass.INERT, MapClass.BOTH) and cg in (MapClass.INERT, MapClass.BOTH):
                        assert ch in (MapClass.INERT, MapClass.BOTH)
                    if cf in (MapClass.ACTIVE, MapClass.BOTH) and cg in (MapClass.ACTIVE, MapClass.BOTH):
                        assert ch in (MapClass.ACTIVE, MapClass.BOTH)


# --- classification ------------------------------------------------------


def test_classify_generators():
    assert classify_graph_morphism(delete_edge(S, "a", "b")) is MapClass.INERT
    assert classify_graph_morphism(add_loop(S, "a")) is MapClass.ACTIVE
    assert classify_graph_morphism(contract_path(S, ("a", "b", "a"))) is MapClass.ACTIVE


# --- generators -----------------------------------------------------------


def test_generator_shapes():
    d = delete_edge(SP, "a", "b")
    assert d.target == empty_graph(SP)
    loop = add_loop(S, "b")
    assert loop.target.edges == (("b", "b"),)
    assert loop.fibers == ((),)
    c = contract_path(S, ("a", "b", "b"))
    assert c.fibers == ((0, 1),)
    # the shortest chain contracts its one edge onto itself
    one = contract_path(S, ("a", "a"))
    assert one.source == one.target == path_graph(S, ("a", "a"))
    assert (one.edge_map, one.fibers) == ((0,), ((0,),))
    with pytest.raises(InvalidLabels):
        contract_path(S, ("a",))
    with pytest.raises(InvalidLabels):
        delete_edge(S, "a", "q")


# --- reversal -------------------------------------------------------------


def test_reverse_single_edge():
    assert reverse_graph(path_graph(S, ("a", "b"))).edges == (("b", "a"),)


def test_reverse_involution_and_functoriality():
    for g in small_graphs(S, 3):
        assert reverse_graph(reverse_graph(g)) == g
    for a, b in itertools.product(small_graphs(S, 2), repeat=2):
        homs = enumerate_graph_morphisms(a, b)
        rhoms = enumerate_graph_morphisms(reverse_graph(a), reverse_graph(b))
        assert sorted(map(reverse_morphism, homs), key=str) == sorted(rhoms, key=str)
        for m in homs:
            assert reverse_morphism(reverse_morphism(m)) == m
            assert validate_morphism(reverse_morphism(m)).ok
            for c in small_graphs(S, 1):
                for g2 in enumerate_graph_morphisms(b, c):
                    assert reverse_morphism(
                        compose_graph_morphisms(m, g2)
                    ) == compose_graph_morphisms(reverse_morphism(m), reverse_morphism(g2))


def test_reverse_swaps_modularity():
    g = path_graph(SP, ("a", "b", STAR))
    assert is_left_modular(g) and not is_right_modular(g)
    r = reverse_graph(g)
    assert is_right_modular(r) and not is_left_modular(r)


def test_reverse_tensor_is_reversed_tensor():
    g = path_graph(S, ("a", "b"))
    h = path_graph(S, ("b", "b"))
    assert reverse_graph(tensor_graphs(g, h)) == tensor_graphs(reverse_graph(h), reverse_graph(g))


# --- pairing --------------------------------------------------------------


def lm_path(labels, chain, star_end):
    return path_graph(labels, tuple(chain) + ((STAR,) if star_end else ()))


def rm_path(labels, chain, star_start):
    return path_graph(labels, ((STAR,) if star_start else ()) + tuple(chain))


def test_pairing_examples():
    T = labelset("c", "d", pointed=True)
    g0 = lm_path(SP, ("a", "b"), False)
    g1 = rm_path(T, ("c", "d"), False)
    assert pairing(g0, g1) == empty_graph(pairing_labels(SP, T))

    g0 = lm_path(SP, ("a", "b"), True)
    expected = path_graph(pairing_labels(SP, T), (right_label("c"), right_label("d")))
    assert iso_graphs(pairing(g0, g1), expected)

    g1 = rm_path(T, ("c", "d"), True)
    expected = path_graph(
        pairing_labels(SP, T),
        (left_label("a"), left_label("b"), right_label("c"), right_label("d")),
    )
    assert iso_graphs(pairing(g0, g1), expected)


def test_pairing_rejects_wrong_modularity():
    T = labelset("c", pointed=True)
    with pytest.raises(NotLeftModular):
        pairing(path_graph(SP, (STAR, "a")), path_graph(T, ("c", "c")))
    with pytest.raises(NotRightModular):
        pairing(path_graph(SP, ("a", "b")), path_graph(T, ("c", STAR)))


def test_pairing_inert_identity_and_deletion():
    T = labelset("c", pointed=True)
    g0 = lm_path(SP, ("a",), True)
    g1 = rm_path(T, ("c", "c"), True)
    both = pairing_inert(identity_morphism(g0), identity_morphism(g1))
    assert both == identity_morphism(pairing(g0, g1))

    # deleting the (a,*) edge of g0 removes every pair that used it
    drop = GraphMorphism(g0, empty_graph(SP), (None,), ())
    out = pairing_inert(drop, identity_morphism(g1))
    assert validate_morphism(out).ok
    assert out.target == pairing(empty_graph(SP), g1)
    assert all(v is None for v in out.edge_map)
    with pytest.raises(NotInert):
        pairing_inert(add_loop(SP, "a"), identity_morphism(g1))


def test_pairing_inert_preserves_inertness_small():
    T = labelset("c", pointed=True)
    lms = [g for g in small_graphs_pointed(SP, 2) if is_left_modular(g)]
    rms = [g for g in small_graphs_pointed(T, 2) if is_right_modular(g)]
    for g0 in lms[:12]:
        for m0 in enumerate_inert_from(g0):
            if not is_left_modular(m0.target):
                continue
            for g1 in rms[:8]:
                for m1 in enumerate_inert_from(g1):
                    if not is_right_modular(m1.target):
                        continue
                    out = pairing_inert(m0, m1)
                    assert validate_morphism(out).ok
                    assert classify_graph_morphism(out) in (MapClass.INERT, MapClass.BOTH)


def small_graphs_pointed(labels, max_edges):
    pairs = [(s, t) for s in labels.vertices() for t in labels.vertices()]
    out = []
    for n in range(max_edges + 1):
        out += [Graph(labels, e) for e in itertools.product(pairs, repeat=n)]
    return out


def test_pairing_tensor_in_second_argument():
    # splitting the right path after the star segment tensors the outputs
    T = labelset("c", "d", pointed=True)
    g0 = lm_path(SP, ("a",), True)
    g1 = rm_path(T, ("c",), True)
    g2 = path_graph(T, ("c", "d"))
    lhs = pairing(g0, tensor_graphs(g1, g2))
    rhs = tensor_graphs(pairing(g0, g1), pairing(g0, g2))
    assert iso_graphs(lhs, rhs)


def test_pairing_tensor_in_second_argument_exhaustive():
    T = labelset("c", "d", pointed=True)
    lms = [g for g in small_graphs_pointed(SP, 2) if is_left_modular(g)]
    rms = [g for g in small_graphs_pointed(T, 1) if is_right_modular(g)]
    for g0 in lms:
        for g1 in rms:
            for g2 in rms:
                lhs = pairing(g0, tensor_graphs(g1, g2))
                rhs = tensor_graphs(pairing(g0, g1), pairing(g0, g2))
                assert iso_graphs(lhs, rhs)


def test_pairing_inert_missing_image_pair_is_typed():
    # (a,*) is spliced with the loop (c,c), but its image (a,b) is not: the
    # map is not a valid inert, so it is refused before any splice
    tp = labelset("c", pointed=True)
    m0 = GraphMorphism(Graph(SP, (("a", STAR),)), Graph(SP, (("a", "b"),)), (0,), ((0,),))
    m1 = identity_morphism(Graph(tp, (("c", "c"),)))
    assert not validate_morphism(m0).ok
    with pytest.raises(NotInert, match="left morphism is not a valid inert"):
        pairing_inert(m0, m1)
    with pytest.raises(NotInert, match="right morphism is not a valid inert"):
        pairing_inert(identity_morphism(Graph(SP, ())), m0)


def _reference_pair_edge(e0, e1):
    touches0 = e0[1] == STAR
    touches1 = e1[0] == STAR
    if not (touches0 or touches1):
        return None
    if touches0 and touches1:
        return (left_label(e0[0]), right_label(e1[1]))
    if touches0:
        return (right_label(e1[0]), right_label(e1[1]))
    return (left_label(e0[0]), left_label(e0[1]))


def _reference_splice(g0, g1):
    """The dict-indexed splice that `_splice` replaced."""
    if not is_left_modular(g0):
        raise NotLeftModular("left argument has an edge out of the basepoint")
    if not is_right_modular(g1):
        raise NotRightModular("right argument has an edge into the basepoint")
    edges = []
    index = {}
    for i0, e0 in enumerate(g0.edges):
        for i1, e1 in enumerate(g1.edges):
            pe = _reference_pair_edge(e0, e1)
            if pe is not None:
                index[(i0, i1)] = len(edges)
                edges.append(pe)
    return Graph(pairing_labels(g0.labels, g1.labels), tuple(edges)), index


def _reference_pairing_inert(m0, m1):
    """`pairing_inert` as it was before per-graph splice data."""
    if classify_graph_morphism(m0) not in (MapClass.INERT, MapClass.BOTH):
        raise NotInert("left morphism is not inert")
    if classify_graph_morphism(m1) not in (MapClass.INERT, MapClass.BOTH):
        raise NotInert("right morphism is not inert")
    source, src_idx = _reference_splice(m0.source, m1.source)
    target, tgt_idx = _reference_splice(m0.target, m1.target)
    edge_map = [None] * len(source.edges)
    for (i0, i1), k in src_idx.items():
        d0 = m0.edge_map[i0]
        d1 = m1.edge_map[i1]
        if d0 is not None and d1 is not None:
            edge_map[k] = tgt_idx[(d0, d1)]
    fibers = [()] * len(target.edges)
    for k, v in enumerate(edge_map):
        if v is not None:
            fibers[v] = (k,)
    return GraphMorphism(source, target, tuple(edge_map), tuple(fibers))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the reference and the library must raise alike
        return type(exc)


def test_pairing_matches_reference():
    # every criterion-3 size; at (2,2) each source splice serves the most pairs
    for s_names, t_names in ((("a",), ("c",)), (("a",), ("c", "d")), (("a", "b"), ("c",)), (("a", "b"), ("c", "d"))):
        sp = labelset(*s_names, pointed=True)
        tp = labelset(*t_names, pointed=True)
        lefts = [m for g in enumerate_objects(OperadTag.LM, sp, 2) for m in enumerate_inert_from(g)]
        rights = [m for g in enumerate_objects(OperadTag.RM, tp, 2) for m in enumerate_inert_from(g)]
        for m0 in lefts:
            for m1 in rights:
                assert pairing_inert(m0, m1) == _reference_pairing_inert(m0, m1)
    tp = labelset("c", "d", pointed=True)
    for g0 in enumerate_objects(OperadTag.LM, SP, 2):
        for g1 in enumerate_objects(OperadTag.RM, tp, 2):
            assert pairing(g0, g1) == _reference_splice(g0, g1)[0]


def test_pairing_raises_like_reference():
    tp = labelset("c", pointed=True)
    graphs0 = small_graphs_pointed(SP, 1)
    graphs1 = small_graphs_pointed(tp, 1)
    raised = set()
    for g0 in graphs0:
        for g1 in graphs1:
            expected = _outcome(lambda: _reference_splice(g0, g1)[0])
            assert _outcome(pairing, g0, g1) == expected
            expected = _outcome(_reference_pairing_inert, identity_morphism(g0), identity_morphism(g1))
            assert _outcome(pairing_inert, identity_morphism(g0), identity_morphism(g1)) == expected
            raised.add(expected if isinstance(expected, type) else None)
    assert raised == {None, NotLeftModular, NotRightModular}
    g1 = rm_path(tp, ("c",), True)
    for m0 in (add_loop(SP, "a"), contract_path(SP, ("a", "b", STAR))):
        for args in ((m0, identity_morphism(g1)), (identity_morphism(empty_graph(SP)), reverse_morphism(m0))):
            assert _outcome(_reference_pairing_inert, *args) is NotInert
            assert _outcome(pairing_inert, *args) is NotInert


def _singleton_fiber_morphisms(labels):
    """Every morphism between graphs of at most one edge over labels whose
    fibers are single edges: edge maps that agree with the fibers or not,
    and kept edges equal to their images or not."""
    edges = [(s, t) for s in labels.vertices() for t in labels.vertices()]
    graphs_ = [Graph(labels, ())] + [Graph(labels, (e,)) for e in edges]
    out = []
    for src, tgt in itertools.product(graphs_, repeat=2):
        fiber_choices = itertools.product(((e,) for e in range(len(src.edges))), repeat=len(tgt.edges))
        for fibers in fiber_choices:
            for edge_map in itertools.product((None, *range(len(tgt.edges))), repeat=len(src.edges)):
                out.append(GraphMorphism(src, tgt, edge_map, fibers))
    return out


def _valid_inert(m):
    return validate_morphism(m).ok and classify_graph_morphism(m) in (MapClass.INERT, MapClass.BOTH)


def _expected_outcome(m0, m1):
    """The reference's outcome on two valid inerts; NotInert on any other pair."""
    if _valid_inert(m0) and _valid_inert(m1):
        return _outcome(_reference_pairing_inert, m0, m1)
    return NotInert


def _edge_preserving_mismatches():
    """The pairs of singleton-fiber morphisms on which pairing_inert and
    _expected_outcome disagree, in value or exception type."""
    lefts = _singleton_fiber_morphisms(SP)
    rights = _singleton_fiber_morphisms(labelset("c", pointed=True))
    assert len(lefts) == 1 + 9 + 9 * 9 * 2 and len(rights) == 1 + 4 + 4 * 4 * 2
    return [
        (m0, m1)
        for m0, m1 in itertools.product(lefts, rights)
        if _outcome(pairing_inert, m0, m1) != _expected_outcome(m0, m1)
    ]


def test_pairing_inert_fast_path_only_for_edge_preserving_inerts():
    # the target splice is read off the source splice on valid inerts only:
    # they pair as the two-splice reference does, every other pair is refused
    assert _edge_preserving_mismatches() == []


def _malformed_inerts():
    """Singleton-fiber maps with identical edges that are no valid inerts: a
    relabeled target, a second edge sent to a kept one, an edge map that
    crosses the fibers."""
    a = labelset("a", pointed=True)
    twice = Graph(SP, (("a", STAR), ("a", STAR)))
    return [
        GraphMorphism(Graph(SP, (("a", STAR),)), Graph(a, (("a", STAR),)), (0,), ((0,),)),
        GraphMorphism(twice, Graph(SP, (("a", STAR),)), (0, 0), ((0,),)),
        GraphMorphism(twice, twice, (1, 0), ((0,), (1,))),
    ]


def test_pairing_inert_malformed_maps_keep_the_two_splice_path():
    # malformed maps with identical edges are refused on either side,
    # whatever they are paired with
    cases = _malformed_inerts()
    rights = _singleton_fiber_morphisms(labelset("c", pointed=True))
    for m0, m1 in itertools.product(cases, rights):
        assert _outcome(pairing_inert, m0, m1) is NotInert
    for m in cases:
        assert _outcome(pairing_inert, identity_morphism(Graph(SP, ())), m) is NotInert
        assert not m._keeps_edges and not _valid_inert(m)


def test_keeps_edges_is_valid_and_inert():
    # the single path's premise: _keeps_edges is exactly "valid and inert"
    ms = _singleton_fiber_morphisms(SP) + _singleton_fiber_morphisms(labelset("c", pointed=True))
    ms += _malformed_inerts()
    small = small_graphs(S, 2)
    ms += [m for g, h in itertools.product(small, repeat=2) for m in enumerate_graph_morphisms(g, h)]
    verdicts = Counter()
    for m in ms:
        assert m._keeps_edges == _valid_inert(m), m
        verdicts[m._keeps_edges] += 1
    assert verdicts[True] and verdicts[False]


def test_pairing_inert_fast_path_seeded_to_accept_all(monkeypatch):
    # reading every target splice off the source splice must be caught
    monkeypatch.setattr(GraphMorphism, "_keeps_edges", True)
    assert _edge_preserving_mismatches()


def test_source_splice_built_once_per_graph_pair_and_dies_with_left(monkeypatch):
    splice = graphs._splice
    built = []

    def counting(g0, g1, labels):
        built.append((g0.edges, g1.edges))
        return splice(g0, g1, labels)

    monkeypatch.setattr(graphs, "_splice", counting)
    sp = labelset("a", pointed=True)
    tp = labelset("c", pointed=True)
    left_graphs = enumerate_objects(OperadTag.LM, sp, 2)
    right_graphs = enumerate_objects(OperadTag.RM, tp, 2)
    lefts = [m for g in left_graphs for m in enumerate_inert_from(g)]
    rights = [m for g in right_graphs for m in enumerate_inert_from(g)]
    outs = [pairing_inert(m0, m1) for m0, m1 in itertools.product(lefts, rights)]
    assert len(outs) == 625
    assert len(built) == len(set(built)) == len(left_graphs) * len(right_graphs) == 49
    # a one-shot pairing splices afresh and memoizes nothing
    g1 = rm_path(tp, ("c", "c", "c"), True)
    pairing(left_graphs[0], g1)
    assert len(built) == 50 and g1 not in vars(left_graphs[0])["_splices"]
    spliced = weakref.ref(vars(left_graphs[-1])["_splices"][right_graphs[-1]][0])
    assert spliced() is outs[-1].source
    # the memo lives on the left graphs: the right ones may outlive it
    del left_graphs, lefts, outs
    gc.collect()
    assert spliced() is None
    assert len(right_graphs) == 7 and len(rights) == 25


def test_spliced_graph_equals_fresh_graph():
    tp = labelset("c", "d", pointed=True)
    g0 = lm_path(SP, ("a", "b"), True)
    g1 = rm_path(tp, ("c", "d"), True)
    spliced = pairing(g0, g1)
    pairing(g0, g1)  # the splice data of g0 and g1 is now cached on them
    fresh = Graph(pairing_labels(SP, tp), spliced.edges)
    assert spliced == fresh and hash(spliced) == hash(fresh) and repr(spliced) == repr(fresh)
    for g in (g0, g1):
        again = Graph(g.labels, g.edges)
        assert g == again and hash(g) == hash(again) and repr(g) == repr(again)


# --- enumeration ----------------------------------------------------------


def test_enumerate_examples():
    assert len(enumerate_graph_morphisms(path_graph(S, ("a", "b")), empty_graph(S))) == 1
    src = Graph(S, (("a", "b"), ("b", "a")))
    tgt = Graph(S, (("a", "a"),))
    ms = enumerate_graph_morphisms(src, tgt)
    assert len(ms) == 2  # frozen by hand: delete both, or contract the loop path
    assert contract_path(S, ("a", "b", "a")) in ms
    assert enumerate_graph_morphisms(empty_graph(S), path_graph(S, ("a", "b"))) == []
    # the order: a deleted edge sorts before edge 0, then fibers decide
    loops = Graph(S, (("a", "a"), ("a", "a")))
    ms = enumerate_graph_morphisms(loops, Graph(S, (("a", "a"),)))
    assert [(m.edge_map, m.fibers) for m in ms] == [
        ((None, None), ((),)),
        ((None, 0), ((1,),)),
        ((0, None), ((0,),)),
        ((0, 0), ((0, 1),)),
        ((0, 0), ((1, 0),)),
    ]


def test_enumerate_deterministic_and_bounded(monkeypatch):
    src = Graph(S, (("a", "b"), ("b", "a")))
    tgt = Graph(S, (("a", "a"), ("a", "b")))
    assert enumerate_graph_morphisms(src, tgt) == enumerate_graph_morphisms(src, tgt)
    # the bound is per graph, the one the suites put on their objects
    assert enumerate_graph_morphisms(Graph(S, (("a", "a"),) * 4), Graph(S, (("a", "a"),) * 3))
    # five edges per graph are admitted; no path of (a,b) edges runs from b to a
    assert enumerate_graph_morphisms(Graph(S, (("a", "b"),) * 5), Graph(S, (("b", "a"),) * 5)) == []

    def refuse(*args):
        raise AssertionError("candidate built past the bound")

    monkeypatch.setattr(graphs, "_morphism_candidates", refuse)
    six = Graph(S, (("a", "b"),) * (graphs.OBJECT_EDGE_BOUND + 1))
    for args in ((six, empty_graph(S)), (empty_graph(S), six)):
        with pytest.raises(SizeBoundExceeded, match="6 edges per object exceeds bound 5"):
            enumerate_graph_morphisms(*args)


# --- operad axioms ---------------------------------------------------------


def test_fiber_over_two_has_sixteen_objects():
    objs = [g for g in enumerate_objects(OperadTag.ASSOC, S, 2) if len(g.edges) == 2]
    assert len(objs) == 16


def test_inert_lift_example():
    g = Graph(S, (("a", "b"), ("b", "a")))
    lift = GraphMorphism(g, Graph(S, (("a", "b"),)), (0, None), ((0,),))
    assert validate_morphism(lift).ok
    assert classify_graph_morphism(lift) is MapClass.INERT
    assert underlying_pointed(lift).images == (1, 0)


def test_operad_axioms_small():
    rep = check_operad_axioms(OperadTag.ASSOC, S, 2)
    assert rep.ok, rep.first_failure()
    rep = check_operad_axioms(OperadTag.ASSOC_POINTED, labelset("a"), 2)
    assert rep.ok, rep.first_failure()


def test_size_bounds_admit_their_limits():
    # 1 + 9,999 objects of at most one edge is exactly OBJECT_BOUND
    graphs._require_enumerable(9999, 1)
    with pytest.raises(SizeBoundExceeded, match="^10001 objects of at most 1 edges exceeds bound 10000$"):
        graphs._require_enumerable(10000, 1)
    graphs._require_enumerable(2, graphs.OBJECT_EDGE_BOUND)
    assert check_operad_axioms(OperadTag.ASSOC, S, 0).ok


def _drop_top_tuple(tuples):
    """_sorted_tuples without its last tuple."""
    return lambda *args: list(tuples(*args))[:-1]


def _repeat_first_two_edge_tuple(tuples):
    """_sorted_tuples that yields its first tuple of two edges twice."""

    def defective(*args):
        for edges, weight in tuples(*args):
            yield edges, weight
            if edges == (("a", "a"), ("a", "a")):
                yield edges, weight

    return defective


def _weigh_as_distinct(tuples):
    """_sorted_tuples that weighs each tuple as if its edges were distinct."""
    return lambda *args: [(edges, math.factorial(len(edges))) for edges, _ in tuples(*args)]


@pytest.mark.parametrize(
    "defect, witness",
    [
        (_drop_top_tuple, "fiber over <3> has 63 objects"),
        (_repeat_first_two_edge_tuple, "sorted tuple (('a', 'a'), ('a', 'a')) generated twice"),
        (_weigh_as_distinct, "fiber over <2> has 20 objects"),
    ],
)
def test_segal_objects_reports_a_defective_generator(monkeypatch, defect, witness):
    # the sorted-tuple generator drops, repeats or misweighs a tuple; every
    # other check still passes
    monkeypatch.setattr(graphs, "_sorted_tuples", defect(graphs._sorted_tuples))
    rep = check_operad_axioms(OperadTag.ASSOC, labelset("a", "b"), 3)
    assert rep.first_failure() == Check("segal-objects", False, witness)
    assert [c.name for c in rep.checks if not c.ok] == ["segal-objects"]


def test_sorted_tuples_weigh_their_edge_orders():
    # each sorted tuple once, in combinations order, weighted by the ordered
    # tuples of objects order that sort to it
    for tag in OperadTag:
        alphabet = allowed_edges(tag, S)
        rank = {ep: r for r, ep in enumerate(alphabet)}
        want = Counter(tuple(sorted(g.edges, key=rank.__getitem__)) for g in enumerate_objects(tag, S, 3))
        got = list(graphs._sorted_tuples(alphabet, 3))
        assert dict(got) == want and list(dict(got)) == list(want), tag
        assert len(got) == len(want), tag


def test_modular_tags_constrain_objects():
    lm = enumerate_objects(OperadTag.LM, S, 1)
    assert all(is_left_modular(g) for g in lm)
    assert len([g for g in lm if g.edges]) == 6
    rm = enumerate_objects(OperadTag.RM, S, 1)
    assert all(is_right_modular(g) for g in rm)


def test_inert_lifts_reports_seeded_defect(monkeypatch):
    # enumerate_inert_from drops its last lift, so some inert base map has none
    original = graphs.enumerate_inert_from
    monkeypatch.setattr(graphs, "enumerate_inert_from", lambda g: original(g)[:-1])
    rep = check_operad_axioms(OperadTag.ASSOC, labelset("a"), 2)
    assert rep.checks[0] == Check("inert-lifts", False, "(): lifts cover 0 of 1 inert base maps")


def _cross_fiber_defect(validate):
    """_validate_indices that also rejects a contraction next to a nonempty fiber.

    It changes real morphism sets only at three or more source edges: a
    fiber of at least two edges whose neighbouring target edge (i-1 or i+1)
    has a nonempty fiber is rejected. Single-edge targets are unaffected.
    """

    def defective(src_edges, tgt_edges, edge_map, fibers):
        rep = validate(src_edges, tgt_edges, edge_map, fibers)
        if rep.ok:
            for i, fib in enumerate(fibers):
                near = [fibers[j] for j in (i - 1, i + 1) if 0 <= j < len(fibers)]
                if len(fib) >= 2 and any(near):
                    return failing("condition-two", f"seeded defect at target edge {i}")
        return rep

    return defective


def test_operad_reports_seeded_defect(monkeypatch):
    monkeypatch.setattr(graphs, "_validate_indices", _cross_fiber_defect(graphs._validate_indices))
    rep = check_operad_axioms(OperadTag.ASSOC, labelset("a"), 3)
    assert rep.first_failure() == Check(
        "segal-morphisms",
        False,
        "(('a', 'a'), ('a', 'a'), ('a', 'a')) -> (('a', 'a'), ('a', 'a')) over (1, 1, 2): "
        "0 whole vs product 2",
    )


def _single_edge_defect(validate):
    """_validate_indices that also rejects a contraction onto a single edge."""

    def defective(src_edges, tgt_edges, edge_map, fibers):
        if len(tgt_edges) == 1 and len(fibers[0]) >= 2:
            return failing("condition-two", "seeded defect on a single-edge target")
        return validate(src_edges, tgt_edges, edge_map, fibers)

    return defective


def test_enumerator_raises_typed_error_on_rejected_candidate(monkeypatch):
    monkeypatch.setattr(graphs, "_validate_indices", _cross_fiber_defect(graphs._validate_indices))
    src, tgt = Graph(S, (("a", "a"),) * 3), Graph(S, (("a", "a"),) * 2)
    with pytest.raises(InvalidCandidate, match=r"candidate \(0, 1, 1\) with fibers \(\(0,\), \(1, 2\)\)"):
        enumerate_graph_morphisms(src, tgt)


def test_operad_reports_single_edge_defect(monkeypatch):
    # a defect only the single-edge factors see is a mismatch, not a crash
    monkeypatch.setattr(graphs, "_validate_indices", _single_edge_defect(graphs._validate_indices))
    rep = check_operad_axioms(OperadTag.ASSOC, labelset("a"), 3)
    assert rep.first_failure() == Check(
        "segal-morphisms",
        False,
        "(('a', 'a'), ('a', 'a')) -> (('a', 'a'), ('a', 'a')) over (1, 1): 2 whole vs product 0",
    )


def test_segal_witness_is_first_failing_target_in_objects_order(monkeypatch):
    # the check walks targets depth-first, which reaches (a,a)(a,a)(a,a)
    # before (b,b)(b,b); objects order, and so the witness, has them reversed
    validate = graphs._validate_indices
    broken = (("b", "b"),) * 2, (("a", "a"),) * 3

    def defective(src_edges, tgt_edges, edge_map, fibers):
        if tgt_edges in broken:
            return failing("condition-two", "seeded defect at a broken target")
        return validate(src_edges, tgt_edges, edge_map, fibers)

    monkeypatch.setattr(graphs, "_validate_indices", defective)
    assert _segal_check(OperadTag.ASSOC, ("a", "b"), 3) == Check(
        "segal-morphisms", False, "() -> (('b', 'b'), ('b', 'b')) over (): 0 whole vs product 1"
    )


def test_operad_validation_work(monkeypatch):
    # every whole candidate of every visited pair is validated once; a
    # single-edge target's candidates only as the factors, not again as a
    # whole target; every inert lift of every visited source once. Only one
    # source per orbit of edge orders and label swaps is visited: {a} has one
    # edge kind, so every object, and {a,b} its orbit representatives
    validate = graphs._validate_indices
    calls = []

    def counting(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(graphs, "_validate_indices", counting)
    for names, want in ((("a",), 246), (("a", "b"), 1570)):
        calls.clear()
        assert check_operad_axioms(OperadTag.ASSOC, labelset(*names), 3).ok
        assert len(calls) == want, names


def test_passing_morphism_report_is_the_plain_pass():
    rep = validate_morphism(contract_path(S, ("a", "b", "a")))
    assert rep == passing("morphism")
    assert validate_morphism(identity_morphism(Graph(S, (("a", "b"),)))) == rep


def test_report_verdict_computed_once():
    # the walk reads `ok` on every candidate's report; reading it caches
    # it without changing what the report equals, hashes to or prints as
    rep, fresh = failing("x", "w"), failing("x", "w")
    assert not rep.ok and "ok" in vars(rep)
    assert rep == fresh and hash(rep) == hash(fresh) and repr(rep) == repr(fresh)
    assert repr(rep) == "ValidationReport(checks=(Check(name='x', ok=False, witness='w'),))"
    assert passing("y").ok and ValidationReport((Check("y", True), Check("x", False))).ok is False


def test_read_once_runs_once_per_instance_and_stores_in_its_dict():
    runs = []

    class Counted:
        def __init__(self, x):
            self.x = x

        @read_once
        def doubled(self):
            """Twice x."""
            runs.append(self)
            return 2 * self.x

    a, b = Counted(1), Counted(5)
    assert (a.doubled, a.doubled, b.doubled, a.doubled) == (2, 2, 10, 2)
    assert runs == [a, b]
    assert vars(a)["doubled"] == 2 and vars(b)["doubled"] == 10
    assert isinstance(Counted.doubled, read_once) and Counted.doubled.__doc__ == "Twice x."


def test_graph_hash_is_the_field_hash_and_stays_out_of_eq_and_repr():
    edges = (("a", "b"), ("b", STAR))
    unchecked = graphs._unchecked_graph(SP, edges)
    public = Graph(SP, [list(e) for e in edges])
    assert unchecked == public
    assert hash(unchecked) == hash(public) == hash((SP, edges))
    assert "_hash" in vars(public) and "_hash" not in vars(Graph(SP, edges))
    assert public == Graph(SP, edges) and repr(public) == repr(Graph(SP, edges))
    assert "_hash" not in repr(public)
    assert {public: 1}[unchecked] == 1


def test_operad_axioms_never_call_public_enumerator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_graph_morphisms called")

    monkeypatch.setattr(graphs, "enumerate_graph_morphisms", refuse)
    assert check_operad_axioms(OperadTag.ASSOC, labelset("a"), 3).ok


# --- reference implementations ----------------------------------------------
# The product loops that the chain-pool search replaced, kept to check it.


def _reference_enumerate(src, tgt):
    """Every edge assignment combined with every fiber ordering, validated."""
    n, m = len(src.edges), len(tgt.edges)
    out = []
    for assignment in itertools.product((None,) + tuple(range(m)), repeat=n):
        fibersets = [[] for _ in range(m)]
        for e, v in enumerate(assignment):
            if v is not None:
                fibersets[v].append(e)
        pools = [
            [o for o in itertools.permutations(fib) if graphs._chain_ok(src.edges, o, *tgt.edges[i])]
            for i, fib in enumerate(fibersets)
        ]
        for combo in itertools.product(*pools):
            cand = GraphMorphism(src, tgt, assignment, combo)
            assert validate_morphism(cand).ok
            out.append(cand)
    out.sort(key=graphs._morphism_sort_key)
    return out


def _reference_whole_counts(src_edges, tgt_edges):
    """Counts grouped by base map, checking each fiber with _chain_ok only."""
    n, m = len(src_edges), len(tgt_edges)
    counts = {}
    for assignment in itertools.product(range(m + 1), repeat=n):
        fibersets = [[] for _ in range(m)]
        for e, v in enumerate(assignment):
            if v:
                fibersets[v - 1].append(e)
        total = 0
        for combo in itertools.product(*(itertools.permutations(f) for f in fibersets)):
            if all(graphs._chain_ok(src_edges, combo[i], *tgt_edges[i]) for i in range(m)):
                total += 1
        if total:
            counts[assignment] = total
    return counts


def _reference_single_edge_counts(src, alphabet):
    """Morphism counts into each single-edge graph, grouped by kept-edge mask.

    Computed through the public enumerator so the whole-morphism validator
    is the authority for the per-edge factors.
    """
    out = {}
    for ep in alphabet:
        tgt = Graph(src.labels, (ep,))
        grouped = {}
        for m in enumerate_graph_morphisms(src, tgt):
            mask = 0
            for e, v in enumerate(m.edge_map):
                if v is not None:
                    mask |= 1 << e
            grouped[mask] = grouped.get(mask, 0) + 1
        out[ep] = grouped
    return out


def _reference_check_segal_morphisms(objects, alphabet):
    """The (m+1)^n product loop over every base map of every pair."""
    pairs_checked = 0
    for src in objects:
        n = len(src.edges)
        per_edge = _reference_single_edge_counts(src, alphabet)
        for tgt in objects:
            m = len(tgt.edges)
            whole = _reference_whole_counts(src.edges, tgt.edges)
            for assignment in itertools.product(range(m + 1), repeat=n):
                masks = [0] * m
                for e, v in enumerate(assignment):
                    if v:
                        masks[v - 1] |= 1 << e
                product = 1
                for i in range(m):
                    product *= per_edge[tgt.edges[i]].get(masks[i], 0)
                if whole.get(assignment, 0) != product:
                    return Check(
                        "segal-morphisms",
                        False,
                        f"{src.edges} -> {tgt.edges} over {assignment}: "
                        f"{whole.get(assignment, 0)} whole vs product {product}",
                    )
            pairs_checked += 1
    return Check("segal-morphisms", True, f"{pairs_checked} source/target pairs")


def _segal_inputs(tag, names, max_edges):
    labels = labelset(*names)
    return enumerate_objects(tag, labels, max_edges), allowed_edges(tag, labels)


def _shipped_orbits(tag, names, max_edges):
    """_orbits as check_operad_axioms computes it, and the edge alphabet."""
    alphabet = allowed_edges(tag, labelset(*names))
    return graphs._orbits(graphs._sorted_tuples(alphabet, max_edges), alphabet), alphabet


def _inert_check(tag, names, max_edges):
    """inert-lifts as check_operad_axioms decides it: once per orbit."""
    (sources, _), _ = _shipped_orbits(tag, names, max_edges)
    return graphs._inert_walk(graphs.tag_labels(tag, labelset(*names)), sources)


def _segal_check(tag, names, max_edges):
    """segal-morphisms as check_operad_axioms decides it: once per orbit."""
    (sources, weights), alphabet = _shipped_orbits(tag, names, max_edges)
    return graphs._segal_walk(sources, weights, alphabet, max_edges)


def _full_inert_walk(objects):
    """The inert walk with every object its own source."""
    return graphs._inert_walk(objects[0].labels, [(g.edges, 1) for g in objects])


def _full_segal_walk(objects):
    """The segal walk over every source and every target, from the shipped
    per-source step: the first failing source in objects order, at its first
    failing target in objects order."""
    position = {g.edges: k for k, g in enumerate(objects)}
    trie = graphs._target_trie(position)
    pairs = 0
    for src in objects:
        compared, mismatches = graphs._segal_source(src.edges, trie)
        if mismatches:
            k, base, whole, product = min((position[edges], *rest) for edges, *rest in mismatches)
            witness = f"{src.edges} -> {objects[k].edges} over {base}: {whole} whole vs product {product}"
            return Check("segal-morphisms", False, witness)
        pairs += len(compared)
    return Check("segal-morphisms", True, f"{pairs} source/target pairs")


def test_segal_search_matches_reference(monkeypatch):
    for tag in OperadTag:
        for names, max_edges in ((("a",), 3), (("a", "b"), 2)):
            got = _segal_check(tag, names, max_edges)
            assert got.ok, (tag, names, got)
            assert got == _reference_check_segal_morphisms(*_segal_inputs(tag, names, max_edges)), (tag, names)
    # the reference never validates a whole morphism, so it misses the defect
    monkeypatch.setattr(graphs, "_validate_indices", _cross_fiber_defect(graphs._validate_indices))
    assert _reference_check_segal_morphisms(*_segal_inputs(OperadTag.ASSOC, ("a",), 3)).ok
    assert not _segal_check(OperadTag.ASSOC, ("a",), 3).ok


def _reference_validate_morphism(m):
    """validate_morphism's body from before it delegated to
    _validate_indices, kept to compare reports with."""
    if m.source.labels is not m.target.labels and m.source.labels != m.target.labels:
        return failing("label-sets", f"{m.source.labels} vs {m.target.labels}")
    seen = set()
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
        elif not graphs._chain_ok(m.source.edges, fib, s, t):
            return failing("condition-two", f"fiber {fib} of target edge {i} is not a path ({s},{t})")
    return passing("morphism")


def _seeded_corruptions():
    """Morphisms that fail the validator where its one pass takes a short
    cut, with the failure the reference reports first."""
    six = Graph(S, (("a", "b"),) * 6)
    one = Graph(S, (("a", "b"),))
    return [
        # a one-edge fiber on an edge with the wrong source or target
        (GraphMorphism(Graph(S, (("b", "b"),)), one, (0,), ((0,),)), "fiber (0,) of target edge 0 is not a path (a,b)"),
        (GraphMorphism(Graph(S, (("a", "a"),)), one, (0,), ((0,),)), "fiber (0,) of target edge 0 is not a path (a,b)"),
        # a repeat within a fiber is reported before a later wrong edge map
        (GraphMorphism(six, one, (None, None, None, 0, None, None), ((3, 3, 5),)), "edge 3 listed twice"),
        # an edge mapped but listed in no fiber, after a path failure
        (
            GraphMorphism(Graph(S, (("b", "a"), ("a", "b"))), one, (0, 0), ((0,),)),
            "edge 1 mapped to 0 but missing from its fiber",
        ),
    ]


def test_validator_matches_reference_body():
    # every candidate between the objects of each tag over {a,b} with <=2
    # edges and of assoc over {a} with <=3; the singleton-fiber and
    # malformed maps add partition and label-set failures; the criterion-3
    # pairings at (1,1), (1,2) and (2,1) are valid inerts, and the seeded
    # corruptions fail where the one pass takes its short cuts
    object_sets = [_segal_inputs(tag, ("a", "b"), 2)[0] for tag in OperadTag]
    object_sets.append(_segal_inputs(OperadTag.ASSOC, ("a",), 3)[0])
    ms = [
        GraphMorphism(src, tgt, edge_map, fibers)
        for objects in object_sets
        for src, tgt in itertools.product(objects, repeat=2)
        for edge_map, fibers in _all_candidates(len(src.edges), len(tgt.edges))
    ]
    ms += _singleton_fiber_morphisms(SP) + _malformed_inerts()
    for s_names, t_names in ((("a",), ("c",)), (("a",), ("c", "d")), (("a", "b"), ("c",))):
        sp = labelset(*s_names, pointed=True)
        tp = labelset(*t_names, pointed=True)
        lefts = [m for g in enumerate_objects(OperadTag.LM, sp, 2) for m in enumerate_inert_from(g)]
        rights = [m for g in enumerate_objects(OperadTag.RM, tp, 2) for m in enumerate_inert_from(g)]
        pairs = [pairing_inert(m0, m1) for m0 in lefts for m1 in rights]
        assert len(pairs) == {1: 625, 2: 4825}[len(s_names) * len(t_names)]
        ms += pairs
    for m, witness in _seeded_corruptions():
        assert _reference_validate_morphism(m).first_failure().witness == witness
        ms.append(m)
    verdicts = Counter()
    for m in ms:
        want = _reference_validate_morphism(m)
        assert validate_morphism(m) == want, m
        verdicts[want.ok or want.first_failure().name] += 1
    assert set(verdicts) == {True, "label-sets", "fiber-partition", "condition-one", "condition-two"}


def test_enumerate_matches_reference():
    objects = enumerate_objects(OperadTag.ASSOC_POINTED, S, 2)
    assert len(objects) == 91
    for src in objects:
        for tgt in objects:
            assert enumerate_graph_morphisms(src, tgt) == _reference_enumerate(src, tgt), (src, tgt)


# --- orbit reduction ----------------------------------------------------------
# The shipped check decides one edge order per orbit. These tests prove, at
# small bounds, the equivariance that makes that exact.


@functools.lru_cache(maxsize=None)
def _all_candidates(n, m):
    """Every edge assignment of n source edges to m target edges, with every
    ordering of every fiber."""
    out = []
    for assignment in itertools.product((None,) + tuple(range(m)), repeat=n):
        fibersets = [[e for e, v in enumerate(assignment) if v == i] for i in range(m)]
        for fibers in itertools.product(*(itertools.permutations(f) for f in fibersets)):
            out.append((assignment, fibers))
    return out


def _accepted(src, tgt):
    """The candidates src -> tgt that validate_morphism accepts."""
    return frozenset(
        (edge_map, fibers)
        for edge_map, fibers in _all_candidates(len(src.edges), len(tgt.edges))
        if graphs.validate_morphism(GraphMorphism(src, tgt, edge_map, fibers)).ok
    )


def _inverse(perm):
    return {old: new for new, old in enumerate(perm)}


def _permuted_morphisms(morphisms, sigma, tau):
    """Carry morphisms along new source edge i = old sigma[i] and new target
    edge j = old tau[j]."""
    s_inv, t_inv = _inverse(sigma), _inverse(tau)
    return frozenset(
        (
            tuple(None if edge_map[old] is None else t_inv[edge_map[old]] for old in sigma),
            tuple(tuple(s_inv[e] for e in fibers[old]) for old in tau),
        )
        for edge_map, fibers in morphisms
    )


def _base_counts(morphisms):
    """Whole counts per base map (0 deletes, i + 1 hits target edge i)."""
    return Counter(graphs._base_map(edge_map) for edge_map, _ in morphisms)


def _permuted_base_counts(counts, sigma, tau):
    t_inv = _inverse(tau)
    return Counter({
        tuple(0 if base[old] == 0 else t_inv[base[old] - 1] + 1 for old in sigma): count
        for base, count in counts.items()
    })


def _kept_mask(edge_map):
    return sum(1 << e for e, v in enumerate(edge_map) if v is not None)


def _factor_table(accepted, src, alphabet):
    """Per single edge, the accepted morphisms from src counted per kept-edge mask."""
    return {ep: Counter(_kept_mask(edge_map) for edge_map, _ in accepted[src, (ep,)]) for ep in alphabet}


def _permuted_factor_table(table, sigma):
    s_inv = _inverse(sigma)
    return {
        ep: Counter({sum(1 << s_inv[e] for e in sigma if mask >> e & 1): count for mask, count in per_mask.items()})
        for ep, per_mask in table.items()
    }


def _first_non_equivariant(objects, alphabet):
    """The first pair, with a permutation of one side's edges, that changes
    the accepted set, the whole counts or the single-edge factor tables
    other than by permuting them; None when every one is permuted.

    Every permuted tuple is itself an object, and a permutation of both
    sides is one of the source's then one of the target's, so each side's
    permutations are tried on every pair."""
    accepted = {(s.edges, t.edges): _accepted(s, t) for s in objects for t in objects}
    counts = {pair: _base_counts(morphisms) for pair, morphisms in accepted.items()}
    tables = {g.edges: _factor_table(accepted, g.edges, alphabet) for g in objects}
    for src, table in tables.items():
        for sigma in itertools.permutations(range(len(src))):
            if tables[tuple(src[i] for i in sigma)] != _permuted_factor_table(table, sigma):
                return ("factors", src, sigma)
    for (src, tgt), morphisms in accepted.items():
        keep_src, keep_tgt = tuple(range(len(src))), tuple(range(len(tgt)))
        moves = [(sigma, keep_tgt) for sigma in itertools.permutations(keep_src)]
        moves += [(keep_src, tau) for tau in itertools.permutations(keep_tgt)]
        for sigma, tau in moves:
            pair = tuple(src[i] for i in sigma), tuple(tgt[j] for j in tau)
            if accepted[pair] != _permuted_morphisms(morphisms, sigma, tau):
                return ("accepted", src, tgt, sigma, tau)
            if counts[pair] != _permuted_base_counts(counts[src, tgt], sigma, tau):
                return ("counts", src, tgt, sigma, tau)
    return None


@pytest.mark.parametrize("tag", list(OperadTag))
@pytest.mark.parametrize("names, max_edges", [(("a",), 3), (("a", "b"), 2)])
def test_segal_counts_are_equivariant(tag, names, max_edges):
    # permuting a pair's source or target edges carries the accepted set onto
    # itself and permutes, without changing, the counts the check compares
    assert _first_non_equivariant(*_segal_inputs(tag, names, max_edges)) is None


def test_equivariance_sees_an_order_dependent_defect(monkeypatch):
    # the cross-fiber defect looks at neighbouring target edges, so it is not
    # carried along a permutation of the target's edges
    monkeypatch.setattr(graphs, "_validate_indices", _cross_fiber_defect(graphs._validate_indices))
    found = _first_non_equivariant(*_segal_inputs(OperadTag.ASSOC, ("a",), 3))
    assert found is not None and found[0] == "accepted"


@pytest.mark.parametrize("defect", [None, _cross_fiber_defect, _single_edge_defect])
def test_orbit_walk_matches_full_walk(monkeypatch, defect):
    # the shipped walk gives the full walk's Check, witness included
    if defect is not None:
        monkeypatch.setattr(graphs, "_validate_indices", defect(graphs._validate_indices))
    for tag in OperadTag:
        for names, max_edges in ((("a",), 3), (("a", "b"), 2), (("a", "b"), 3)):
            got = _segal_check(tag, names, max_edges)
            assert got == _full_segal_walk(_segal_inputs(tag, names, max_edges)[0]), (tag, names, max_edges)


def _lift_records(g):
    """The inert lifts out of g, each with its validate and classify verdicts
    and its base map, counted."""
    return Counter(
        (
            m.edge_map,
            m.fibers,
            m.target.edges,
            graphs.validate_morphism(m).ok,
            graphs.classify_graph_morphism(m),
            graphs.underlying_pointed(m).images,
        )
        for m in graphs.enumerate_inert_from(g)
    )


def _permuted_lift_records(records, sigma):
    """Carry lift records along new source edge i = old sigma[i]; each lift
    keeps its target, its verdicts and, permuted, its base map."""
    s_inv = _inverse(sigma)
    return Counter({
        (
            tuple(edge_map[old] for old in sigma),
            tuple(tuple(s_inv[e] for e in fib) for fib in fibers),
            target,
            ok,
            cls,
            tuple(base[old] for old in sigma),
        ): count
        for (edge_map, fibers, target, ok, cls, base), count in records.items()
    })


def _first_non_equivariant_lifts(objects):
    """The first object, with a permutation of its edges, whose permuted
    object's inert lifts are not its own lifts permuted; None when every
    one is."""
    records = {g.edges: _lift_records(g) for g in objects}
    for edges, lifts in records.items():
        for sigma in itertools.permutations(range(len(edges))):
            if records[tuple(edges[i] for i in sigma)] != _permuted_lift_records(lifts, sigma):
                return (edges, sigma)
    return None


@pytest.mark.parametrize("tag", list(OperadTag))
@pytest.mark.parametrize("names, max_edges", [(("a",), 3), (("a", "b"), 2)])
def test_inert_lifts_are_equivariant(tag, names, max_edges):
    # permuting a source's edges carries its inert lifts onto the permuted
    # source's, with the same verdicts and permuted base maps
    objects, _ = _segal_inputs(tag, names, max_edges)
    assert _first_non_equivariant_lifts(objects) is None


def _unsorted(alphabet):
    rank = {ep: r for r, ep in enumerate(alphabet)}
    return lambda edges: list(edges) != sorted(edges, key=rank.__getitem__)


def _drop_at_unsorted(enumerate_inert, alphabet):
    """enumerate_inert_from that drops its last lift at a source whose edges
    are not sorted by alphabet rank."""
    unsorted = _unsorted(alphabet)
    return lambda g: enumerate_inert(g)[:-1] if unsorted(g.edges) else enumerate_inert(g)


def test_inert_equivariance_sees_an_order_dependent_defect(monkeypatch):
    # a defect only unsorted sources show escapes the orbit walk; the
    # equivariance proof is what rules it out
    objects, alphabet = _segal_inputs(OperadTag.ASSOC, ("a", "b"), 2)
    monkeypatch.setattr(graphs, "enumerate_inert_from", _drop_at_unsorted(graphs.enumerate_inert_from, alphabet))
    assert _inert_check(OperadTag.ASSOC, ("a", "b"), 2) == Check("inert-lifts", True, "21 objects")
    assert _full_inert_walk(objects) == Check(
        "inert-lifts", False, "(('a', 'b'), ('a', 'a')): lifts cover 4 of 5 inert base maps"
    )
    assert _first_non_equivariant_lifts(objects) == ((("a", "a"), ("a", "b")), (1, 0))


def _drop_last_lift(enumerate_inert, alphabet):
    return lambda g: enumerate_inert(g)[:-1]


def _shape(edge):
    """What renaming base labels keeps of an edge: which endpoints are the
    basepoint, and whether it is a loop."""
    s, t = edge
    return s == STAR, t == STAR, s == t


def _drop_at_unsorted_or_last_kind(enumerate_inert, alphabet):
    """enumerate_inert_from that drops its last lift at an unsorted source and
    at one of two or more edges all shaped like the alphabet's last kind. It
    is not equivariant, so the first failing object in objects order can be
    an unsorted one before every hit orbit's first member, where the orbit
    walk fails. The shape is label-invariant, so the orbit walk still meets
    a hit source."""
    unsorted = _unsorted(alphabet)
    last = _shape(alphabet[-1])

    def defective(g):
        lifts = enumerate_inert(g)
        hit = unsorted(g.edges) or (len(g.edges) >= 2 and {_shape(e) for e in g.edges} == {last})
        return lifts[:-1] if hit else lifts

    return defective


# the first member, in objects order, of the first orbit that
# _drop_at_unsorted_or_last_kind hits, by tag
_FIRST_HIT_ORBIT = {
    OperadTag.ASSOC: (("a", "a"), ("a", "a")),
    OperadTag.ASSOC_POINTED: ((STAR, STAR), (STAR, STAR)),
    OperadTag.LM: (("a", STAR), ("a", STAR)),
    OperadTag.RM: ((STAR, "a"), (STAR, "a")),
}


def _permuted_target_defect(validate, alphabet):
    """validate_morphism that also rejects a morphism whose fibers are single
    source edges listed out of source order."""

    def defective(m):
        if all(len(fib) == 1 for fib in m.fibers) and list(m.fibers) != sorted(m.fibers):
            return failing("condition-two", "seeded defect on a permuted target")
        return validate(m)

    return defective


def _swap_is_neither(classify, alphabet):
    """classify_graph_morphism that calls the lift swapping a two-edge
    source's edges NEITHER."""
    return lambda m: MapClass.NEITHER if m.fibers == ((1,), (0,)) else classify(m)


@pytest.mark.parametrize(
    "name, defect",
    [
        (None, None),
        ("enumerate_inert_from", _drop_last_lift),
        ("enumerate_inert_from", _drop_at_unsorted_or_last_kind),
        ("validate_morphism", _permuted_target_defect),
        ("classify_graph_morphism", _swap_is_neither),
    ],
)
def test_inert_orbit_walk_matches_full_walk(monkeypatch, name, defect):
    # the shipped walk gives the full walk's Check, witness included, for
    # every equivariant defect; for the one that is not, the first member of
    # the first failing orbit, which only for assoc is the full walk's witness
    original = getattr(graphs, name) if name else None
    for tag in OperadTag:
        for names, max_edges in ((("a",), 3), (("a", "b"), 2), (("a", "b"), 3)):
            objects, alphabet = _segal_inputs(tag, names, max_edges)
            if defect is not None:
                monkeypatch.setattr(graphs, name, defect(original, alphabet))
            got = _inert_check(tag, names, max_edges)
            if defect is _drop_at_unsorted_or_last_kind:
                witness = f"{_FIRST_HIT_ORBIT[tag]}: lifts cover 4 of 5 inert base maps"
                assert got == Check("inert-lifts", False, witness), (tag, names, max_edges)
            else:
                assert got == _full_inert_walk(objects), (tag, names, max_edges)
            assert got.ok is (defect is None), (tag, names, max_edges, got)


# --- label symmetry -----------------------------------------------------------
# Renaming the base labels, the basepoint fixed, is an automorphism of each
# operad. The shipped walks also decide one source per orbit of renamings;
# these tests prove, at small bounds, the invariance that makes that exact.


def _renamings(names):
    """Per permutation of the base labels, the map renaming an edge tuple."""
    out = []
    for perm in itertools.permutations(names):
        to = dict(zip(names, perm), **{STAR: STAR})
        out.append((perm, lambda edges, to=to: tuple((to[s], to[t]) for s, t in edges)))
    return out


def _reference_orbits(objects, alphabet, names):
    """Each orbit's first member's edges with the objects in its orbit, and
    the objects sorting to each sorted tuple, by brute force over every
    renaming of every object."""
    rank = {ep: r for r, ep in enumerate(alphabet)}

    def ranked(edges):
        return tuple(sorted(edges, key=rank.__getitem__))

    def least(edges):
        return min((ranked(rename(edges)) for _, rename in _renamings(names)), key=lambda e: [rank[ep] for ep in e])

    orbit = {g.edges: least(g.edges) for g in objects}
    sizes = Counter(orbit.values())
    first = {}
    for g in objects:
        first.setdefault(orbit[g.edges], g)
    return [(g.edges, sizes[o]) for o, g in first.items()], Counter(ranked(g.edges) for g in objects)


@pytest.mark.parametrize("tag", list(OperadTag))
def test_orbit_sources_match_brute_force(tag):
    # one first member per orbit, weighted by the objects of its orbit, from
    # the sorted tuples alone
    for names, max_edges in ((("a", "b"), 3), (("a", "b", "c"), 2)):
        objects, alphabet = _segal_inputs(tag, names, max_edges)
        got, _ = _shipped_orbits(tag, names, max_edges)
        assert got == _reference_orbits(objects, alphabet, names), (tag, names)
        assert sum(n for _, n in got[0]) == sum(got[1].values()) == len(objects)


def test_operad_axioms_build_orbit_sources_once(monkeypatch):
    # inert-lifts and segal-morphisms share one count of the orbits, and a
    # failing check builds it no more often than a passing one
    real = graphs._orbits
    built = []

    def counting(tuples, alphabet):
        built.append(sum(weight for _, weight in tuples))
        return real(tuples, alphabet)

    monkeypatch.setattr(graphs, "_orbits", counting)
    for tag in OperadTag:
        built.clear()
        assert check_operad_axioms(tag, S, 2).ok, tag
        assert built == [len(enumerate_objects(tag, S, 2))], tag
    monkeypatch.setattr(graphs, "_validate_indices", _single_edge_defect(graphs._validate_indices))
    built.clear()
    assert not check_operad_axioms(OperadTag.ASSOC, S, 2).ok
    assert built == [21]


def test_operad_axioms_build_only_orbit_sources(monkeypatch):
    # no ordered object list and no public Graph construction, passing or
    # failing: the inert walk builds each orbit source, and a segal failure
    # walks its source again over plain ordered tuples
    def refuse(*args):
        raise AssertionError("built an object graph")

    lifted = []

    def recording(g, real=graphs.enumerate_inert_from):
        lifted.append(g.edges)
        return real(g)

    monkeypatch.setattr(graphs, "enumerate_objects", refuse)
    monkeypatch.setattr(Graph, "__post_init__", refuse)
    monkeypatch.setattr(graphs, "enumerate_inert_from", recording)
    (sources, _), _ = _shipped_orbits(OperadTag.LM, ("a", "b"), 3)
    assert check_operad_axioms(OperadTag.LM, S, 3).ok
    assert lifted == [edges for edges, _ in sources]
    monkeypatch.setattr(graphs, "_validate_indices", _single_edge_defect(graphs._validate_indices))
    assert check_operad_axioms(OperadTag.ASSOC, S, 2).first_failure().name == "segal-morphisms"


def _accepted_indices(src_edges, tgt_edges):
    """The index data of enumerate_graph_morphisms' candidates that
    _validate_indices accepts."""
    return frozenset(
        (edge_map, fibers)
        for edge_map, fibers in graphs._morphism_candidates(src_edges, tgt_edges, {})
        if graphs._validate_indices(src_edges, tgt_edges, edge_map, fibers).ok
    )


def _renamed_lift_records(records, rename):
    """Lift records whose targets are renamed; index data and verdicts stay."""
    return Counter({
        (edge_map, fibers, rename(target), ok, cls, base): count
        for (edge_map, fibers, target, ok, cls, base), count in records.items()
    })


def _first_label_asymmetry(objects, names):
    """The first renaming, with the first pair whose accepted index data it
    changes when applied to both sides, or the first source whose inert-lift
    records it changes other than by renaming their targets; None when every
    renaming keeps them all."""
    edge_tuples = [g.edges for g in objects]
    accepted = {(s, t): _accepted_indices(s, t) for s in edge_tuples for t in edge_tuples}
    records = {g.edges: _lift_records(g) for g in objects}
    for perm, rename in _renamings(names):
        for (src, tgt), data in accepted.items():
            if accepted[rename(src), rename(tgt)] != data:
                return ("accepted", src, tgt, perm)
        for edges, lifts in records.items():
            if records[rename(edges)] != _renamed_lift_records(lifts, rename):
                return ("lifts", edges, perm)
    return None


@pytest.mark.parametrize("tag", list(OperadTag))
@pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c")])
def test_morphisms_and_lifts_are_label_invariant(tag, names):
    # renaming the base labels of both sides keeps what the segal walk counts
    # and what the inert walk checks
    objects, _ = _segal_inputs(tag, names, 2)
    assert _first_label_asymmetry(objects, names) is None


def _last_label_source_defect(validate, last):
    """_validate_indices that also rejects every candidate into a target of
    two or more edges from a source whose first edge starts at the last base
    label; no source the orbit walks visit starts there."""

    def defective(src_edges, tgt_edges, edge_map, fibers):
        if len(tgt_edges) >= 2 and src_edges and src_edges[0][0] == last:
            return failing("condition-two", "seeded defect at a source starting at the last label")
        return validate(src_edges, tgt_edges, edge_map, fibers)

    return defective


def test_label_invariance_sees_a_label_dependent_defect(monkeypatch):
    # a defect only sources the orbit walks skip show escapes them; the
    # label-invariance proof is what rules it out
    monkeypatch.setattr(graphs, "_validate_indices", _last_label_source_defect(graphs._validate_indices, "b"))
    for tag in OperadTag:
        assert _segal_check(tag, ("a", "b"), 2).ok, tag
        assert _inert_check(tag, ("a", "b"), 2).ok, tag
    objects, _ = _segal_inputs(OperadTag.ASSOC, ("a", "b"), 2)
    assert _segal_check(OperadTag.ASSOC, ("a", "b"), 2) == Check("segal-morphisms", True, "441 source/target pairs")
    assert _full_segal_walk(objects) == Check(
        "segal-morphisms", False, "(('b', 'a'),) -> (('a', 'a'), ('a', 'a')) over (0,): 0 whole vs product 1"
    )
    assert _first_label_asymmetry(objects, ("a", "b")) == ("accepted", (("a", "a"),), (("a", "a"), ("a", "a")), ("b", "a"))


def _five_equal_edges_defect(validate):
    """_validate_indices that also rejects every candidate out of a source of
    five equal edges into a target of two or more edges that has a fiber of
    two or more edges."""

    def defective(src_edges, tgt_edges, edge_map, fibers):
        if len(set(src_edges)) == 1 and len(src_edges) == 5 and len(tgt_edges) >= 2 and max(map(len, fibers)) >= 2:
            return failing("condition-two", "seeded defect out of five equal edges")
        return validate(src_edges, tgt_edges, edge_map, fibers)

    return defective


def test_segal_failure_at_the_enumeration_bound_walks_one_source_over_every_target(monkeypatch):
    # lm {a,b} at <=5 edges, as criterion 1 decides it: the orbit walk finds
    # the failing orbit, and only its first member is walked again, over every
    # target, for the witness
    monkeypatch.setattr(graphs, "_validate_indices", _five_equal_edges_defect(graphs._validate_indices))
    step = graphs._segal_source
    walked = []

    def recording(src_edges, trie):
        compared, mismatches = step(src_edges, trie)
        walked.append((src_edges, len(compared)))
        return compared, mismatches

    monkeypatch.setattr(graphs, "_segal_source", recording)
    rep = check_operad_axioms(OperadTag.LM, S, 5)
    five = (("a", "a"),) * 5
    assert rep.first_failure() == Check(
        "segal-morphisms", False, f"{five} -> (('a', 'a'), ('a', 'a')) over (0, 0, 0, 1, 1): 0 whole vs product 2"
    )
    # the orbit walk fails at five over its sorted targets; walking five
    # again is the only walk over every target
    every = len(enumerate_objects(OperadTag.LM, S, 5))
    assert walked[-2][0] == walked[-1][0] == five
    assert [n for _, n in walked].count(every) == 1 and walked[-1][1] == every


def test_many_labels_decided_without_all_permutations():
    # 99 labels at one edge: orbits enumerate injections of the labels a
    # source uses, never the 99! permutations of all of them
    labels = labelset(*(f"l{i}" for i in range(99)))
    assert check_operad_axioms(OperadTag.ASSOC, labels, 1) == ValidationReport((
        Check("inert-lifts", True, "9802 objects"),
        Check("segal-objects", True, "fibers match 9801^n for n<=1"),
        Check("segal-morphisms", True, "96079204 source/target pairs"),
    ))
