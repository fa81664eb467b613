import itertools

import pytest

from oplab import graphs
from oplab.errors import (
    InvalidLabels,
    LabelSetMismatch,
    MissingLabelImage,
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
    codiagonal,
    compose_graph_morphisms,
    contract_path,
    delete_edge,
    empty_graph,
    enumerate_graph_morphisms,
    enumerate_inert_from,
    enumerate_objects,
    factorize_graph_morphism,
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
    relabel_graph,
    relabel_morphism,
    reverse_graph,
    reverse_morphism,
    right_label,
    tensor_graphs,
    tensor_morphisms,
    underlying_pointed,
    validate_morphism,
)
from oplab.report import Check, ValidationReport, failing, passing

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


# --- classification and factorization ------------------------------------


def test_classify_generators():
    assert classify_graph_morphism(delete_edge(S, "a", "b")) is MapClass.INERT
    assert classify_graph_morphism(add_loop(S, "a")) is MapClass.ACTIVE
    assert classify_graph_morphism(contract_path(S, ("a", "b", "a"))) is MapClass.ACTIVE


def test_factorize_mixed_morphism():
    # delete edge 0, contract edges 1 and 2
    src = Graph(S, (("a", "a"), ("a", "b"), ("b", "a")))
    tgt = Graph(S, (("a", "a"),))
    m = GraphMorphism(src, tgt, (None, 0, 0), ((1, 2),))
    inert, active = factorize_graph_morphism(m)
    assert classify_graph_morphism(inert) is MapClass.INERT
    assert classify_graph_morphism(active) in (MapClass.ACTIVE, MapClass.BOTH)
    assert inert.target.edges == (("a", "b"), ("b", "a"))
    assert compose_graph_morphisms(inert, active) == m


def test_factorize_exhaustive():
    for a, b in itertools.product(small_graphs(S, 2), repeat=2):
        for m in enumerate_graph_morphisms(a, b):
            inert, active = factorize_graph_morphism(m)
            assert validate_morphism(inert).ok and validate_morphism(active).ok
            assert classify_graph_morphism(inert) in (MapClass.INERT, MapClass.BOTH)
            assert classify_graph_morphism(active) in (MapClass.ACTIVE, MapClass.BOTH)
            assert compose_graph_morphisms(inert, active) == m
            if classify_graph_morphism(m) is MapClass.INERT:
                assert inert == m
            if classify_graph_morphism(m) is MapClass.ACTIVE:
                assert active == m


# --- generators -----------------------------------------------------------


def test_generator_shapes():
    d = delete_edge(SP, "a", "b")
    assert d.target == empty_graph(SP)
    loop = add_loop(S, "b")
    assert loop.target.edges == (("b", "b"),)
    assert loop.fibers == ((),)
    c = contract_path(S, ("a", "b", "b"))
    assert c.fibers == ((0, 1),)
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


# --- relabeling -----------------------------------------------------------


def test_relabel_basepoint_filling():
    g = path_graph(SP, ("b", STAR))
    out = relabel_graph(g, {"a": "a", "b": "b", STAR: "a"}, S)
    assert out.edges == (("b", "a"),)


def test_relabel_identity_and_functorial():
    g = path_graph(S, ("a", "b", "a"))
    ident = {x: x for x in S.labels}
    assert relabel_graph(g, ident, S) == g
    T = labelset("u", "v")
    U = labelset("w")
    h1 = {"a": "u", "b": "v"}
    h2 = {"u": "w", "v": "w"}
    assert relabel_graph(relabel_graph(g, h1, T), h2, U) == relabel_graph(
        g, {k: h2[v] for k, v in h1.items()}, U
    )
    m = contract_path(S, ("a", "b", "a"))
    rm = relabel_morphism(m, h1, T)
    assert validate_morphism(rm).ok
    assert rm.edge_map == m.edge_map and rm.fibers == m.fibers
    assert relabel_morphism(rm, h2, U) == relabel_morphism(
        m, {k: h2[v] for k, v in h1.items()}, U
    )


def test_relabel_missing_image():
    with pytest.raises(MissingLabelImage):
        relabel_graph(path_graph(S, ("a", "b")), {"a": "a"}, S)


def test_codiagonal_merges_copies():
    g0 = path_graph(SP, ("a", STAR))
    g1 = path_graph(SP, (STAR, "b"))
    merged = relabel_graph(pairing(g0, g1), codiagonal(S), S)
    assert merged.edges == (("a", "b"),)


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
    # (a,*) is spliced with the loop (c,c), but its image (a,b) is not
    tp = labelset("c", pointed=True)
    m0 = GraphMorphism(Graph(SP, (("a", STAR),)), Graph(SP, (("a", "b"),)), (0,), ((0,),))
    m1 = identity_morphism(Graph(tp, (("c", "c"),)))
    with pytest.raises(NotInert, match=r"edge pair \(0,0\)"):
        pairing_inert(m0, m1)


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
    for s_names, t_names in ((("a",), ("c",)), (("a",), ("c", "d")), (("a", "b"), ("c",))):
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


def test_enumerate_deterministic_and_bounded():
    src = Graph(S, (("a", "b"), ("b", "a")))
    tgt = Graph(S, (("a", "a"), ("a", "b")))
    assert enumerate_graph_morphisms(src, tgt) == enumerate_graph_morphisms(src, tgt)
    with pytest.raises(SizeBoundExceeded):
        enumerate_graph_morphisms(
            Graph(S, (("a", "b"),) * 4), Graph(S, (("a", "b"),) * 3)
        )
    # an explicit bound lifts the limit
    assert enumerate_graph_morphisms(
        Graph(S, (("a", "a"),) * 4), Graph(S, (("a", "a"),) * 3), max_total_edges=7
    )


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
    """validate_morphism that also rejects a contraction next to a nonempty fiber.

    It changes real morphism sets only at three or more source edges: a
    fiber of at least two edges whose neighbouring target edge (i-1 or i+1)
    has a nonempty fiber is rejected. Single-edge targets are unaffected.
    """

    def defective(m):
        rep = validate(m)
        if rep.ok:
            for i, fib in enumerate(m.fibers):
                near = [m.fibers[j] for j in (i - 1, i + 1) if 0 <= j < len(m.fibers)]
                if len(fib) >= 2 and any(near):
                    return failing("condition-two", f"seeded defect at target edge {i}")
        return rep

    return defective


def test_operad_reports_seeded_defect(monkeypatch):
    monkeypatch.setattr(graphs, "validate_morphism", _cross_fiber_defect(graphs.validate_morphism))
    rep = check_operad_axioms(OperadTag.ASSOC, labelset("a"), 3)
    assert rep.first_failure() == Check(
        "segal-morphisms",
        False,
        "(('a', 'a'), ('a', 'a'), ('a', 'a')) -> (('a', 'a'), ('a', 'a')) over (1, 1, 2): "
        "0 whole vs product 2",
    )


def test_operad_reports_single_edge_defect(monkeypatch):
    # a defect only the single-edge factors see is a mismatch, not a crash
    validate = graphs.validate_morphism

    def defective(m):
        if len(m.target.edges) == 1 and len(m.fibers[0]) >= 2:
            return failing("condition-two", "seeded defect on a single-edge target")
        return validate(m)

    monkeypatch.setattr(graphs, "validate_morphism", defective)
    rep = check_operad_axioms(OperadTag.ASSOC, labelset("a"), 3)
    assert rep.first_failure() == Check(
        "segal-morphisms",
        False,
        "(('a', 'a'), ('a', 'a')) -> (('a', 'a'), ('a', 'a')) over (1, 1): 2 whole vs product 0",
    )


def test_segal_witness_is_first_failing_target_in_objects_order(monkeypatch):
    # the check walks targets depth-first, which reaches (a,a)(a,a)(a,a)
    # before (b,b)(b,b); objects order, and so the witness, has them reversed
    validate = graphs.validate_morphism
    broken = (("b", "b"),) * 2, (("a", "a"),) * 3

    def defective(m):
        if m.target.edges in broken:
            return failing("condition-two", "seeded defect at a broken target")
        return validate(m)

    monkeypatch.setattr(graphs, "validate_morphism", defective)
    objects, alphabet = _segal_inputs(OperadTag.ASSOC, ("a", "b"), 3)
    assert graphs._check_segal_morphisms(objects, alphabet) == Check(
        "segal-morphisms", False, "() -> (('b', 'b'), ('b', 'b')) over (): 0 whole vs product 1"
    )


def test_operad_validation_work(monkeypatch):
    # every whole candidate of every pair is validated once; a single-edge
    # target's candidates only as the factors, not again as a whole target
    validate = graphs.validate_morphism
    calls = []

    def counting(m):
        calls.append(m)
        return validate(m)

    monkeypatch.setattr(graphs, "validate_morphism", counting)
    for names, want in ((("a",), 246), (("a", "b"), 17416)):
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
    n = len(src.edges)
    out = {}
    for ep in alphabet:
        tgt = Graph(src.labels, (ep,))
        grouped = {}
        for m in enumerate_graph_morphisms(src, tgt, max_total_edges=n + 1):
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


def test_segal_search_matches_reference(monkeypatch):
    for tag in OperadTag:
        for names, max_edges in ((("a",), 3), (("a", "b"), 2)):
            objects, alphabet = _segal_inputs(tag, names, max_edges)
            got = graphs._check_segal_morphisms(objects, alphabet)
            assert got.ok, (tag, names, got)
            assert got == _reference_check_segal_morphisms(objects, alphabet), (tag, names)
    # the reference never validates a whole morphism, so it misses the defect
    monkeypatch.setattr(graphs, "validate_morphism", _cross_fiber_defect(graphs.validate_morphism))
    objects, alphabet = _segal_inputs(OperadTag.ASSOC, ("a",), 3)
    assert _reference_check_segal_morphisms(objects, alphabet).ok
    assert not graphs._check_segal_morphisms(objects, alphabet).ok


def test_enumerate_matches_reference():
    objects = enumerate_objects(OperadTag.ASSOC_POINTED, S, 2)
    assert len(objects) == 91
    for src in objects:
        for tgt in objects:
            assert enumerate_graph_morphisms(src, tgt) == _reference_enumerate(src, tgt), (src, tgt)
