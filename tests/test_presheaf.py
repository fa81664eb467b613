import itertools

import pytest

from oplab import presheaf
from oplab.enriched import (
    EnrichedCategory,
    EnrichedFunctor,
    enumerate_categories,
    is_enriched_functor,
    trivial_category,
    validate_category,
)
from oplab.errors import BaseMismatch, SizeBoundExceeded, ValidationError
from oplab.graphs import labelset
from oplab.presheaf import (
    Copresheaf,
    ModuleMap,
    Presheaf,
    check_density,
    check_duality_bijection,
    check_pointwise_limits,
    check_pushforward,
    check_representability,
    density_decompose,
    duality_to_copresheaf,
    duality_to_modulemap,
    enumerate_copresheaves,
    enumerate_modulemaps,
    enumerate_presheaves,
    ev,
    free_presheaf,
    join_presheaves,
    leq_presheaves,
    meet_presheaves,
    presheaf_lattice,
    pullback,
    pushforward,
    rep,
    tensor_action,
    transported_presheaf,
    validate_copresheaf,
    validate_modulemap,
    validate_presheaf,
    yoneda_check,
    yoneda_copresheaf,
)
from oplab.quantale import (
    RIGHT,
    boolean_downset_module,
    boolean_quantale,
    chain_lattice,
    diamond_lattice,
    left_self_module,
    lukasiewicz,
    module_join,
    module_meet,
    module_over_trivial,
    module_top,
    noncommutative_chain4,
    right_self_module,
    transpose_module,
    trivial_quantale,
    validate_module,
)
from oplab.report import TABLE_BOUND, Check, Law, ValidationReport, check_laws, search_tables

S = labelset("x", "y")
BOOL = boolean_quantale()
LUK3 = lukasiewicz(3)
PREORDER = EnrichedCategory(BOOL, S, ((1, 1), (0, 1)))
METRIC = EnrichedCategory(LUK3, S, ((3, 1), (2, 3)))
CODISCRETE = EnrichedCategory(BOOL, S, ((1, 1), (1, 1)))
BOOL_CATS = enumerate_categories(BOOL, S)


def _discrete(base, k):
    objs = labelset(*[f"o{i}" for i in range(k)])
    hom = tuple(tuple(base.unit if i == j else 0 for j in range(k)) for i in range(k))
    return EnrichedCategory(base, objs, hom)


def test_validate_constant_top_and_downsets():
    m = left_self_module(BOOL)
    top = Presheaf(PREORDER, m, (module_top(m),) * 2)
    assert validate_presheaf(top).ok
    # downward-closed indicator: value at y forces value at x
    assert validate_presheaf(Presheaf(PREORDER, m, (1, 0))).ok
    assert not validate_presheaf(Presheaf(PREORDER, m, (0, 1))).ok


def test_enumerate_presheaves_preorder():
    ps = enumerate_presheaves(PREORDER)
    assert [p.values for p in ps] == [(0, 0), (1, 0), (1, 1)]


def test_rep_is_principal_downset():
    assert rep(PREORDER, "x").values == (1, 0)
    assert rep(PREORDER, "y").values == (1, 1)
    for c in BOOL_CATS + [METRIC]:
        for x in S.labels:
            r = rep(c, x)
            assert validate_presheaf(r).ok
            assert c.base.le(c.base.unit, ev(r, x))


def test_rep_on_trivial_is_constant_unit():
    t = trivial_category(LUK3, S)
    assert rep(t, "x").values == (LUK3.unit, LUK3.unit)


def test_ev_of_join_is_join_of_evs():
    ps = enumerate_presheaves(METRIC)
    m = left_self_module(LUK3)
    for fam in itertools.combinations(ps, 2):
        j = join_presheaves(fam)
        for x in S.labels:
            assert ev(j, x) == module_join(m, tuple(ev(f, x) for f in fam))


def test_free_presheaf_matches_bruteforce_least():
    for c in BOOL_CATS:
        module = left_self_module(BOOL)
        ps = enumerate_presheaves(c)
        for x in S.labels:
            for m_elt in range(module.size()):
                above = [f for f in ps if module.le(m_elt, ev(f, x))]
                oracle = meet_presheaves(above, c, module)
                assert free_presheaf(c, x, m_elt) == oracle


def test_free_presheaf_unit_is_rep():
    for c in BOOL_CATS + [METRIC]:
        for x in S.labels:
            assert free_presheaf(c, x, c.base.unit) == rep(c, x)


def test_free_presheaf_over_trivial_category_is_constant():
    t = trivial_category(LUK3, S)
    for m_elt in range(4):
        f = free_presheaf(t, "x", m_elt)
        assert f.values == (m_elt, m_elt)
    assert all(len(set(f.values)) == 1 for f in enumerate_presheaves(t))


def test_yoneda_check_examples():
    module = left_self_module(BOOL)
    f = Presheaf(PREORDER, module, (1, 0))
    assert yoneda_check(PREORDER, "y", 0, f) == (True, True)  # bottom generator
    free = free_presheaf(PREORDER, "y", 1)
    assert yoneda_check(PREORDER, "y", 1, free) == (True, True)
    assert yoneda_check(PREORDER, "y", 1, f) == (False, False)


def test_yoneda_exhaustive_boolean():
    for c in BOOL_CATS:
        for f in enumerate_presheaves(c):
            for x in S.labels:
                for m_elt in range(2):
                    lhs, rhs = yoneda_check(c, x, m_elt, f)
                    assert lhs == rhs, (c.hom, f.values, x, m_elt)


def test_yoneda_with_general_module():
    module = boolean_downset_module(3)
    for c in BOOL_CATS:
        for f in enumerate_presheaves(c, module):
            for x in S.labels:
                for m_elt in range(module.size()):
                    lhs, rhs = yoneda_check(c, x, m_elt, f)
                    assert lhs == rhs, (c.hom, f.values, x, m_elt)
        assert check_representability(c, module).ok


def test_tensor_action_laws():
    for c in (PREORDER, METRIC):
        q = c.base
        for f in enumerate_presheaves(c):
            assert tensor_action(f, q.unit) == f
            for a in range(q.size()):
                fa = tensor_action(f, a)
                assert validate_presheaf(fa).ok
                assert all(fa.values[i] == q.mul(f.values[i], a) for i in range(2))
                for b in range(q.size()):
                    assert tensor_action(fa, b) == tensor_action(f, q.mul(a, b))
        for x in S.labels:
            for a in range(q.size()):
                assert tensor_action(rep(c, x), a) == free_presheaf(c, x, a)


def test_join_meet_presheaves():
    module = left_self_module(BOOL)
    ps = enumerate_presheaves(PREORDER)
    assert join_presheaves([], PREORDER, module).values == (0, 0)
    assert meet_presheaves([], PREORDER, module).values == (1, 1)
    for f in ps:
        assert join_presheaves([f]) == f
    for fam_size in range(len(ps) + 1):
        for fam in itertools.combinations(ps, fam_size):
            assert validate_presheaf(join_presheaves(fam, PREORDER, module)).ok
            assert validate_presheaf(meet_presheaves(fam, PREORDER, module)).ok


def test_join_meet_presheaves_compare_homes_by_value():
    f = Presheaf(PREORDER, left_self_module(BOOL), (1, 0))
    # an equal category and module, built again: not the same objects
    g = Presheaf(EnrichedCategory(BOOL, S, PREORDER.hom), left_self_module(BOOL), (1, 1))
    assert join_presheaves([f, g]).values == (1, 1)
    assert meet_presheaves([f, g]).values == (1, 0)
    other = Presheaf(CODISCRETE, f.module, (1, 1))
    for combine in (join_presheaves, meet_presheaves):
        with pytest.raises(BaseMismatch):
            combine([f, other])


def test_leq_presheaves():
    ps = enumerate_presheaves(PREORDER)
    for f in ps:
        for g in ps:
            assert leq_presheaves(f, join_presheaves([f, g]))
            if leq_presheaves(f, g) and leq_presheaves(g, f):
                assert f == g
    for c in BOOL_CATS:
        for f in enumerate_presheaves(c):
            for x in S.labels:
                assert leq_presheaves(rep(c, x), f) == c.base.le(c.base.unit, ev(f, x))


def test_density_examples_and_exhaustive():
    for c in BOOL_CATS + [METRIC]:
        for f in enumerate_presheaves(c):
            parts = density_decompose(f)
            assert join_presheaves(parts) == f
    parts = density_decompose(rep(PREORDER, "x"))
    i = PREORDER.obj_index("x")
    assert free_presheaf(PREORDER, "x", PREORDER.hom[i][i]) in parts
    bottom = Presheaf(PREORDER, left_self_module(BOOL), (0, 0))
    assert all(p.values == (0, 0) for p in density_decompose(bottom))


def test_pullback_pushforward():
    codiscrete = EnrichedCategory(BOOL, S, ((1, 1), (1, 1)))
    phi = EnrichedFunctor(PREORDER, codiscrete)
    ident = EnrichedFunctor(PREORDER, PREORDER)
    fs = enumerate_presheaves(PREORDER)
    gs = enumerate_presheaves(codiscrete)
    for f in fs:
        assert pushforward(ident, f) == f
        pf = pushforward(phi, f)
        assert validate_presheaf(pf).ok
        for g in gs:
            assert leq_presheaves(pf, g) == leq_presheaves(f, pullback(phi, g))
    ident_d = EnrichedFunctor(codiscrete, codiscrete)
    for g in gs:
        assert pullback(ident_d, g) == g
        assert validate_presheaf(pullback(phi, g)).ok
    for x in S.labels:
        for a in range(2):
            assert pushforward(phi, free_presheaf(PREORDER, x, a)) == free_presheaf(
                codiscrete, x, a
            )
    for f in fs:
        for a in range(2):
            assert pushforward(phi, tensor_action(f, a)) == tensor_action(pushforward(phi, f), a)


def test_pushforward_rejects_wrong_category():
    codiscrete = EnrichedCategory(BOOL, S, ((1, 1), (1, 1)))
    phi = EnrichedFunctor(PREORDER, codiscrete)
    with pytest.raises(BaseMismatch):
        pushforward(phi, enumerate_presheaves(codiscrete)[0])


def test_copresheaf_transport_agrees_with_direct_law():
    n = right_self_module(BOOL)
    for c in BOOL_CATS:
        for values in itertools.product(range(2), repeat=2):
            g = Copresheaf(c, n, values)
            direct = all(
                BOOL.le(BOOL.mul(g.values[i], c.hom[i][j]), g.values[j])
                for i in range(2)
                for j in range(2)
            )
            assert validate_copresheaf(g).ok == direct


def test_yoneda_copresheaf():
    lat = presheaf_lattice(PREORDER)
    y = yoneda_copresheaf(PREORDER, lat)
    assert validate_copresheaf(y).ok
    assert [lat.presheaves[v].values for v in y.values] == [(1, 0), (1, 1)]
    # action witness: rep_x . hom(x,y) <= rep_y pointwise
    for i, x in enumerate(S.labels):
        for j, yname in enumerate(S.labels):
            moved = tensor_action(rep(PREORDER, x), PREORDER.hom[i][j])
            assert leq_presheaves(moved, rep(PREORDER, yname))
    t = trivial_category(BOOL, S)
    yt = yoneda_copresheaf(t)
    assert len(set(yt.values)) == 1


def test_presheaf_lattice_is_valid_right_module():
    for c in BOOL_CATS + [METRIC]:
        lat = presheaf_lattice(c)
        assert validate_module(lat.module).ok
        assert lat.module.side == "right"


def test_duality_evaluation_map_is_corepresentable():
    lat = presheaf_lattice(PREORDER)
    n = right_self_module(BOOL)
    for x in S.labels:
        table = tuple(ev(f, x) for f in lat.presheaves)
        phi = ModuleMap(lat, n, table)
        assert validate_modulemap(phi).ok
        g = duality_to_copresheaf(phi)
        ix = PREORDER.obj_index(x)
        assert g.values == tuple(PREORDER.hom[ix][j] for j in range(2))


def test_duality_yoneda_gives_identity_map():
    lat = presheaf_lattice(PREORDER)
    y = yoneda_copresheaf(PREORDER, lat)
    phi = duality_to_modulemap(y, lat)
    assert phi.table == tuple(range(lat.size()))


def test_duality_bijection_boolean_and_lukasiewicz():
    for c in BOOL_CATS:
        rep_ = check_duality_bijection(c, right_self_module(BOOL))
        assert rep_.ok, rep_.first_failure()
    luk2 = lukasiewicz(2)
    c2 = EnrichedCategory(luk2, S, ((2, 1), (0, 2)))
    rep_ = check_duality_bijection(c2, right_self_module(luk2))
    assert rep_.ok, rep_.first_failure()


def test_duality_respects_counts():
    lat = presheaf_lattice(PREORDER)
    n = right_self_module(BOOL)
    cops = enumerate_copresheaves(PREORDER, n)
    maps = enumerate_modulemaps(lat, n)
    assert len(cops) == len(maps) == 3


def test_trivial_category_presheaves_are_constant():
    for base, k in ((BOOL, 2), (LUK3, 3)):
        objs = labelset(*[f"o{i}" for i in range(k)])
        t = trivial_category(base, objs)
        ps = enumerate_presheaves(t)
        assert all(len(set(f.values)) == 1 for f in ps)
        assert len(ps) == base.size()
        for x in objs.labels:
            evs = sorted(ev(f, x) for f in ps)
            assert evs == list(range(base.size()))


def test_trivial_quantale_presheaves_match_module():
    q = trivial_quantale()
    fixtures = [chain_lattice(1), chain_lattice(2), chain_lattice(4), diamond_lattice()]
    for k in (1, 2, 3):
        objs = labelset(*[f"o{i}" for i in range(k)])
        t = trivial_category(q, objs)
        for names, leq in fixtures:
            module = module_over_trivial(names, leq)
            ps = enumerate_presheaves(t, module)
            assert len(ps) == len(names)
            for f in ps:
                assert len(set(f.values)) == 1
            for x in objs.labels:
                seen = [ev(f, x) for f in ps]
                assert sorted(seen) == list(range(len(names)))
                for f in ps:
                    for g in ps:
                        assert leq_presheaves(f, g) == module.le(ev(f, x), ev(g, x))


def _tested_tables(monkeypatch, name):
    """Record every table the laws built by `presheaf.<name>` are tested on."""
    tested = []
    build = getattr(presheaf, name)

    def recording(*args):
        return tuple(
            law._replace(holds=lambda t, holds=law.holds: tested.append(tuple(t)) or holds(t))
            for law in build(*args)
        )

    monkeypatch.setattr(presheaf, name, recording)
    return tested


def test_presheaf_lattice_cap(monkeypatch):
    # 4^10 = 1,048,576 candidate tables: refused before any table is tried
    c = _discrete(LUK3, 10)
    assert LUK3.size() ** 10 > TABLE_BOUND
    tested = _tested_tables(monkeypatch, "presheaf_laws")
    with pytest.raises(SizeBoundExceeded):
        enumerate_presheaves(c)
    with pytest.raises(SizeBoundExceeded):
        presheaf_lattice(c)
    assert tested == []


def test_modulemap_must_target_right_module():
    lat = presheaf_lattice(PREORDER)
    with pytest.raises(BaseMismatch):
        ModuleMap(lat, left_self_module(BOOL), (0,) * lat.size())


def test_copresheaves_transport_module():
    from oplab.enriched import opposite

    n = right_self_module(LUK3)
    t = transpose_module(n)
    assert t.side == "left"
    for values in itertools.product(range(4), repeat=2):
        g = Copresheaf(METRIC, n, values)
        p = Presheaf(opposite(METRIC), t, values)
        assert validate_copresheaf(g).ok == validate_presheaf(p).ok


def _reference_modulemaps(lattice, n):
    """Every table in product order, kept when it validates."""
    out = []
    for table in itertools.product(range(n.size()), repeat=lattice.size()):
        phi = ModuleMap(lattice, n, table)
        if validate_modulemap(phi).ok:
            out.append(phi)
    return out


def _reference_validate_presheaf(f):
    """The action law as a direct loop over object pairs."""
    c, m = f.category, f.module
    names = c.objects.labels
    for i in range(len(names)):
        for j in range(len(names)):
            if not m.le(m.act(c.hom[i][j], f.values[j]), f.values[i]):
                witness = f"hom({names[i]},{names[j]}).F({names[j]}) > F({names[i]})"
                return ValidationReport((Check("presheaf-action", False, witness),))
    return ValidationReport((Check("presheaf-action", True, None),))


def _reference_validate_category(c):
    """The unit and composition laws as direct loops."""
    q = c.base
    names = c.objects.labels
    k = len(names)
    for i in range(k):
        if not q.le(q.unit, c.hom[i][i]):
            return ValidationReport((Check("unit-law", False, f"unit > hom({names[i]},{names[i]})"),))
    for i in range(k):
        for j in range(k):
            for l in range(k):
                if not q.le(q.mul(c.hom[i][j], c.hom[j][l]), c.hom[i][l]):
                    witness = (
                        f"hom({names[i]},{names[j]})*hom({names[j]},{names[l]}) > hom({names[i]},{names[l]})"
                    )
                    return ValidationReport((Check("composition-law", False, witness),))
    return ValidationReport((Check("category", True, f"{k} objects"),))


def _hom_tables(q, k):
    for flat in itertools.product(range(q.size()), repeat=k * k):
        yield tuple(flat[i * k : (i + 1) * k] for i in range(k))


def _reference_categories(q, objects):
    """Every hom table in product order, kept when the direct loops accept it."""
    cats = (EnrichedCategory(q, objects, hom) for hom in _hom_tables(q, len(objects.labels)))
    return [c for c in cats if _reference_validate_category(c).ok]


def _reference_tables(c, module, make, validate):
    """Every value table in product order, with the direct loops' report on each."""
    tables = itertools.product(range(module.size()), repeat=len(c.objects.labels))
    return [(x, validate(x)) for x in (make(c, module, t) for t in tables)]


def _check_tables_match(c, module, make, enumerate_, validate, reference_validate):
    reference = _reference_tables(c, module, make, reference_validate)
    for x, report in reference:
        assert validate(x).checks == report.checks, (c.hom, x.values)
    assert enumerate_(c, module) == [x for x, report in reference if report.ok], c.hom


def test_table_search_matches_reference():
    bases = [BOOL, lukasiewicz(2), LUK3, noncommutative_chain4(), trivial_quantale()]
    instances = [(q, labelset(*names)) for q in bases for names in (("x",), ("x", "y"))]
    instances += [(BOOL, labelset("x", "y", "z")), (lukasiewicz(2), labelset("x", "y", "z"))]
    categories = 0
    for q, objects in instances:
        for hom in _hom_tables(q, len(objects.labels)):
            c = EnrichedCategory(q, objects, hom)
            assert validate_category(c).checks == _reference_validate_category(c).checks, hom
        cats = enumerate_categories(q, objects)
        assert cats == _reference_categories(q, objects)
        categories += len(cats)
        left = [left_self_module(q)] + ([boolean_downset_module(3)] if q == BOOL else [])
        right = [right_self_module(q)] + ([boolean_downset_module(3, RIGHT)] if q == BOOL else [])
        for c in cats:
            for module in left:
                _check_tables_match(
                    c, module, Presheaf, enumerate_presheaves, validate_presheaf, _reference_validate_presheaf
                )
            for module in right:
                _check_tables_match(
                    c,
                    module,
                    Copresheaf,
                    enumerate_copresheaves,
                    validate_copresheaf,
                    lambda g: _reference_validate_presheaf(transported_presheaf(g)),
                )
    assert categories == 361


def test_search_tables_retests_whole_tables():
    # a law that reads past its declared last position is still decided on whole tables
    law = Law("order", "t0 > t1", 0, lambda t: t[0] <= t[1])
    assert search_tables(2, 3, [law]) == [t for t in itertools.product(range(3), repeat=2) if t[0] <= t[1]]
    assert search_tables(0, 3, []) == [()]


def test_modulemap_search_matches_reference():
    luk2 = lukasiewicz(2)
    targets = [right_self_module(BOOL)] + [boolean_downset_module(k, RIGHT) for k in (1, 2, 3)]
    instances = [(c, n) for c in BOOL_CATS for n in targets]
    instances += [(c, right_self_module(luk2)) for c in enumerate_categories(luk2, S)]
    instances.append((_discrete(BOOL, 3), right_self_module(BOOL)))
    assert len(instances) == 26
    for c, n in instances:
        lat = presheaf_lattice(c)
        searched = [m.table for m in enumerate_modulemaps(lat, n)]
        assert searched == [m.table for m in _reference_modulemaps(lat, n)], (c.hom, n.elements)


def test_modulemap_cap_refuses_before_searching(monkeypatch):
    lat = presheaf_lattice(PREORDER)
    n = right_self_module(BOOL)
    assert len(enumerate_modulemaps(lat, n)) == 3
    # 32 presheaves on the discrete category: 2^32 candidate tables
    big = _discrete(BOOL, 5)
    assert n.size() ** presheaf_lattice(big).size() > TABLE_BOUND
    tested = _tested_tables(monkeypatch, "modulemap_laws")
    with pytest.raises(SizeBoundExceeded):
        check_duality_bijection(big, n)
    assert tested == []


def _drop_second_of_two(join):
    def patched(fs, category=None, module=None):
        fs = list(fs)
        return join(fs[:1] if len(fs) == 2 else fs, category, module)

    return patched


def _drop_equivariance(build):
    def patched(lattice, n):
        return tuple(law for law in build(lattice, n) if law.check != "equivariance")

    return patched


@pytest.mark.parametrize(
    "defect, category, failures",
    [
        (
            ("tensor_action", lambda orig: lambda f, a: f),
            BOOL_CATS[0],
            {
                "counts-equal": "4 copresheaves vs 1 module maps",
                "copresheaf-roundtrip": "copresheaf (0, 1): duality_to_modulemap: "
                "equivariance (presheaf 1, scalar 0)",
            },
        ),
        (
            ("join_presheaves", _drop_second_of_two),
            BOOL_CATS[0],
            {
                "counts-equal": "4 copresheaves vs 1 module maps",
                "copresheaf-roundtrip": "copresheaf (0, 1): duality_to_modulemap: "
                "join-preservation (pair (0,1))",
            },
        ),
        (
            ("modulemap_laws", _drop_equivariance),
            EnrichedCategory(lukasiewicz(2), S, ((2, 1), (0, 2))),
            {
                "counts-equal": "8 copresheaves vs 31 module maps",
                "modulemap-roundtrip": "module map (0, 0, 0, 0, 0, 2, 2, 2): duality_to_copresheaf: "
                "presheaf-action (hom(y,x).F(x) > F(y))",
            },
        ),
    ],
    ids=["tensor-action-identity", "join-drops-second", "no-equivariance-laws"],
)
def test_duality_reports_seeded_defect(monkeypatch, defect, category, failures):
    name, wrap = defect
    monkeypatch.setattr(presheaf, name, wrap(getattr(presheaf, name)))
    report = check_duality_bijection(category, right_self_module(category.base))
    got = {c.name: c.witness for c in report.checks if not c.ok}
    assert got == failures


def test_self_valued_operations_reject_other_modules():
    module = boolean_downset_module(3)
    f = Presheaf(PREORDER, module, (2, 1))
    assert validate_presheaf(f).ok
    with pytest.raises(BaseMismatch):
        tensor_action(f, 1)
    with pytest.raises(BaseMismatch):
        density_decompose(f)


def _bottom(c, module):
    return presheaf.join_presheaves([], c, module)


def _keep_first(join):
    def patched(fs, category=None, module=None):
        return join(list(fs)[:1], category, module)

    return patched


def test_representability_reports_seeded_defect(monkeypatch):
    def bottom_free(c, x, m_elt, module=None):
        return _bottom(c, module if module is not None else left_self_module(c.base))

    monkeypatch.setattr(presheaf, "free_presheaf", bottom_free)
    assert check_representability(PREORDER).checks == (
        Check("representability", False, "presheaf (0, 0) at (x, 1): True vs False"),
    )


def test_density_reports_seeded_defect(monkeypatch):
    monkeypatch.setattr(presheaf, "join_presheaves", _keep_first(presheaf.join_presheaves))
    assert check_density(PREORDER).checks == (
        Check("density", False, "presheaf (1, 1) recovered as (1, 0)"),
    )


def test_pointwise_limits_reports_seeded_defect(monkeypatch):
    monkeypatch.setattr(presheaf, "join_presheaves", _keep_first(presheaf.join_presheaves))
    assert check_pointwise_limits(PREORDER).checks == (
        Check("pointwise-limits", False, "family ((0, 0), (1, 0)): join not pointwise at x"),
    )


def test_pushforward_reports_seeded_defect(monkeypatch):
    monkeypatch.setattr(presheaf, "pushforward", lambda phi, f: _bottom(phi.target, f.module))
    assert check_pushforward(EnrichedFunctor(PREORDER, CODISCRETE)).checks == (
        Check("pushforward", False, "adjunction fails at (1, 0), (0, 0)"),
    )


def test_suite_refusals_still_raise():
    with pytest.raises(SizeBoundExceeded):
        check_pointwise_limits(_discrete(LUK3, 3))
    with pytest.raises(ValidationError):
        check_pushforward(EnrichedFunctor(CODISCRETE, PREORDER))


# --- failure branches of the pointwise-limits and pushforward suites ---------

NC4_CAT = EnrichedCategory(noncommutative_chain4(), S, ((3, 0), (2, 3)))
CRITERION_CATS = BOOL_CATS + [
    trivial_category(LUK3, S),
    METRIC,
    EnrichedCategory(LUK3, S, ((3, 0), (3, 3))),
    EnrichedCategory(LUK3, S, ((3, 2), (2, 3))),
]


def _reversed(build):
    """Wrap a presheaf-valued function so its values come out in reverse object order."""

    def patched(*args):
        out = build(*args)
        return Presheaf(out.category, out.module, out.values[::-1])

    return patched


def _scalar_on_left(orig):
    """The tensor action multiplying by the scalar on the wrong side, a*F(X)."""

    def patched(f, a):
        q = f.category.base
        return Presheaf(f.category, f.module, tuple(q.mul(a, v) for v in f.values))

    return patched


def _free_from_row(orig):
    """Free presheaves read hom(x, Y), the row, instead of hom(Y, x)."""

    def patched(c, x, m_elt, module=None):
        module = module if module is not None else left_self_module(c.base)
        row = c.hom[c.obj_index(x)]
        return Presheaf(c, module, tuple(module.act(v, m_elt) for v in row))

    return patched


def _reference_check_pointwise_limits(c):
    """check_pointwise_limits re-validating each join and meet with check_laws."""
    presheaves = presheaf.enumerate_presheaves(c)
    module = left_self_module(c.base)
    laws = presheaf.presheaf_laws(c, module)

    def fails(family, what):
        return ValidationReport(
            (Check("pointwise-limits", False, f"family {tuple(f.values for f in family)}: {what}"),)
        )

    families = 0
    for r in range(len(presheaves) + 1):
        for family in itertools.combinations(presheaves, r):
            j = presheaf.join_presheaves(family, c, module)
            m = presheaf.meet_presheaves(family, c, module)
            if not all(check_laws(laws, p.values, "presheaf-action").ok for p in (j, m)):
                return fails(family, "join or meet fails to validate")
            for i, x in enumerate(c.objects.labels):
                values = tuple(f.values[i] for f in family)
                if j.values[i] != module_join(module, values):
                    return fails(family, f"join not pointwise at {x}")
                if m.values[i] != module_meet(module, values):
                    return fails(family, f"meet not pointwise at {x}")
            families += 1
    return ValidationReport((Check("pointwise-limits", True, f"{families} families"),))


def _reference_check_pushforward(phi):
    """check_pushforward re-validating each image with check_laws."""
    c, d = phi.source, phi.target
    q = c.base
    fs = presheaf.enumerate_presheaves(c)
    gs = presheaf.enumerate_presheaves(d)
    pulled = [presheaf.pullback(phi, g) for g in gs]
    laws = presheaf.presheaf_laws(d, left_self_module(q))

    def fails(what):
        return ValidationReport((Check("pushforward", False, what),))

    for f in fs:
        pf = presheaf.pushforward(phi, f)
        if not check_laws(laws, pf.values, "presheaf-action").ok:
            return fails(f"image of {f.values} invalid")
        for g, pg in zip(gs, pulled):
            if leq_presheaves(pf, g) != leq_presheaves(f, pg):
                return fails(f"adjunction fails at {f.values}, {g.values}")
        for a in range(q.size()):
            if presheaf.pushforward(phi, presheaf.tensor_action(f, a)) != presheaf.tensor_action(pf, a):
                return fails(f"not equivariant at {f.values}, {q.elements[a]}")
    for x in c.objects.labels:
        for a in range(q.size()):
            if presheaf.pushforward(phi, presheaf.free_presheaf(c, x, a)) != presheaf.free_presheaf(d, x, a):
                return fails(f"free presheaf at ({x},{q.elements[a]}) not preserved")
    return ValidationReport((Check("pushforward", True, f"{len(fs)} presheaves against {len(gs)}"),))


def test_pointwise_limits_reports_invalid_join(monkeypatch):
    monkeypatch.setattr(presheaf, "join_presheaves", _reversed(presheaf.join_presheaves))
    assert check_pointwise_limits(PREORDER).checks == (
        Check("pointwise-limits", False, "family ((1, 0),): join or meet fails to validate"),
    )


@pytest.mark.parametrize(
    "name, wrap, phi, witness",
    [
        ("pushforward", _reversed, EnrichedFunctor(PREORDER, PREORDER), "image of (1, 0) invalid"),
        ("tensor_action", _scalar_on_left, EnrichedFunctor(NC4_CAT, NC4_CAT), "not equivariant at (3, 2), 1"),
        (
            "free_presheaf",
            _free_from_row,
            EnrichedFunctor(PREORDER, PREORDER),
            "free presheaf at (y,1) not preserved",
        ),
    ],
    ids=["image-reversed", "scalar-on-left", "free-from-row"],
)
def test_pushforward_reports_seeded_branch(monkeypatch, name, wrap, phi, witness):
    monkeypatch.setattr(presheaf, name, wrap(getattr(presheaf, name)))
    assert check_pushforward(phi).checks == (Check("pushforward", False, witness),)


@pytest.mark.parametrize(
    "defect",
    [
        None,
        ("join_presheaves", _reversed),
        ("pushforward", _reversed),
        ("tensor_action", _scalar_on_left),
        ("free_presheaf", _free_from_row),
    ],
    ids=["clean", "join-reversed", "image-reversed", "scalar-on-left", "free-from-row"],
)
def test_membership_checks_match_law_reference(monkeypatch, defect):
    # a computed presheaf validates iff its table is among the enumerated ones
    if defect is not None:
        name, wrap = defect
        monkeypatch.setattr(presheaf, name, wrap(getattr(presheaf, name)))
    for c in CRITERION_CATS + [NC4_CAT]:
        assert check_pointwise_limits(c) == _reference_check_pointwise_limits(c), c.hom
        phi = EnrichedFunctor(c, c)
        assert check_pushforward(phi) == _reference_check_pushforward(phi), c.hom
    for c in BOOL_CATS:
        for d in BOOL_CATS:
            phi = EnrichedFunctor(c, d)
            if is_enriched_functor(phi).ok:
                assert check_pushforward(phi) == _reference_check_pushforward(phi), (c.hom, d.hom)


# --- value semantics ---------------------------------------------------------


def test_module_maps_compare_by_lattice_identity():
    n = right_self_module(BOOL)
    lat = presheaf_lattice(PREORDER)
    table = tuple(ev(f, "x") for f in lat.presheaves)
    a, b = ModuleMap(lat, n, table), ModuleMap(lat, n, list(table))
    assert a == b and hash(a) == hash(b)
    assert ModuleMap(presheaf_lattice(PREORDER), n, table) != a
    assert repr(a) == f"ModuleMap(lattice={lat!r}, target={n!r}, table={table!r})"


def test_presheaf_never_equals_copresheaf():
    m = left_self_module(BOOL)
    f = Presheaf(PREORDER, m, (1, 0))
    g = object.__new__(Copresheaf)
    for name in ("category", "module", "values"):
        object.__setattr__(g, name, getattr(f, name))
    assert f != g and g != f
    assert f == Presheaf(PREORDER, m, [1, 0]) and hash(f) == hash(Presheaf(PREORDER, m, (1, 0)))
    assert repr(f) == f"Presheaf(category={PREORDER!r}, module={m!r}, values=(1, 0))"
    n = right_self_module(BOOL)
    cop = Copresheaf(PREORDER, n, (0, 1))
    assert repr(cop) == f"Copresheaf(category={PREORDER!r}, module={n!r}, values=(0, 1))"


def test_ordered_carrier_reprs():
    assert repr(BOOL) == (
        "Quantale(elements=('0', '1'), leq=((True, True), (False, True)), "
        "tensor=((0, 0), (0, 1)), unit=1)"
    )
    assert repr(right_self_module(BOOL)) == (
        f"ModuleLattice(base={BOOL!r}, side='right', elements=('0', '1'), "
        "leq=((True, True), (False, True)), action=((0, 0), (0, 1)))"
    )
