import itertools
from pathlib import Path

import pytest

from oplab import quantale
from oplab.errors import IndexOutOfRange
from oplab.io import load_module, load_quantale
from oplab.quantale import (
    LEFT,
    RIGHT,
    ModuleLattice,
    Quantale,
    boolean_downset_module,
    boolean_quantale,
    chain_lattice,
    diamond_lattice,
    join,
    left_self_module,
    lukasiewicz,
    meet,
    module_join,
    module_meet,
    module_over_trivial,
    noncommutative_chain4,
    one_element_module,
    residual_left,
    residual_right,
    reverse_quantale,
    right_self_module,
    transpose_module,
    trivial_quantale,
    validate_module,
    validate_quantale,
)
from oplab.report import Check

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

BUILTINS = [boolean_quantale(), lukasiewicz(3), trivial_quantale(), noncommutative_chain4()]


@pytest.mark.parametrize("q", BUILTINS)
def test_builtins_validate(q):
    assert validate_quantale(q).ok


def test_join_examples():
    b = boolean_quantale()
    assert join(b, (0, 1)) == 1
    assert join(b, ()) == 0
    luk = lukasiewicz(3)
    assert join(luk, (1, 2)) == 2
    assert meet(luk, (1, 2)) == 1
    assert meet(luk, ()) == 3


def test_lukasiewicz_residual_closed_form():
    luk = lukasiewicz(3)
    for a in range(4):
        for b in range(4):
            assert residual_right(luk, a, b) == min(3, 3 - a + b)
            assert residual_left(luk, a, b) == min(3, 3 - a + b)
        assert residual_right(luk, a, 3) == 3


def test_boolean_residual():
    b = boolean_quantale()
    assert residual_right(b, 1, 0) == 0
    assert residual_right(b, 0, 0) == 1


@pytest.mark.parametrize("q", BUILTINS)
def test_residuation_adjunction(q):
    for a in range(q.size()):
        for b in range(q.size()):
            r = residual_right(q, a, b)
            l = residual_left(q, a, b)
            for c in range(q.size()):
                assert q.le(q.mul(a, c), b) == q.le(c, r)
                assert q.le(q.mul(c, a), b) == q.le(c, l)


@pytest.mark.parametrize("q", BUILTINS)
def test_join_continuity_all_subsets(q):
    elems = range(q.size())
    subsets = [
        tuple(x for x in elems if mask >> x & 1) for mask in range(1 << q.size())
    ]
    for a in elems:
        for xs in subsets:
            j = join(q, xs)
            assert q.mul(a, j) == join(q, tuple(q.mul(a, x) for x in xs))
            assert q.mul(j, a) == join(q, tuple(q.mul(x, a) for x in xs))


def test_invalid_tensor_rejected():
    # bottom not absorbed: 0*0 = 1 on the two-chain
    q = Quantale(("0", "1"), ((True, True), (False, True)), ((1, 0), (0, 1)), 1)
    rep = validate_quantale(q)
    assert not rep.ok
    assert rep.first_failure().name in ("distributivity", "unit")
    # non-associative three-chain
    q2 = Quantale(
        ("0", "1", "2"),
        tuple(tuple(a <= b for b in range(3)) for a in range(3)),
        ((0, 0, 0), (0, 0, 1), (0, 2, 2)),
        2,
    )
    rep2 = validate_quantale(q2)
    assert not rep2.ok


def _chain(k, tensor, unit):
    names = tuple(str(i) for i in range(k))
    return Quantale(names, tuple(tuple(a <= b for b in range(k)) for a in range(k)), tensor, unit)


def test_one_sided_unit_rejected():
    # a*b = b: 1 is a left unit but not a right one, since 0*1 = 1
    assert validate_quantale(_chain(2, ((0, 1), (0, 1)), 1)).checks == (Check("unit", False, "0"),)


@pytest.mark.parametrize(
    "tensor",
    [
        ((0, 0, 0), (0, 1, 2), (2, 2, 2)),  # a*0 = 0 fails at a = 2
        ((0, 0, 2), (0, 1, 2), (0, 2, 2)),  # 0*a = 0 fails at a = 2
    ],
)
def test_one_sided_bottom_absorption_rejected(tensor):
    rep = validate_quantale(_chain(3, tensor, 1))
    assert rep.checks == (Check("distributivity", False, "bottom not absorbed at 2"),)


def test_lukasiewicz_needs_one_step():
    assert validate_quantale(lukasiewicz(1)).ok
    with pytest.raises(IndexOutOfRange, match="chain length must be at least 1"):
        lukasiewicz(0)


def test_non_lattice_rejected():
    # two incomparable points, no top or bottom
    q = Quantale(("x", "y"), ((True, False), (False, True)), ((0, 0), (0, 1)), 1)
    rep = validate_quantale(q)
    assert not rep.ok
    assert rep.first_failure().name == "lattice"


def test_reverse_quantale():
    for q in BUILTINS[:3]:  # the commutative ones
        assert reverse_quantale(q) == q
    nc = noncommutative_chain4()
    rev = reverse_quantale(nc)
    assert rev != nc
    assert validate_quantale(rev).ok
    assert reverse_quantale(rev) == nc
    assert nc.mul(1, 2) == 0 and nc.mul(2, 1) == 1
    assert rev.mul(1, 2) == 1 and rev.mul(2, 1) == 0


@pytest.mark.parametrize("q", BUILTINS)
def test_self_modules_validate(q):
    assert validate_module(left_self_module(q)).ok
    assert validate_module(right_self_module(q)).ok
    assert validate_module(one_element_module(q, LEFT)).ok
    assert validate_module(one_element_module(q, RIGHT)).ok


def test_downset_and_trivial_modules():
    assert validate_module(boolean_downset_module(3)).ok
    assert validate_module(boolean_downset_module(4, RIGHT)).ok
    for names, leq in (chain_lattice(1), chain_lattice(4), diamond_lattice()):
        assert validate_module(module_over_trivial(names, leq)).ok


def test_module_association_violation_detected():
    q = boolean_quantale()
    # top must act as the identity for the unit law to hold
    bad = ModuleLattice(q, LEFT, ("m0", "m1"), ((True, True), (False, True)), ((0, 0), (0, 0)))
    rep = validate_module(bad)
    assert not rep.ok
    assert rep.first_failure().name == "unit-action"


def test_transpose_module_roundtrip():
    for q in BUILTINS:
        for m in (left_self_module(q), right_self_module(q)):
            t = transpose_module(m)
            assert t.side != m.side
            assert t.base == reverse_quantale(q)
            assert validate_module(t).ok
            assert transpose_module(t) == m
            # the scalar moves to the other side of the action
            for a in range(q.size()):
                for x in range(m.size()):
                    assert t.act(a, x) == m.act(a, x)


def test_module_join():
    m = boolean_downset_module(3)
    assert module_join(m, ()) == 0
    assert module_join(m, (0, 2)) == 2


def _orders():
    """(join, meet, order) of every fixture and library quantale and module,
    and of orders that are not lattices or not partial orders."""
    qs = [
        load_quantale(FIXTURES / "boolean.json"),
        load_quantale(FIXTURES / "lukasiewicz3.json"),
        boolean_quantale(),
        lukasiewicz(2),
        lukasiewicz(3),
        trivial_quantale(),
        noncommutative_chain4(),
        # two incomparable maximal elements, no top and no joins of them
        Quantale(("x", "y"), ((True, False), (False, True)), ((0, 0), (0, 1)), 1),
    ]
    ms = [load_module(FIXTURES / "chain3_left_module.json"), boolean_downset_module(3)]
    ms += [f(q) for q in qs[2:7] for f in (left_self_module, right_self_module)]
    bot_xy = ((True, True, True), (False, True, False), (False, False, True))
    ms.append(module_over_trivial(("bot", "x", "y"), bot_xy))
    ms.append(module_over_trivial(*diamond_lattice()))
    # not reflexive: the scans find every binary join and meet, a bottom
    # and a top, yet folding the binary joins gives y for (x,y), the scan z
    ms.append(module_over_trivial(("x", "y", "z"), ((0, 0, 1), (0, 1, 1), (1, 1, 1))))
    return [(join, meet, q) for q in qs] + [(module_join, module_meet, m) for m in ms]


@pytest.mark.parametrize("join_fn, meet_fn, order", _orders())
def test_joins_and_meets_match_scan(join_fn, meet_fn, order):
    # a lattice folds its tables, which must give what the scan gives;
    # an order that is not one has no joins or meets at all
    rng = range(len(order.leq))
    for n in range(4):
        for xs in itertools.product(rng, repeat=n):
            for fn, scan in ((join_fn, quantale._least_upper), (meet_fn, quantale._greatest_lower)):
                if order._lattice is None:
                    with pytest.raises(IndexOutOfRange):
                        fn(order, xs)
                else:
                    assert fn(order, xs) == scan(order.leq, xs, rng)


def test_non_lattice_orders_get_no_tables():
    for _, _, order in _orders():
        lattice = validate_quantale(order) if isinstance(order, Quantale) else validate_module(order)
        if lattice.first_failure() and lattice.first_failure().name in ("order", "lattice"):
            assert order._lattice is None
        else:
            assert order._lattice is not None


def test_self_module_tables_built_once():
    quantale._lattice_tables.cache_clear()
    q = lukasiewicz(3)
    for _ in range(2):
        m = left_self_module(q)
        assert module_join(m, (1, 2)) == 2 and module_meet(m, (1, 2)) == 1
    # the second call returns the same module, whose tables are already read
    assert left_self_module(q) is m
    info = quantale._lattice_tables.cache_info()
    assert (info.misses, info.hits) == (1, 0)


def _gate_report(order):
    return validate_quantale(order) if isinstance(order, Quantale) else validate_module(order)


def test_lattice_gate_witnesses():
    # the first order or lattice failure of every order that is not a lattice
    found = [
        (f.name, f.witness)
        for _, _, order in _orders()
        if (f := _gate_report(order).first_failure()) is not None
        and f.name in ("order", "lattice")
    ]
    assert found == [
        ("lattice", "no join of (x,y)"),
        ("lattice", "no join of (x,y)"),
        ("order", "not reflexive at x"),
    ]
    tables = {
        "not antisymmetric at (x,y)": ((1, 1), (1, 1)),
        # x <= y <= z without x <= z; (y,z) also breaks antisymmetry, later
        "not transitive at (x,y,z)": ((1, 1, 0), (0, 1, 1), (0, 1, 1)),
        "not transitive at (x,z,y)": ((1, 0, 1), (0, 1, 0), (0, 1, 1)),
    }
    for witness, leq in tables.items():
        names = ("x", "y", "z")[: len(leq)]
        rep = validate_module(module_over_trivial(names, leq))
        assert rep.checks == (Check("order", False, witness),)
    # x and y have a join (top) but no meet
    top_xy = ((1, 0, 1), (0, 1, 1), (0, 0, 1))
    rep = validate_module(module_over_trivial(("x", "y", "top"), top_xy))
    assert rep.checks == (Check("lattice", False, "no meet of (x,y)"),)
    q = Quantale(("x", "y", "top"), top_xy, ((2, 2, 2),) * 3, 2)
    assert validate_quantale(q).checks == rep.checks
