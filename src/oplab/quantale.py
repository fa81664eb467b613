"""Finite complete lattices with a join-continuous monoid: the semantics
backend in which every theorem of the engine is decided.

Elements are addressed by index into the name list; tables are nested
tuples of indices. Validation is exhaustive, never sampled.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

from .errors import IndexOutOfRange, InvalidLabels
from .report import ValidationReport, failing, passing, read_once

LEFT = "left"
RIGHT = "right"


class _Ordered:
    """What every ordered carrier reads of its `elements` and `leq` tables:
    size, lookup by name, order, and the join/meet tables once asked for.
    `_what` names an element in lookup errors."""

    _what = "element"

    def size(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise IndexOutOfRange(f"no {self._what} named {name!r}") from None

    def le(self, a: int, b: int) -> bool:
        return self.leq[a][b]

    @read_once
    def _lattice(self) -> _Tables | None:
        return _lattice_tables(self.leq)


@dataclass(frozen=True)
class Quantale(_Ordered):
    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    tensor: tuple[tuple[int, ...], ...]
    unit: int

    def __post_init__(self):
        k = len(self.elements)
        if len(set(self.elements)) != k or k == 0:
            raise InvalidLabels("element names must be distinct and nonempty")
        object.__setattr__(self, "leq", tuple(tuple(bool(v) for v in row) for row in self.leq))
        object.__setattr__(self, "tensor", tuple(tuple(row) for row in self.tensor))
        if len(self.leq) != k or any(len(r) != k for r in self.leq):
            raise IndexOutOfRange("order table has the wrong shape")
        if len(self.tensor) != k or any(len(r) != k for r in self.tensor):
            raise IndexOutOfRange("tensor table has the wrong shape")
        for row in self.tensor:
            for v in row:
                if not 0 <= v < k:
                    raise IndexOutOfRange(f"tensor entry {v} out of range")
        if not 0 <= self.unit < k:
            raise IndexOutOfRange("unit out of range")

    @read_once
    def _reversed(self) -> Quantale:
        return Quantale(self.elements, self.leq, tuple(zip(*self.tensor)), self.unit)

    @read_once
    def _left_self(self) -> ModuleLattice:
        return ModuleLattice(self, LEFT, self.elements, self.leq, self.tensor)

    @read_once
    def _right_self(self) -> ModuleLattice:
        return ModuleLattice(self, RIGHT, self.elements, self.leq, self.tensor)

    def mul(self, a: int, b: int) -> int:
        return self.tensor[a][b]

    def mul_all(self, xs) -> int:
        acc = self.unit
        for x in xs:
            acc = self.tensor[acc][x]
        return acc


def _least_upper(leq, xs, universe) -> int | None:
    uppers = [c for c in universe if all(leq[x][c] for x in xs)]
    for u in uppers:
        if all(leq[u][c] for c in uppers):
            return u
    return None


def _greatest_lower(leq, xs, universe) -> int | None:
    lowers = [c for c in universe if all(leq[c][x] for x in xs)]
    for u in lowers:
        if all(leq[c][u] for c in lowers):
            return u
    return None


class _Tables(NamedTuple):
    joins: tuple[tuple[int, ...], ...]
    meets: tuple[tuple[int, ...], ...]
    bottom: int
    top: int


def _decide_lattice(leq, names) -> _Tables | ValidationReport:
    """The binary joins and meets, bottom and top of an order table, or a
    failing report naming the first law it breaks, with `names` in the
    witness.

    The order laws come first ("order": reflexivity, then per pair
    antisymmetry and transitivity), then a binary join and meet per pair
    ("lattice"). A finite nonempty partial order with every binary join
    and meet has a bottom and a top, so those scans cannot fail.
    """
    rng = range(len(leq))
    for a in rng:
        if not leq[a][a]:
            return failing("order", f"not reflexive at {names[a]}")
    for a in rng:
        for b in rng:
            if a != b and leq[a][b] and leq[b][a]:
                return failing("order", f"not antisymmetric at ({names[a]},{names[b]})")
            for c in rng:
                if leq[a][b] and leq[b][c] and not leq[a][c]:
                    return failing("order", f"not transitive at ({names[a]},{names[b]},{names[c]})")
    joins = tuple(tuple(_least_upper(leq, (a, b), rng) for b in rng) for a in rng)
    meets = tuple(tuple(_greatest_lower(leq, (a, b), rng) for b in rng) for a in rng)
    for a in rng:
        for b in rng:
            if joins[a][b] is None:
                return failing("lattice", f"no join of ({names[a]},{names[b]})")
            if meets[a][b] is None:
                return failing("lattice", f"no meet of ({names[a]},{names[b]})")
    return _Tables(joins, meets, _least_upper(leq, (), rng), _greatest_lower(leq, (), rng))


@lru_cache(maxsize=256)
def _lattice_tables(leq) -> _Tables | None:
    """`_decide_lattice` once per distinct order table; None unless the
    table is a lattice, which is the only case where folding the binary
    tables gives the join and meet of every tuple."""
    out = _decide_lattice(leq, range(len(leq)))
    return out if isinstance(out, _Tables) else None


_JOINS = attrgetter("joins", "bottom")
_MEETS = attrgetter("meets", "top")


def _fold(order: _Ordered, xs, side, missing: str) -> int:
    """Fold xs through the binary table that `side` (_JOINS or _MEETS)
    picks from the order's tables, starting at its unit; an order without
    tables raises with `missing`."""
    tables = order._lattice
    if tables is None:
        raise IndexOutOfRange(missing)
    table, acc = side(tables)
    for x in xs:
        acc = table[acc][x]
    return acc


def join(q: Quantale, xs) -> int:
    """Least upper bound; the empty join is the bottom element."""
    return _fold(q, xs, _JOINS, "join does not exist; quantale not validated?")


def meet(q: Quantale, xs) -> int:
    return _fold(q, xs, _MEETS, "meet does not exist; quantale not validated?")


def validate_quantale(q: Quantale) -> ValidationReport:
    """Order, lattice, monoid, and two-sided join-distributivity checks.

    Binary joins plus the empty join suffice for join-continuity over a
    finite lattice, so those are what the distributivity check uses.
    """
    if q._lattice is None:
        return _decide_lattice(q.leq, q.elements)
    names = q.elements
    rng = range(q.size())
    for a in rng:
        for b in rng:
            for c in rng:
                if q.mul(q.mul(a, b), c) != q.mul(a, q.mul(b, c)):
                    return failing("associativity", f"({names[a]},{names[b]},{names[c]})")
    for a in rng:
        if q.mul(q.unit, a) != a or q.mul(a, q.unit) != a:
            return failing("unit", names[a])
    bot = join(q, ())
    for a in rng:
        if q.mul(a, bot) != bot or q.mul(bot, a) != bot:
            return failing("distributivity", f"bottom not absorbed at {names[a]}")
        for b in rng:
            for c in rng:
                j = join(q, (b, c))
                if q.mul(a, j) != join(q, (q.mul(a, b), q.mul(a, c))):
                    return failing("distributivity", f"{names[a]}*({names[b]} v {names[c]})")
                if q.mul(j, a) != join(q, (q.mul(b, a), q.mul(c, a))):
                    return failing("distributivity", f"({names[b]} v {names[c]})*{names[a]}")
    return passing("quantale", f"{q.size()} elements")


def residual_right(q: Quantale, a: int, b: int) -> int:
    """Largest c with a*c <= b, computed as the join of all candidates."""
    return join(q, tuple(c for c in range(q.size()) if q.le(q.mul(a, c), b)))


def residual_left(q: Quantale, a: int, b: int) -> int:
    """Largest c with c*a <= b."""
    return join(q, tuple(c for c in range(q.size()) if q.le(q.mul(c, a), b)))


def reverse_quantale(q: Quantale) -> Quantale:
    """Same lattice, tensor arguments swapped; built once per quantale."""
    return q._reversed


# ---------------------------------------------------------------------------
# Builtin quantales.


def boolean_quantale() -> Quantale:
    return Quantale(("0", "1"), ((True, True), (False, True)), ((0, 0), (0, 1)), 1)


def lukasiewicz(n: int) -> Quantale:
    """The chain 0..n with a*b = max(0, a+b-n) and unit n."""
    if n < 1:
        raise IndexOutOfRange("chain length must be at least 1")
    k = n + 1
    return Quantale(
        tuple(str(i) for i in range(k)),
        tuple(tuple(a <= b for b in range(k)) for a in range(k)),
        tuple(tuple(max(0, a + b - n) for b in range(k)) for a in range(k)),
        n,
    )


def trivial_quantale() -> Quantale:
    return Quantale(("1",), ((True,),), ((0,),), 0)


def noncommutative_chain4() -> Quantale:
    """Smallest-chain noncommutative example: 1*2 = 0 but 2*1 = 1."""
    return Quantale(
        ("0", "1", "2", "3"),
        tuple(tuple(a <= b for b in range(4)) for a in range(4)),
        ((0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 2, 2), (0, 1, 2, 3)),
        3,
    )


# ---------------------------------------------------------------------------
# Modules.


@dataclass(frozen=True)
class ModuleLattice(_Ordered):
    base: Quantale
    side: str
    elements: tuple[str, ...]
    leq: tuple[tuple[bool, ...], ...]
    action: tuple[tuple[int, ...], ...]

    _what = "module element"

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise InvalidLabels(f"side must be {LEFT!r} or {RIGHT!r}")
        k = len(self.elements)
        v = self.base.size()
        if len(set(self.elements)) != k or k == 0:
            raise InvalidLabels("module element names must be distinct and nonempty")
        object.__setattr__(self, "leq", tuple(tuple(bool(x) for x in row) for row in self.leq))
        object.__setattr__(self, "action", tuple(tuple(row) for row in self.action))
        rows, cols = (v, k) if self.side == LEFT else (k, v)
        if len(self.action) != rows or any(len(r) != cols for r in self.action):
            raise IndexOutOfRange("action table has the wrong shape")
        for row in self.action:
            for x in row:
                if not 0 <= x < k:
                    raise IndexOutOfRange(f"action entry {x} out of range")

    def act(self, a: int, x: int) -> int:
        """Left action a.x, or right action x.a when side is right."""
        return self.action[a][x] if self.side == LEFT else self.action[x][a]

    @read_once
    def _transposed(self) -> ModuleLattice:
        flipped = RIGHT if self.side == LEFT else LEFT
        action = tuple(zip(*self.action))
        return ModuleLattice(reverse_quantale(self.base), flipped, self.elements, self.leq, action)


def module_join(m: ModuleLattice, xs) -> int:
    return _fold(m, xs, _JOINS, "module join does not exist")


def module_meet(m: ModuleLattice, xs) -> int:
    return _fold(m, xs, _MEETS, "module meet does not exist")


def module_bottom(m: ModuleLattice) -> int:
    return module_join(m, ())


def module_top(m: ModuleLattice) -> int:
    return module_meet(m, ())


def validate_module(m: ModuleLattice) -> ValidationReport:
    """Lattice plus exhaustive action axioms over the validated base."""
    if m._lattice is None:
        return _decide_lattice(m.leq, m.elements)
    q = m.base
    vrng = range(q.size())
    mrng = range(m.size())
    names = m.elements
    for x in mrng:
        if m.act(q.unit, x) != x:
            return failing("unit-action", names[x])
    for a in vrng:
        for b in vrng:
            for x in mrng:
                if m.side == LEFT:
                    lhs, rhs = m.act(q.mul(a, b), x), m.act(a, m.act(b, x))
                else:
                    lhs, rhs = m.act(q.mul(a, b), x), m.act(b, m.act(a, x))
                if lhs != rhs:
                    return failing("associativity", f"({q.elements[a]},{q.elements[b]},{names[x]})")
    # The scalar variable is only required to preserve nonempty joins:
    # over the one-element quantale the bottom scalar is the unit, so a
    # nullary condition there would rule out every nontrivial module.
    mbot = module_join(m, ())
    for a in vrng:
        if m.act(a, mbot) != mbot:
            return failing("distributivity", f"{q.elements[a]}.bottom")
        for x in mrng:
            for y in mrng:
                jm = module_join(m, (x, y))
                if m.act(a, jm) != module_join(m, (m.act(a, x), m.act(a, y))):
                    return failing("distributivity", f"{q.elements[a]}.({names[x]} v {names[y]})")
    for x in mrng:
        for a in vrng:
            for b in vrng:
                jv = join(q, (a, b))
                if m.act(jv, x) != module_join(m, (m.act(a, x), m.act(b, x))):
                    return failing("distributivity", f"({q.elements[a]} v {q.elements[b]}).{names[x]}")
    return passing("module", f"{m.size()} elements, {m.side}")


def left_self_module(q: Quantale) -> ModuleLattice:
    """The quantale acting on itself on the left by its tensor; built once
    per quantale."""
    return q._left_self


def right_self_module(q: Quantale) -> ModuleLattice:
    """The quantale acting on itself on the right; built once per quantale."""
    return q._right_self


def transpose_module(m: ModuleLattice) -> ModuleLattice:
    """A left module over q as a right module over the reverse, and back;
    built once per module.

    The action table is transposed in the sense that the scalar moves to
    the other side; the carrier lattice is unchanged.
    """
    return m._transposed


def one_element_module(q: Quantale, side: str = LEFT) -> ModuleLattice:
    table = ((0,),) * q.size() if side == LEFT else ((0,) * q.size(),)
    return ModuleLattice(q, side, ("m",), ((True,),), table)


def chain_lattice(k: int) -> tuple[tuple[str, ...], tuple[tuple[bool, ...], ...]]:
    names = tuple(f"m{i}" for i in range(k))
    return names, tuple(tuple(a <= b for b in range(k)) for a in range(k))


def diamond_lattice() -> tuple[tuple[str, ...], tuple[tuple[bool, ...], ...]]:
    """Bottom, two incomparable middles, top."""
    names = ("bot", "a", "b", "top")
    le = [[False] * 4 for _ in range(4)]
    order = {(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    for i, j in order:
        le[i][j] = True
    return names, tuple(tuple(row) for row in le)


def module_over_trivial(names, leq, side: str = LEFT) -> ModuleLattice:
    """Any finite lattice as a module over the one-element quantale."""
    q = trivial_quantale()
    k = len(names)
    action = (tuple(range(k)),) if side == LEFT else tuple((i,) for i in range(k))
    return ModuleLattice(q, side, tuple(names), leq, action)


def boolean_downset_module(k: int, side: str = LEFT) -> ModuleLattice:
    """The k-chain as a module over the boolean quantale: top acts as the
    identity and bottom sends everything to the chain bottom."""
    q = boolean_quantale()
    names, leq = chain_lattice(k)
    if side == LEFT:
        action = (tuple(0 for _ in range(k)), tuple(range(k)))
    else:
        action = tuple((0, i) for i in range(k))
    return ModuleLattice(q, side, names, leq, action)
