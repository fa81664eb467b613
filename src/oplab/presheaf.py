"""Presheaves and copresheaves valued in module lattices.

A presheaf is a value table satisfying one family of action inequalities;
everything else here (representables, free presheaves, joins, the tensor
action, duality) is computed from that table and checked exhaustively.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .enriched import EnrichedCategory, EnrichedFunctor, is_enriched_functor, opposite
from .errors import BaseMismatch, SizeBoundExceeded, UnknownObject, ValidationError
from .quantale import (
    LEFT,
    RIGHT,
    ModuleLattice,
    left_self_module,
    module_bottom,
    module_join,
    module_meet,
    transpose_module,
)
from .report import Check, Law, ValidationReport, check_laws, failing, passing, search_tables


def _require_home(category: EnrichedCategory, module: ModuleLattice, side: str) -> None:
    """Refuse value tables in a module on the wrong side or over another quantale."""
    if module.side != side:
        kind = "presheaves" if side == LEFT else "copresheaves"
        raise BaseMismatch(f"{kind} take values in a {side} module")
    if module.base != category.base:
        raise BaseMismatch("module and category live over different quantales")


@dataclass(frozen=True)
class _ValueTable:
    """One value per object of the category, in a module on the side that
    each kind sets as `_side`. Equality also compares the kind, so a
    presheaf never equals a copresheaf."""

    category: EnrichedCategory
    module: ModuleLattice
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        _require_home(self.category, self.module, self._side)
        if len(self.values) != len(self.category.objects.labels):
            raise UnknownObject("one value per object required")


@dataclass(frozen=True)
class Presheaf(_ValueTable):
    _side = LEFT

    @property
    def is_self(self) -> bool:
        return self.module == left_self_module(self.category.base)


@dataclass(frozen=True)
class Copresheaf(_ValueTable):
    _side = RIGHT


def presheaf_laws(c: EnrichedCategory, m: ModuleLattice) -> tuple[Law, ...]:
    """The action law hom(X,Y).F(Y) <= F(X) at every pair of objects, in
    validation order, over the table of values F(X) in object order."""
    names = c.objects.labels
    k = len(names)
    le, act = m.le, m.act
    return tuple(
        Law(
            "presheaf-action",
            f"hom({names[i]},{names[j]}).F({names[j]}) > F({names[i]})",
            max(i, j),
            lambda t, a=c.hom[i][j], i=i, j=j: le(act(a, t[j]), t[i]),
        )
        for i in range(k)
        for j in range(k)
    )


def validate_presheaf(f: Presheaf) -> ValidationReport:
    """Exhaustive action law: hom(X,Y).F(Y) <= F(X)."""
    return check_laws(presheaf_laws(f.category, f.module), f.values, "presheaf-action")


def transported_presheaf(g: Copresheaf) -> Presheaf:
    """A copresheaf as a presheaf on the opposite over the reversed base.

    This transport is the definition of the copresheaf law, so the two
    conventions cannot drift apart.
    """
    return Presheaf(opposite(g.category), transpose_module(g.module), g.values)


def validate_copresheaf(g: Copresheaf) -> ValidationReport:
    return validate_presheaf(transported_presheaf(g))


def ev(f: Presheaf | Copresheaf, x: str) -> int:
    """Value table lookup by object name."""
    return f.values[f.category.obj_index(x)]


def rep(c: EnrichedCategory, x: str) -> Presheaf:
    """The representable presheaf Y -> hom(Y, x), valued in the base."""
    i = c.obj_index(x)
    return Presheaf(
        c,
        left_self_module(c.base),
        tuple(row[i] for row in c.hom),
    )


def free_presheaf(
    c: EnrichedCategory, x: str, m_elt: int, module: ModuleLattice | None = None
) -> Presheaf:
    """The presheaf Y -> hom(Y,x).m, freely generated by m at x."""
    module = module if module is not None else left_self_module(c.base)
    if module.base != c.base:
        raise BaseMismatch("module lives over a different quantale")
    i = c.obj_index(x)
    return Presheaf(c, module, tuple(module.act(row[i], m_elt) for row in c.hom))


def leq_presheaves(f: Presheaf, g: Presheaf) -> bool:
    _require_same_home(f, g)
    return all(f.module.le(a, b) for a, b in zip(f.values, g.values))


def _require_same_home(f, g):
    if f.category is g.category and f.module is g.module:
        return
    if f.category != g.category or f.module != g.module:
        raise BaseMismatch("presheaves live on different categories or modules")


def yoneda_check(c: EnrichedCategory, x: str, m_elt: int, f: Presheaf) -> tuple[bool, bool]:
    """Both sides of the representability biconditional: whether the free
    presheaf at (x, m) sits below f, and whether m sits below f(x).
    `check_representability` reports where they differ."""
    free = free_presheaf(c, x, m_elt, f.module)
    return leq_presheaves(free, f), f.module.le(m_elt, ev(f, x))


def tensor_action(f: Presheaf, a: int) -> Presheaf:
    """Right action on self-valued presheaves: (F.a)(X) = F(X)*a."""
    if not f.is_self:
        raise BaseMismatch("the right action lives on self-valued presheaves")
    q = f.category.base
    return Presheaf(f.category, f.module, tuple(q.mul(v, a) for v in f.values))


def _pointwise(fold, what: str, fs, category, module) -> Presheaf:
    """Fold each object's values of a family of presheaves on one home; an
    empty family needs its category and module given."""
    fs = list(fs)
    if fs:
        category, module = fs[0].category, fs[0].module
        for f in fs[1:]:
            _require_same_home(fs[0], f)
    elif category is None or module is None:
        raise BaseMismatch(f"an empty {what} needs an explicit category and module")
    k = len(category.objects.labels)
    values = tuple(fold(module, tuple(f.values[i] for f in fs)) for i in range(k))
    return Presheaf(category, module, values)


def join_presheaves(
    fs, category: EnrichedCategory | None = None, module: ModuleLattice | None = None
) -> Presheaf:
    """Pointwise join; the empty family gives the constant bottom."""
    return _pointwise(module_join, "join", fs, category, module)


def meet_presheaves(
    fs, category: EnrichedCategory | None = None, module: ModuleLattice | None = None
) -> Presheaf:
    """Pointwise meet; the empty family gives the constant top."""
    return _pointwise(module_meet, "meet", fs, category, module)


def density_decompose(f: Presheaf) -> list[Presheaf]:
    """Components of f as a join of free presheaves, one per object;
    `check_density` confirms that they join back to f."""
    if not f.is_self:
        raise BaseMismatch("density is stated for self-valued presheaves")
    c = f.category
    return [free_presheaf(c, x, f.values[i]) for i, x in enumerate(c.objects.labels)]


def pullback(phi: EnrichedFunctor, g: Presheaf) -> Presheaf:
    """Restriction along an identity-on-objects functor: same value table."""
    is_enriched_functor(phi).require("pullback")
    if g.category != phi.target:
        raise BaseMismatch("presheaf does not live on the functor target")
    return Presheaf(phi.source, g.module, g.values)


def pushforward(phi: EnrichedFunctor, f: Presheaf) -> Presheaf:
    """Least extension along the functor: X -> join_Y homD(X,Y).f(Y)."""
    is_enriched_functor(phi).require("pushforward")
    if f.category != phi.source:
        raise BaseMismatch("presheaf does not live on the functor source")
    d = phi.target
    m = f.module
    k = len(d.objects.labels)
    values = tuple(
        module_join(m, tuple(m.act(d.hom[i][j], f.values[j]) for j in range(k)))
        for i in range(k)
    )
    return Presheaf(d, m, values)


# ---------------------------------------------------------------------------
# The lattice of all presheaves, its right action, and duality.


def enumerate_presheaves(c: EnrichedCategory, module: ModuleLattice | None = None) -> list[Presheaf]:
    """All valid value tables over the module, in table order."""
    module = module if module is not None else left_self_module(c.base)
    _require_home(c, module, LEFT)
    tables = search_tables(len(c.objects.labels), module.size(), presheaf_laws(c, module))
    return [Presheaf(c, module, t) for t in tables]


class PresheafLattice:
    """All self-valued presheaves on a category, as a right module.

    Elements are ordered by value table; the right action is the tensor
    action, and joins are pointwise. `representables` holds the index of
    rep(c, x) for each object x, in object order.
    """

    def __init__(self, category: EnrichedCategory):
        self.category = category
        self.presheaves = tuple(enumerate_presheaves(category))
        self._index = {f.values: i for i, f in enumerate(self.presheaves)}
        q = category.base
        names = tuple(
            "(" + ",".join(q.elements[v] for v in f.values) + ")" for f in self.presheaves
        )
        n = len(self.presheaves)
        leq = tuple(
            tuple(leq_presheaves(self.presheaves[i], self.presheaves[j]) for j in range(n))
            for i in range(n)
        )
        action = tuple(
            tuple(self.index_of(tensor_action(self.presheaves[i], a)) for a in range(q.size()))
            for i in range(n)
        )
        self.module = ModuleLattice(q, RIGHT, names, leq, action)
        self.join_table = tuple(
            tuple(
                self.index_of(join_presheaves([self.presheaves[i], self.presheaves[j]]))
                for j in range(n)
            )
            for i in range(n)
        )
        self.bottom_index = self.index_of(join_presheaves([], category, left_self_module(q)))
        self.representables = tuple(
            self.index_of(rep(category, x)) for x in category.objects.labels
        )
        self._laws: dict[ModuleLattice, tuple[Law, ...]] = {}

    def index_of(self, f: Presheaf) -> int:
        try:
            return self._index[f.values]
        except KeyError:
            raise UnknownObject("presheaf is not in the lattice (invalid table?)") from None

    def size(self) -> int:
        return len(self.presheaves)


def presheaf_lattice(c: EnrichedCategory) -> PresheafLattice:
    return PresheafLattice(c)


def yoneda_copresheaf(c: EnrichedCategory, lattice: PresheafLattice | None = None) -> Copresheaf:
    """The copresheaf X -> rep_X, valued in the presheaf lattice."""
    lattice = lattice if lattice is not None else presheaf_lattice(c)
    return Copresheaf(c, lattice.module, lattice.representables)


@dataclass(frozen=True)
class ModuleMap:
    """A join-preserving, right-equivariant map out of the presheaf lattice.
    Maps are equal only over the same lattice object: lattices compare by
    identity."""

    lattice: PresheafLattice
    target: ModuleLattice
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if self.target.side != RIGHT:
            raise BaseMismatch("module maps land in a right module")
        if self.target.base != self.lattice.category.base:
            raise BaseMismatch("target module lives over a different quantale")
        if len(self.table) != self.lattice.size():
            raise UnknownObject("one value per presheaf required")


def modulemap_laws(lattice: PresheafLattice, n: ModuleLattice) -> tuple[Law, ...]:
    """Every law of a module map from the lattice into n, in validation
    order; built once per lattice and target."""
    cached = lattice._laws.get(n)
    if cached is not None:
        return cached
    q = lattice.category.base
    size = lattice.size()
    bottom = module_bottom(n)
    joins = tuple(tuple(module_join(n, (x, y)) for y in range(n.size())) for x in range(n.size()))
    b = lattice.bottom_index
    laws = [Law("join-preservation", "empty join", b, lambda t: t[b] == bottom)]
    for i in range(size):
        for j in range(i, size):
            o = lattice.join_table[i][j]
            laws.append(
                Law(
                    "join-preservation",
                    f"pair ({i},{j})",
                    max(o, j),
                    lambda t, o=o, i=i, j=j: t[o] == joins[t[i]][t[j]],
                )
            )
    for i in range(size):
        for a in range(q.size()):
            o = lattice.module.act(a, i)
            laws.append(
                Law(
                    "equivariance",
                    f"presheaf {i}, scalar {q.elements[a]}",
                    max(o, i),
                    lambda t, o=o, i=i, a=a: t[o] == n.act(a, t[i]),
                )
            )
    lattice._laws[n] = laws = tuple(laws)
    return laws


def validate_modulemap(phi: ModuleMap) -> ValidationReport:
    """Empty and binary join preservation plus right equivariance, as listed
    by `modulemap_laws`; `enumerate_modulemaps` searches under the same list."""
    return check_laws(modulemap_laws(phi.lattice, phi.target), phi.table, "module-map")


def duality_to_copresheaf(phi: ModuleMap) -> Copresheaf:
    """Evaluate a module map on the representables."""
    lat = phi.lattice
    out = Copresheaf(lat.category, phi.target, tuple(phi.table[i] for i in lat.representables))
    validate_copresheaf(out).require("duality_to_copresheaf")
    return out


def duality_to_modulemap(g: Copresheaf, lattice: PresheafLattice) -> ModuleMap:
    """The join formula: F -> join_X g(X).F(X).

    Forced by join preservation and density; the bijection check below
    confirms it is inverse to evaluation on representables.
    """
    if g.category != lattice.category:
        raise BaseMismatch("copresheaf lives on a different category")
    n = g.module
    table = tuple(
        module_join(
            n,
            tuple(n.act(f.values[i], g.values[i]) for i in range(len(g.values))),
        )
        for f in lattice.presheaves
    )
    out = ModuleMap(lattice, n, table)
    validate_modulemap(out).require("duality_to_modulemap")
    return out


def enumerate_copresheaves(c: EnrichedCategory, n: ModuleLattice) -> list[Copresheaf]:
    """All valid value tables over the right module n, in table order; the
    laws are those of the transported presheaf."""
    _require_home(c, n, RIGHT)
    laws = presheaf_laws(opposite(c), transpose_module(n))
    return [Copresheaf(c, n, t) for t in search_tables(len(c.objects.labels), n.size(), laws)]


def enumerate_modulemaps(lattice: PresheafLattice, n: ModuleLattice) -> list[ModuleMap]:
    """All module maps from the lattice into n, in table order."""
    tables = search_tables(lattice.size(), n.size(), modulemap_laws(lattice, n))
    return [ModuleMap(lattice, n, t) for t in tables]


def check_duality_bijection(c: EnrichedCategory, n: ModuleLattice) -> ValidationReport:
    """Enumerate both sides and verify the two translations are inverse.

    Checks that the counts agree, that evaluation on representables and
    the join formula round-trip to the identity in both directions, and
    that every produced value validates. A translation whose result fails
    validation is reported as a failed round trip, with the element and
    the error as the witness.
    """
    lattice = presheaf_lattice(c)
    cops = enumerate_copresheaves(c, n)
    maps = enumerate_modulemaps(lattice, n)
    to_cop = duality_to_copresheaf

    def to_map(g: Copresheaf) -> ModuleMap:
        return duality_to_modulemap(g, lattice)

    counts = f"{len(cops)} copresheaves vs {len(maps)} module maps"
    return ValidationReport(
        (
            Check("counts-equal", len(cops) == len(maps), counts),
            _round_trip("copresheaf-roundtrip", "copresheaf", "values", cops, to_map, to_cop),
            _round_trip("modulemap-roundtrip", "module map", "table", maps, to_cop, to_map),
        )
    )


def _round_trip(name: str, kind: str, field: str, items, there, back) -> Check:
    """Whether back(there(x)) == x for every item; the first item that fails
    validation on the way, or comes back changed, is the witness, shown by
    its `field`."""
    for x in items:
        try:
            y = back(there(x))
        except ValidationError as e:
            return Check(name, False, f"{kind} {getattr(x, field)}: {e}")
        if y != x:
            return Check(name, False, f"{kind} {getattr(x, field)} returned as {getattr(y, field)}")
    return Check(name, True, f"{len(items)} round trips")


# ---------------------------------------------------------------------------
# The presheaf suites behind the CLI verbs and the acceptance criteria.


def check_representability(c: EnrichedCategory, module: ModuleLattice | None = None) -> ValidationReport:
    """The Yoneda biconditional at every (object, element, presheaf)."""
    module = module if module is not None else left_self_module(c.base)
    count = 0
    for f in enumerate_presheaves(c, module):
        for x in c.objects.labels:
            for m_elt in range(module.size()):
                lhs, rhs = yoneda_check(c, x, m_elt, f)
                if lhs != rhs:
                    witness = f"presheaf {f.values} at ({x}, {m_elt}): {lhs} vs {rhs}"
                    return failing("representability", witness)
                count += 1
    return passing("representability", f"{count} (object, element, presheaf) triples")


def check_density(c: EnrichedCategory) -> ValidationReport:
    """Every self-valued presheaf is the join of its density components."""
    presheaves = enumerate_presheaves(c)
    for f in presheaves:
        joined = join_presheaves(density_decompose(f), c, f.module)
        if joined != f:
            return failing("density", f"presheaf {f.values} recovered as {joined.values}")
    return passing("density", f"{len(presheaves)} presheaves decomposed")


def check_pointwise_limits(c: EnrichedCategory) -> ValidationReport:
    """Joins and meets of every family of self-valued presheaves validate
    and are computed pointwise. More than 16 presheaves are refused before
    any family is formed."""
    presheaves = enumerate_presheaves(c)
    if len(presheaves) > 16:
        raise SizeBoundExceeded(f"{2 ** len(presheaves)} families exceed the family bound")
    module = left_self_module(c.base)
    valid = {f.values for f in presheaves}

    def fails(family, what: str) -> ValidationReport:
        return failing("pointwise-limits", f"family {tuple(f.values for f in family)}: {what}")

    families = 0
    for r in range(len(presheaves) + 1):
        for family in itertools.combinations(presheaves, r):
            j = join_presheaves(family, c, module)
            m = meet_presheaves(family, c, module)
            if j.values not in valid or m.values not in valid:
                return fails(family, "join or meet fails to validate")
            for i, x in enumerate(c.objects.labels):
                values = tuple(f.values[i] for f in family)
                if j.values[i] != module_join(module, values):
                    return fails(family, f"join not pointwise at {x}")
                if m.values[i] != module_meet(module, values):
                    return fails(family, f"meet not pointwise at {x}")
            families += 1
    return passing("pointwise-limits", f"{families} families")


def check_pushforward(phi: EnrichedFunctor) -> ValidationReport:
    """Extension along an enriched functor: each image validates, is left
    adjoint to pullback, commutes with the tensor action, and free
    presheaves go to free presheaves. A non-functor raises."""
    is_enriched_functor(phi).require("pushforward")
    c, d = phi.source, phi.target
    q = c.base
    fs = enumerate_presheaves(c)
    gs = enumerate_presheaves(d)
    pulled = [pullback(phi, g) for g in gs]
    valid = {g.values for g in gs}
    for f in fs:
        pf = pushforward(phi, f)
        if pf.values not in valid:
            return failing("pushforward", f"image of {f.values} invalid")
        for g, pg in zip(gs, pulled):
            if leq_presheaves(pf, g) != leq_presheaves(f, pg):
                return failing("pushforward", f"adjunction fails at {f.values}, {g.values}")
        for a in range(q.size()):
            if pushforward(phi, tensor_action(f, a)) != tensor_action(pf, a):
                return failing("pushforward", f"not equivariant at {f.values}, {q.elements[a]}")
    for x in c.objects.labels:
        for a in range(q.size()):
            if pushforward(phi, free_presheaf(c, x, a)) != free_presheaf(d, x, a):
                return failing("pushforward", f"free presheaf at ({x},{q.elements[a]}) not preserved")
    return passing("pushforward", f"{len(fs)} presheaves against {len(gs)}")
