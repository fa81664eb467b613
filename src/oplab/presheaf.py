"""Presheaves and copresheaves valued in module lattices.

A presheaf is a value table satisfying one family of action inequalities;
everything else here (representables, free presheaves, joins, the tensor
action, duality) is computed from that table and checked exhaustively.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
from .report import Check, ValidationReport, failing, passing


@dataclass(frozen=True)
class Presheaf:
    category: EnrichedCategory
    module: ModuleLattice
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.module.side != LEFT:
            raise BaseMismatch("presheaves take values in a left module")
        if self.module.base != self.category.base:
            raise BaseMismatch("module and category live over different quantales")
        if len(self.values) != len(self.category.objects.labels):
            raise UnknownObject("one value per object required")

    @property
    def is_self(self) -> bool:
        return self.module == left_self_module(self.category.base)


@dataclass(frozen=True)
class Copresheaf:
    category: EnrichedCategory
    module: ModuleLattice
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.module.side != RIGHT:
            raise BaseMismatch("copresheaves take values in a right module")
        if self.module.base != self.category.base:
            raise BaseMismatch("module and category live over different quantales")
        if len(self.values) != len(self.category.objects.labels):
            raise UnknownObject("one value per object required")


def validate_presheaf(f: Presheaf) -> ValidationReport:
    """Exhaustive action law: hom(X,Y).F(Y) <= F(X)."""
    c, m = f.category, f.module
    names = c.objects.labels
    for i in range(len(names)):
        for j in range(len(names)):
            if not m.le(m.act(c.hom[i][j], f.values[j]), f.values[i]):
                return ValidationReport(
                    (
                        Check(
                            "presheaf-action",
                            False,
                            f"hom({names[i]},{names[j]}).F({names[j]}) > F({names[i]})",
                        ),
                    )
                )
    return ValidationReport((Check("presheaf-action", True, None),))


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


def join_presheaves(
    fs, category: EnrichedCategory | None = None, module: ModuleLattice | None = None
) -> Presheaf:
    """Pointwise join; the empty family gives the constant bottom."""
    fs = list(fs)
    if fs:
        category, module = fs[0].category, fs[0].module
        for f in fs[1:]:
            _require_same_home(fs[0], f)
    elif category is None or module is None:
        raise BaseMismatch("an empty join needs an explicit category and module")
    k = len(category.objects.labels)
    values = tuple(module_join(module, tuple(f.values[i] for f in fs)) for i in range(k))
    return Presheaf(category, module, values)


def meet_presheaves(
    fs, category: EnrichedCategory | None = None, module: ModuleLattice | None = None
) -> Presheaf:
    """Pointwise meet; the empty family gives the constant top."""
    fs = list(fs)
    if fs:
        category, module = fs[0].category, fs[0].module
        for f in fs[1:]:
            _require_same_home(fs[0], f)
    elif category is None or module is None:
        raise BaseMismatch("an empty meet needs an explicit category and module")
    k = len(category.objects.labels)
    values = tuple(module_meet(module, tuple(f.values[i] for f in fs)) for i in range(k))
    return Presheaf(category, module, values)


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


def enumerate_presheaves(
    c: EnrichedCategory, module: ModuleLattice | None = None, cap: int = 100_000
) -> list[Presheaf]:
    """All valid value tables over the module, in table order."""
    module = module if module is not None else left_self_module(c.base)
    k = len(c.objects.labels)
    total = module.size() ** k
    if total > cap:
        raise SizeBoundExceeded(f"{total} candidate tables exceed cap {cap}")
    out = []
    for values in itertools.product(range(module.size()), repeat=k):
        f = Presheaf(c, module, values)
        if validate_presheaf(f).ok:
            out.append(f)
    return out


class PresheafLattice:
    """All self-valued presheaves on a category, as a right module.

    Elements are ordered by value table; the right action is the tensor
    action, and joins are pointwise.
    """

    def __init__(self, category: EnrichedCategory, cap: int = 100_000):
        self.category = category
        self.presheaves = tuple(enumerate_presheaves(category, None, cap))
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
        self._laws: dict[ModuleLattice, tuple[ModuleMapLaw, ...]] = {}

    def index_of(self, f: Presheaf) -> int:
        try:
            return self._index[f.values]
        except KeyError:
            raise UnknownObject("presheaf is not in the lattice (invalid table?)") from None

    def size(self) -> int:
        return len(self.presheaves)


def presheaf_lattice(c: EnrichedCategory, cap: int = 100_000) -> PresheafLattice:
    return PresheafLattice(c, cap)


def yoneda_copresheaf(c: EnrichedCategory, lattice: PresheafLattice | None = None) -> Copresheaf:
    """The copresheaf X -> rep_X, valued in the presheaf lattice."""
    lattice = lattice if lattice is not None else presheaf_lattice(c)
    values = tuple(lattice.index_of(rep(c, x)) for x in c.objects.labels)
    return Copresheaf(c, lattice.module, values)


@dataclass(frozen=True)
class ModuleMap:
    """A join-preserving, right-equivariant map out of the presheaf lattice."""

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

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and self.lattice is other.lattice
            and self.target == other.target
            and self.table == other.table
        )

    def __hash__(self):
        return hash((id(self.lattice), self.target, self.table))


class ModuleMapLaw(NamedTuple):
    """One law of a module map: table[out] == rule(*table[inputs])."""

    check: str
    witness: str
    out: int
    inputs: tuple[int, ...]
    rule: Callable[..., int]

    @property
    def last(self) -> int:
        """The highest table position the law reads."""
        return max((self.out,) + self.inputs)

    def holds(self, table) -> bool:
        return table[self.out] == self.rule(*(table[i] for i in self.inputs))


def modulemap_laws(lattice: PresheafLattice, n: ModuleLattice) -> tuple[ModuleMapLaw, ...]:
    """Every law of a module map from the lattice into n, in validation
    order; built once per lattice and target."""
    cached = lattice._laws.get(n)
    if cached is not None:
        return cached
    q = lattice.category.base
    size = lattice.size()
    bottom = module_bottom(n)
    joins = tuple(tuple(module_join(n, (x, y)) for y in range(n.size())) for x in range(n.size()))

    def join(x: int, y: int) -> int:
        return joins[x][y]

    laws = [ModuleMapLaw("join-preservation", "empty join", lattice.bottom_index, (), lambda: bottom)]
    for i in range(size):
        for j in range(i, size):
            laws.append(
                ModuleMapLaw("join-preservation", f"pair ({i},{j})", lattice.join_table[i][j], (i, j), join)
            )
    for i in range(size):
        for a in range(q.size()):
            laws.append(
                ModuleMapLaw(
                    "equivariance",
                    f"presheaf {i}, scalar {q.elements[a]}",
                    lattice.module.act(a, i),
                    (i,),
                    functools.partial(n.act, a),
                )
            )
    lattice._laws[n] = laws = tuple(laws)
    return laws


def validate_modulemap(phi: ModuleMap) -> ValidationReport:
    """Empty and binary join preservation plus right equivariance.

    This owns the law list: `modulemap_laws` is the only definition of
    the laws, listed in the order checked here, and the first law that
    fails is reported with its witness. `enumerate_modulemaps` prunes its
    search with the same list.
    """
    for law in modulemap_laws(phi.lattice, phi.target):
        if not law.holds(phi.table):
            return ValidationReport((Check(law.check, False, law.witness),))
    return ValidationReport((Check("module-map", True, None),))


def duality_to_copresheaf(phi: ModuleMap) -> Copresheaf:
    """Evaluate a module map on the representables."""
    lat = phi.lattice
    c = lat.category
    values = tuple(phi.table[lat.index_of(rep(c, x))] for x in c.objects.labels)
    out = Copresheaf(c, phi.target, values)
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


def enumerate_copresheaves(
    c: EnrichedCategory, n: ModuleLattice, cap: int = 100_000
) -> list[Copresheaf]:
    k = len(c.objects.labels)
    total = n.size() ** k
    if total > cap:
        raise SizeBoundExceeded(f"{total} candidate tables exceed cap {cap}")
    out = []
    for values in itertools.product(range(n.size()), repeat=k):
        g = Copresheaf(c, n, values)
        if validate_copresheaf(g).ok:
            out.append(g)
    return out


def enumerate_modulemaps(
    lattice: PresheafLattice, n: ModuleLattice, cap: int = 1_000_000
) -> list[ModuleMap]:
    """All module maps from the lattice into n, in table order.

    A depth-first search assigns table positions 0, 1, 2, ... in turn,
    trying the values of n in order, so it visits tables in the order of
    `itertools.product`. After assigning a position it tests every law of
    `modulemap_laws` whose highest position that is, and abandons the
    partial table on the first violation. Each complete table is
    validated whole before it is returned. `cap` bounds the number of
    candidate tables, |n|^|lattice|, as if every one were tried.
    """
    size = lattice.size()
    total = n.size() ** size
    if total > cap:
        raise SizeBoundExceeded(f"{total} candidate tables exceed cap {cap}")
    laws_at = [[] for _ in range(size)]
    for law in modulemap_laws(lattice, n):
        laws_at[law.last].append(law)
    table = [0] * size
    out = []

    def extend(p: int) -> None:
        if p == size:
            phi = ModuleMap(lattice, n, table)
            if validate_modulemap(phi).ok:
                out.append(phi)
            return
        for v in range(n.size()):
            table[p] = v
            if all(law.holds(table) for law in laws_at[p]):
                extend(p + 1)

    extend(0)
    return out


def check_duality_bijection(
    c: EnrichedCategory, n: ModuleLattice, cap: int = 1_000_000
) -> ValidationReport:
    """Enumerate both sides and verify the two translations are inverse.

    Checks that the counts agree, that evaluation on representables and
    the join formula round-trip to the identity in both directions, and
    that every produced value validates. A translation whose result fails
    validation is reported as a failed round trip, with the element and
    the error as the witness.
    """
    lattice = presheaf_lattice(c)
    cops = enumerate_copresheaves(c, n, cap)
    maps = enumerate_modulemaps(lattice, n, cap)
    checks = []
    checks.append(
        Check(
            "counts-equal",
            len(cops) == len(maps),
            f"{len(cops)} copresheaves vs {len(maps)} module maps",
        )
    )
    ok = True
    witness = None
    for g in cops:
        try:
            back = duality_to_copresheaf(duality_to_modulemap(g, lattice))
        except ValidationError as e:
            ok, witness = False, f"copresheaf {g.values}: {e}"
            break
        if back != g:
            ok, witness = False, f"copresheaf {g.values} returned as {back.values}"
            break
    checks.append(Check("copresheaf-roundtrip", ok, witness or f"{len(cops)} round trips"))
    ok = True
    witness = None
    for phi in maps:
        try:
            back = duality_to_modulemap(duality_to_copresheaf(phi), lattice)
        except ValidationError as e:
            ok, witness = False, f"module map {phi.table}: {e}"
            break
        if back != phi:
            ok, witness = False, f"module map {phi.table} returned as {back.table}"
            break
    checks.append(Check("modulemap-roundtrip", ok, witness or f"{len(maps)} round trips"))
    return ValidationReport(tuple(checks))


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

    def fails(family, what: str) -> ValidationReport:
        return failing("pointwise-limits", f"family {tuple(f.values for f in family)}: {what}")

    families = 0
    for r in range(len(presheaves) + 1):
        for family in itertools.combinations(presheaves, r):
            j = join_presheaves(family, c, module)
            m = meet_presheaves(family, c, module)
            if not validate_presheaf(j).ok or not validate_presheaf(m).ok:
                return fails(family, "join or meet fails to validate")
            for x in c.objects.labels:
                values = tuple(ev(f, x) for f in family)
                if ev(j, x) != module_join(module, values):
                    return fails(family, f"join not pointwise at {x}")
                if ev(m, x) != module_meet(module, values):
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
    for f in fs:
        pf = pushforward(phi, f)
        if not validate_presheaf(pf).ok:
            return failing("pushforward", f"image of {f.values} invalid")
        for g in gs:
            if leq_presheaves(pf, g) != leq_presheaves(f, pullback(phi, g)):
                return failing("pushforward", f"adjunction fails at {f.values}, {g.values}")
        for a in range(q.size()):
            if pushforward(phi, tensor_action(f, a)) != tensor_action(pf, a):
                return failing("pushforward", f"not equivariant at {f.values}, {q.elements[a]}")
    for x in c.objects.labels:
        for a in range(q.size()):
            if pushforward(phi, free_presheaf(c, x, a)) != free_presheaf(d, x, a):
                return failing("pushforward", f"free presheaf at ({x},{q.elements[a]}) not preserved")
    return passing("pushforward", f"{len(fs)} presheaves against {len(gs)}")
