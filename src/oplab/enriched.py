"""Quantale-enriched categories on a fixed object set.

A category is a hom table of quantale elements; the unit and composition
structure are inequalities, so being a category is a property that the
validator decides.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BaseMismatch,
    IndexOutOfRange,
    InvalidLabels,
    LabelMismatch,
    ObjectMismatch,
    UnknownObject,
)
from .graphs import Graph, GraphMorphism, LabelSet
from .quantale import Quantale, reverse_quantale
from .report import Law, ValidationReport, check_laws, failing, passing, read_once, search_tables


@dataclass(frozen=True)
class EnrichedCategory:
    base: Quantale
    objects: LabelSet
    hom: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.objects.pointed:
            raise InvalidLabels("object sets are unpointed")
        k = len(self.objects.labels)
        object.__setattr__(self, "hom", tuple(tuple(row) for row in self.hom))
        if len(self.hom) != k or any(len(r) != k for r in self.hom):
            raise IndexOutOfRange("hom table has the wrong shape")
        for row in self.hom:
            for v in row:
                if not 0 <= v < self.base.size():
                    raise IndexOutOfRange(f"hom entry {v} out of range")

    @read_once
    def _opposite(self) -> EnrichedCategory:
        return EnrichedCategory(reverse_quantale(self.base), self.objects, tuple(zip(*self.hom)))

    @read_once
    def _presheaf_laws(self) -> dict:
        """`presheaf.presheaf_laws` per module, filled by that function."""
        return {}

    def obj_index(self, name: str) -> int:
        try:
            return self.objects.labels.index(name)
        except ValueError:
            raise UnknownObject(f"no object named {name!r}") from None

    def hom_named(self, x: str, y: str) -> int:
        return self.hom[self.obj_index(x)][self.obj_index(y)]


def category_laws(q: Quantale, objects: LabelSet) -> tuple[Law, ...]:
    """The unit and composition inequalities of a hom table, in validation
    order, over the flat table with hom(X_i, X_j) at position i*k + j."""
    names = objects.labels
    k = len(names)
    le, mul = q.le, q.mul
    laws = [
        Law("unit-law", f"unit > hom({x},{x})", i * k + i, lambda t, p=i * k + i: le(q.unit, t[p]))
        for i, x in enumerate(names)
    ]
    for i in range(k):
        for j in range(k):
            for l in range(k):
                ij, jl, il = i * k + j, j * k + l, i * k + l
                laws.append(
                    Law(
                        "composition-law",
                        f"hom({names[i]},{names[j]})*hom({names[j]},{names[l]}) "
                        f"> hom({names[i]},{names[l]})",
                        max(ij, jl, il),
                        lambda t, ij=ij, jl=jl, il=il: le(mul(t[ij], t[jl]), t[il]),
                    )
                )
    return tuple(laws)


def validate_category(c: EnrichedCategory) -> ValidationReport:
    """Unit and composition inequalities, exhaustively, with witnesses."""
    flat = tuple(v for row in c.hom for v in row)
    return check_laws(category_laws(c.base, c.objects), flat, "category", f"{len(c.hom)} objects")


def opposite(c: EnrichedCategory) -> EnrichedCategory:
    """Transpose the hom table; the result lives over the reversed base.
    Built once per category."""
    return c._opposite


def trivial_category(base: Quantale, objects: LabelSet) -> EnrichedCategory:
    k = len(objects.labels)
    return EnrichedCategory(base, objects, tuple((base.unit,) * k for _ in range(k)))


def _require_over_objects(c: EnrichedCategory, g: Graph):
    if g.labels != c.objects:
        raise LabelMismatch(f"graph over {g.labels}, category over {c.objects}")


def evaluate_on_graph(c: EnrichedCategory, g: Graph) -> int:
    """Tensor of the edge homs in edge order; the empty graph gives the unit."""
    _require_over_objects(c, g)
    return c.base.mul_all(c.hom_named(s, t) for s, t in g.edges)


def evaluate_morphism_inequality(c: EnrichedCategory, m: GraphMorphism) -> ValidationReport:
    """The algebra condition of a morphism, one inequality per target edge.

    A nonempty fiber must tensor below the target hom; an empty fiber asks
    the unit to sit below the hom of the (loop) target edge.
    """
    _require_over_objects(c, m.source)
    _require_over_objects(c, m.target)
    q = c.base
    for i, fib in enumerate(m.fibers):
        s, t = m.target.edges[i]
        bound = c.hom_named(s, t)
        value = q.mul_all(
            c.hom_named(*m.source.edges[e]) for e in fib
        )
        if not q.le(value, bound):
            return failing(
                "algebra-condition",
                f"target edge {i} ({s},{t}): {q.elements[value]} > {q.elements[bound]}",
            )
    return passing("algebra-condition", f"{len(m.fibers)} target edges")


@dataclass(frozen=True)
class EnrichedFunctor:
    source: EnrichedCategory
    target: EnrichedCategory


def is_enriched_functor(f: EnrichedFunctor) -> ValidationReport:
    """Pointwise hom inequality for an identity-on-objects functor."""
    if f.source.base != f.target.base:
        raise BaseMismatch("functor endpoints live over different quantales")
    if f.source.objects != f.target.objects:
        raise ObjectMismatch("functor endpoints have different object sets")
    q = f.source.base
    names = f.source.objects.labels
    for i in range(len(names)):
        for j in range(len(names)):
            if not q.le(f.source.hom[i][j], f.target.hom[i][j]):
                return failing(
                    "functor",
                    f"hom({names[i]},{names[j]}): "
                    f"{q.elements[f.source.hom[i][j]]} > {q.elements[f.target.hom[i][j]]}",
                )
    return passing("functor")


def enumerate_categories(base: Quantale, objects: LabelSet) -> list[EnrichedCategory]:
    """All valid hom tables over the base, in table order."""
    k = len(objects.labels)
    return [
        EnrichedCategory(base, objects, tuple(t[i * k : (i + 1) * k] for i in range(k)))
        for t in search_tables(k * k, base.size(), category_laws(base, objects))
    ]
