"""Validation reports: named checks with optional counterexample witnesses,
and the law lists that decide value tables, shared by validators and
enumerators."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from .errors import SizeBoundExceeded, ValidationError


class read_once:
    """functools.cached_property without its lock, which Python 3.11 takes
    on every first read: oplab is single-threaded. The value is stored in
    the instance __dict__ under the function's name."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...] = field(default_factory=tuple)

    @read_once
    def ok(self) -> bool:
        """Computed on the first read; a report's checks never change."""
        return all(c.ok for c in self.checks)

    def first_failure(self) -> Check | None:
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def require(self, context: str = "") -> ValidationReport:
        """Raise ValidationError on the first failing check."""
        bad = self.first_failure()
        if bad is not None:
            where = f"{context}: " if context else ""
            detail = f" ({bad.witness})" if bad.witness else ""
            raise ValidationError(f"{where}{bad.name}{detail}")
        return self


def passing(name: str, witness: str | None = None) -> ValidationReport:
    return ValidationReport((Check(name, True, witness),))


def failing(name: str, witness: str) -> ValidationReport:
    return ValidationReport((Check(name, False, witness),))


# ---------------------------------------------------------------------------
# Value tables constrained by laws: one list per table kind serves both its
# validator and its enumerator.

TABLE_BOUND = 1_000_000


class Law(NamedTuple):
    """One law of a value table; `holds` reads no position after `last`."""

    check: str
    witness: str
    last: int
    holds: Callable[[Sequence[int]], bool]


def check_laws(
    laws: Sequence[Law], table: Sequence[int], name: str, witness: str | None = None
) -> ValidationReport:
    """The first law the table breaks, with its witness, else a pass named `name`."""
    for law in laws:
        if not law.holds(table):
            return failing(law.check, law.witness)
    return passing(name, witness)


def search_tables(size: int, n_values: int, laws: Sequence[Law]) -> list[tuple[int, ...]]:
    """Every table of `size` values in range(n_values) that keeps all the laws,
    in the order of `itertools.product`.

    A depth-first search assigns positions 0, 1, 2, ... in turn, trying the
    values in order. After assigning a position it tests the laws whose
    `last` that is, and abandons the partial table on the first violation.
    Each complete table is tested against every law again. More than
    TABLE_BOUND candidate tables, n_values**size, are refused before any
    is tried.
    """
    total = n_values**size
    if total > TABLE_BOUND:
        raise SizeBoundExceeded(f"{total} candidate tables exceed the bound {TABLE_BOUND}")
    every = [law.holds for law in laws]
    holds_at = [[] for _ in range(size)]
    for law in laws:
        holds_at[law.last].append(law.holds)
    table = [0] * size
    out = []

    def extend(p: int) -> None:
        if p == size:
            for holds in every:
                if not holds(table):
                    return
            out.append(tuple(table))
            return
        here = holds_at[p]
        for v in range(n_values):
            table[p] = v
            for holds in here:
                if not holds(table):
                    break
            else:
                extend(p + 1)

    extend(0)
    return out
