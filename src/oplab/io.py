"""JSON artifact loading and dumping.

Every loader validates before returning, so a file that parses but
violates its invariants fails with the validator's witness. Paths inside
artifacts resolve relative to the file that mentions them.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from .enriched import EnrichedCategory, validate_category
from .errors import SchemaError
from .graphs import Graph, GraphMorphism, LabelSet, validate_morphism
from .presheaf import (
    Copresheaf,
    Presheaf,
    validate_copresheaf,
    validate_presheaf,
)
from .quantale import (
    LEFT,
    RIGHT,
    ModuleLattice,
    Quantale,
    left_self_module,
    right_self_module,
    validate_module,
    validate_quantale,
)
from .simplex import LabeledSimplex


def _read(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return data


def _need(data: dict, key: str, where: str):
    if key not in data:
        raise SchemaError(f"{where}: missing field {key!r}")
    return data[key]


@contextmanager
def _parsing(where: str):
    """Report a raw field of the wrong shape, or a name no element has, as a
    SchemaError. Only the conversion of raw fields runs inside; constructors
    and validators run outside and raise their own typed errors."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{where}: unknown element {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: malformed field ({exc})") from None


def _labelset(data: dict, where: str) -> LabelSet:
    labels = _need(data, "labels", where)
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError(f"{where}: labels must be a list of strings")
    return LabelSet(tuple(labels), bool(data.get("pointed", False)))


def graph_from_dict(data: dict, where: str = "graph") -> Graph:
    labels = _labelset(data, where)
    with _parsing(where):
        edges = tuple((s, t) for s, t in _need(data, "edges", where))
    return Graph(labels, edges)


def graph_to_dict(g: Graph) -> dict:
    return {
        "labels": list(g.labels.labels),
        "pointed": g.labels.pointed,
        "edges": [[s, t] for s, t in g.edges],
    }


def load_graph(path: str | Path) -> Graph:
    return graph_from_dict(_read(Path(path)), str(path))


def morphism_from_dict(data: dict, where: str = "morphism") -> GraphMorphism:
    source = graph_from_dict(_need(data, "source", where), f"{where}.source")
    target = graph_from_dict(_need(data, "target", where), f"{where}.target")
    known = [str(i + 1) for i in range(len(target.edges))]
    with _parsing(where):
        edge_map = tuple(None if v == 0 else v - 1 for v in _need(data, "edge_map", where))
        raw_fibers = data.get("fibers", {})
        for key in raw_fibers:
            if key not in known:
                raise SchemaError(f"{where}: fiber key {key!r} is not a target edge")
        fibers = tuple(tuple(e - 1 for e in raw_fibers.get(i, [])) for i in known)
    m = GraphMorphism(source, target, edge_map, fibers)
    validate_morphism(m).require(where)
    return m


def load_morphism(path: str | Path) -> GraphMorphism:
    return morphism_from_dict(_read(Path(path)), str(path))


def load_simplex(path: str | Path) -> LabeledSimplex:
    path = Path(path)
    data = _read(path)
    labels = _labelset(data, str(path))
    with _parsing(str(path)):
        chain = tuple(_need(data, "chain", str(path)))
    return LabeledSimplex(labels, chain)


def load_quantale(path: str | Path) -> Quantale:
    path = Path(path)
    data = _read(path)
    with _parsing(str(path)):
        elements = tuple(_need(data, "elements", str(path)))
        index = {name: i for i, name in enumerate(elements)}
        leq = tuple(tuple(row) for row in _need(data, "leq", str(path)))
        tensor = tuple(tuple(index[v] for v in row) for row in _need(data, "tensor", str(path)))
        unit = index[_need(data, "unit", str(path))]
    q = Quantale(elements, leq, tensor, unit)
    validate_quantale(q).require(str(path))
    return q


def load_module(path: str | Path) -> ModuleLattice:
    path = Path(path)
    data = _read(path)
    with _parsing(str(path)):
        base_path = path.parent / _need(data, "quantale", str(path))
        side = _need(data, "side", str(path))
        if side not in (LEFT, RIGHT):
            raise SchemaError(f"{path}: side must be 'left' or 'right'")
        elements = tuple(_need(data, "elements", str(path)))
        index = {name: i for i, name in enumerate(elements)}
        leq = tuple(tuple(row) for row in _need(data, "leq", str(path)))
        action = tuple(tuple(index[v] for v in row) for row in _need(data, "action", str(path)))
    m = ModuleLattice(load_quantale(base_path), side, elements, leq, action)
    validate_module(m).require(str(path))
    return m


def load_category(path: str | Path) -> EnrichedCategory:
    path = Path(path)
    data = _read(path)
    with _parsing(str(path)):
        base_path = path.parent / _need(data, "quantale", str(path))
        objects = tuple(_need(data, "objects", str(path)))
        k = len(objects)
        names = [[None] * k for _ in range(k)]
        for key, value in _need(data, "hom", str(path)).items():
            parts = key.split(",")
            if len(parts) != 2 or parts[0] not in objects or parts[1] not in objects:
                raise SchemaError(f"{path}: bad hom key {key!r}")
            names[objects.index(parts[0])][objects.index(parts[1])] = value
    if any(v is None for row in names for v in row):
        raise SchemaError(f"{path}: hom table is not total")
    base = load_quantale(base_path)
    hom = tuple(tuple(base.index(v) for v in row) for row in names)
    c = EnrichedCategory(base, LabelSet(objects), hom)
    validate_category(c).require(str(path))
    return c


def _value_table(c: EnrichedCategory, module: ModuleLattice, data: dict, where: str):
    with _parsing(where):
        raw = _need(data, "values", where)
        names = []
        for x in c.objects.labels:
            if x not in raw:
                raise SchemaError(f"{where}: missing value at {x!r}")
            names.append(raw[x])
    return tuple(module.index(v) for v in names)


def load_presheaf(path: str | Path) -> Presheaf:
    path = Path(path)
    data = _read(path)
    if data.get("side") == "co":
        raise SchemaError(f"{path}: this file holds a copresheaf")
    with _parsing(str(path)):
        category_path = path.parent / _need(data, "category", str(path))
        module_ref = _need(data, "module", str(path))
        module_path = None if module_ref == "self" else path.parent / module_ref
    c = load_category(category_path)
    module = left_self_module(c.base) if module_path is None else load_module(module_path)
    f = Presheaf(c, module, _value_table(c, module, data, str(path)))
    validate_presheaf(f).require(str(path))
    return f


def load_copresheaf(path: str | Path) -> Copresheaf:
    path = Path(path)
    data = _read(path)
    if data.get("side") != "co":
        raise SchemaError(f"{path}: copresheaf files carry \"side\": \"co\"")
    with _parsing(str(path)):
        category_path = path.parent / _need(data, "category", str(path))
        module_ref = _need(data, "module", str(path))
        module_path = None if module_ref == "self" else path.parent / module_ref
    c = load_category(category_path)
    module = right_self_module(c.base) if module_path is None else load_module(module_path)
    g = Copresheaf(c, module, _value_table(c, module, data, str(path)))
    validate_copresheaf(g).require(str(path))
    return g
