"""The benchmark's four workloads, built from a seed through oplab's public API.

A workload is a list of cases. Each case runs one decision and returns an
observation (plain lists, dicts and strings) that must equal the case's
expected value: the verdicts and anchor counts oplab prints at the bounds
below. The seed renames every label and object and shuffles the case order;
observations are stated in canonical names, so they do not depend on it.

Bounds are smaller than the acceptance criteria where one full criterion
would not fit a timed run (see the docstring of ``run.py``).

``expected_cli.json`` holds the exit code and JSON report of every CLI case of
the ``sweep`` workload, as oplab gave them when the benchmark was defined. To
record it again, map each CLI case's id to ``case.run()``; since observations
are canonical, any seed records the same file.
"""
from __future__ import annotations

import itertools
import json
import random
import shutil
import string
from io import StringIO
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("operad", "approx", "duality", "sweep")

# Every label and object name the workloads use, in canonical form.
CANONICAL_NAMES = ("a", "b", "c", "d", "x", "y", "o0", "o1", "o2", "o3")

EXPECTED_CLI = Path(__file__).resolve().parent / "expected_cli.json"


@dataclass(frozen=True)
class Case:
    id: str
    run: Callable[[], object]
    expected: object


def seeded_names(seed: int) -> dict[str, str]:
    """Map each canonical name to a distinct lowercase name drawn from the seed."""
    rng = random.Random(seed)
    chosen: list[str] = []
    while len(chosen) < len(CANONICAL_NAMES):
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 4)))
        if name not in chosen:
            chosen.append(name)
    return dict(zip(CANONICAL_NAMES, chosen))


def build(workload: str, api, seed: int, workdir: Path) -> list[Case]:
    """The workload's cases, over seeded names and in seeded order."""
    names = seeded_names(seed)
    make_cases = {"operad": _operad, "approx": _approx, "duality": _duality, "sweep": _sweep}[workload]
    cases = make_cases(api, names, workdir)
    random.Random(seed).shuffle(cases)
    return cases


def _checks(report) -> list:
    return [[c.name, c.ok, c.witness] for c in report.checks]


# ---------------------------------------------------------------------------
# operad: check_operad_axioms at |S|=2 (assoc, <=3 edges; lm/rm, <=2 edges)
# and at |S|=1 (lm/rm, <=3 edges).

OPERAD_CASES = {
    # (tag, labels, max_edges): (objects, edge alphabet, source/target pairs)
    ("assoc", ("a", "b"), 3): (85, 4, 7225),
    ("lm", ("a", "b"), 2): (43, 6, 1849),
    ("rm", ("a", "b"), 2): (43, 6, 1849),
    ("lm", ("a",), 3): (15, 2, 225),
    ("rm", ("a",), 3): (15, 2, 225),
}


def _operad(api, names, workdir) -> list[Case]:
    g = api.graphs
    cases = []
    for (tag_name, labels, max_edges), (objects, alphabet, pairs) in OPERAD_CASES.items():
        tag = g.OperadTag(tag_name)
        labelset = g.labelset(*(names[x] for x in labels))

        def run(tag=tag, labelset=labelset, max_edges=max_edges):
            return _checks(api.graphs.check_operad_axioms(tag, labelset, max_edges))

        expected = [
            ["inert-lifts", True, f"{objects} objects"],
            ["segal-objects", True, f"fibers match {alphabet}^n for n<={max_edges}"],
            ["segal-morphisms", True, f"{pairs} source/target pairs"],
        ]
        cases.append(Case(f"operad:{tag_name}:{len(labels)}:{max_edges}", run, expected))
    return cases


# ---------------------------------------------------------------------------
# approx: check_approximation for {a} at max_dim 3 and {a,b} at max_dim 2,
# plus the exact lift round-trips over chains of length <= 4.

APPROX_CASES = {
    # (labels, max_dim): (chains, active morphisms lifted, single-edge graphs, chain morphisms)
    (("a",), 3): (4, 120, 1, 121),
    (("a", "b"), 2): (14, 82, 4, 194),
}

# labels: exact lift round-trips over chains of length <= 4 (387 in all)
ROUND_TRIPS = {("a",): 35, ("a", "b"): 352}


def _approx(api, names, workdir) -> list[Case]:
    cases = []
    for (labels, max_dim), (chains, lifted, graphs, morphisms) in APPROX_CASES.items():
        labelset = api.graphs.labelset(*(names[x] for x in labels))

        def run(labelset=labelset, max_dim=max_dim):
            return _checks(api.simplex.check_approximation(labelset, max_dim))

        expected = [
            ["inert-chain-lifts", True, f"{chains} chains"],
            ["cartesian-lifts", True, f"{lifted} active morphisms lifted"],
            ["strongness", True, f"{len(labels)} labels; {graphs} single-edge graphs"],
            ["lcut-marking", True, f"{morphisms} chain morphisms"],
        ]
        cases.append(Case(f"approx:suite:{len(labels)}:{max_dim}", run, expected))
    for labels, count in ROUND_TRIPS.items():
        labelset = api.graphs.labelset(*(names[x] for x in labels))
        cases.append(
            Case(
                f"approx:round-trips:{len(labels)}",
                lambda labelset=labelset: _round_trips(api, labelset),
                {"round_trips": count, "mismatches": 0},
            )
        )
    return cases


def _round_trips(api, labelset) -> dict:
    g, sx = api.graphs, api.simplex
    lifted = mismatches = 0
    simplices = sx.enumerate_simplices(labelset, 4)
    for a in simplices:
        for b in simplices:
            for m in sx.enumerate_delta_morphisms(a, b):
                cm = sx.cut_morphism(m)
                if g.classify_graph_morphism(cm) in (g.MapClass.ACTIVE, g.MapClass.BOTH):
                    if sx.cartesian_lift(b, cm) != (a, m):
                        mismatches += 1
                    lifted += 1
    return {"round_trips": lifted, "mismatches": mismatches}


# ---------------------------------------------------------------------------
# duality: check_duality_bijection on the acceptance-criterion-9 categories
# and on discrete Boolean categories with 3 and 4 objects.


def _duality_expected(count: int) -> list:
    return [
        ["counts-equal", True, f"{count} copresheaves vs {count} module maps"],
        ["copresheaf-roundtrip", True, f"{count} round trips"],
        ["modulemap-roundtrip", True, f"{count} round trips"],
    ]


def _boolean_categories(api, names):
    """All Boolean-enriched categories on two objects, in table order."""
    objects = api.graphs.labelset(names["x"], names["y"])
    return api.enriched.enumerate_categories(api.quantale.boolean_quantale(), objects)


def _duality(api, names, workdir) -> list[Case]:
    q, en = api.quantale, api.enriched
    boolean = q.boolean_quantale()
    luk2 = q.lukasiewicz(2)
    instances = [(f"bool2-{i}", c) for i, c in enumerate(_boolean_categories(api, names))]
    instances.append(
        ("luk2", en.EnrichedCategory(luk2, api.graphs.labelset(names["x"], names["y"]), ((2, 1), (0, 2))))
    )
    for k in (3, 4):
        objects = api.graphs.labelset(*(names[f"o{i}"] for i in range(k)))
        discrete = tuple(tuple(boolean.unit if i == j else 0 for j in range(k)) for i in range(k))
        instances.append((f"discrete{k}", en.EnrichedCategory(boolean, objects, discrete)))
    counts = {
        "bool2-0": 4, "bool2-1": 3, "bool2-2": 3, "bool2-3": 2, "luk2": 8, "discrete3": 8, "discrete4": 16,
    }
    cases = []
    for key, c in instances:

        def run(c=c):
            return _checks(api.presheaf.check_duality_bijection(c, api.quantale.right_self_module(c.base)))

        cases.append(Case(f"duality:{key}", run, _duality_expected(counts[key])))
    return cases


# ---------------------------------------------------------------------------
# sweep: the acceptance-criterion-3 pairing sweep, and every CLI verb run
# in-process on the fixtures and on the criterion-4 categories.

SPLICE_IDENTITIES = {(1, 1): 48, (1, 2): 360, (2, 1): 360, (2, 2): 2700}  # 3468 in all
INERT_PAIRS = {(1, 1): 625, (1, 2): 4825, (2, 1): 4825, (2, 2): 37249}  # 47524 in all

LEFT_NAMES = {1: ("a",), 2: ("a", "b")}
RIGHT_NAMES = {1: ("c",), 2: ("c", "d")}


def _splice_identities(api, s_names, t_names) -> dict:
    g = api.graphs
    sp = g.labelset(*s_names, pointed=True)
    tp = g.labelset(*t_names, pointed=True)
    out_labels = g.pairing_labels(sp, tp)
    star = (g.STAR,)
    checked = broken = 0
    for m in range(4):
        for xs in itertools.product(s_names, repeat=m + 1):
            for n in range(4):
                for ys in itertools.product(t_names, repeat=n + 1):
                    plain0 = g.path_graph(sp, xs)
                    star0 = g.path_graph(sp, xs + star)
                    plain1 = g.path_graph(tp, ys)
                    star1 = g.path_graph(tp, star + ys)
                    right = [g.right_label(y) for y in ys]
                    left = [g.left_label(x) for x in xs]
                    broken += g.pairing(plain0, plain1) != g.empty_graph(out_labels)
                    broken += not g.iso_graphs(g.pairing(star0, plain1), g.path_graph(out_labels, right))
                    spliced = g.path_graph(out_labels, left + right)
                    broken += not g.iso_graphs(g.pairing(star0, star1), spliced)
                    checked += 3
    return {"identities": checked, "broken": broken}


def _inert_pairs(api, s_names, t_names) -> dict:
    g = api.graphs
    sp = g.labelset(*s_names, pointed=True)
    tp = g.labelset(*t_names, pointed=True)

    def inerts(tag, labels):
        graphs = [
            g.Graph(labels, edges)
            for k in range(3)
            for edges in itertools.product(g.allowed_edges(tag, labels), repeat=k)
        ]
        return [m for x in graphs for m in g.enumerate_inert_from(x)]

    lefts = inerts(g.OperadTag.LM, sp)
    rights = inerts(g.OperadTag.RM, tp)
    inert_classes = (g.MapClass.INERT, g.MapClass.BOTH)
    pairs = broken = 0
    for m0 in lefts:
        for m1 in rights:
            out = g.pairing_inert(m0, m1)
            broken += g.classify_graph_morphism(out) not in inert_classes or not g.validate_morphism(out).ok
            pairs += 1
    return {"inert_pairs": pairs, "broken": broken}


def _rename_artifact(data: dict, names: dict[str, str]) -> dict:
    """Rename labels and objects inside a fixture; element names stay."""

    def name(v: str) -> str:
        return names.get(v, v)  # the basepoint "*" keeps its name

    out = {}
    for key, value in data.items():
        if key in ("labels", "objects", "chain"):
            value = [name(v) for v in value]
        elif key == "edges":
            value = [[name(s), name(t)] for s, t in value]
        elif key == "hom":
            value = {",".join(name(p) for p in k.split(",")): v for k, v in value.items()}
        elif key == "values":
            value = {name(k): v for k, v in value.items()}
        elif key in ("source", "target"):
            value = _rename_artifact(value, names)
        out[key] = value
    return out


def _write_category(c, quantale_file: str, path: Path) -> None:
    objects = c.objects.labels
    hom = {
        f"{x},{y}": c.base.elements[c.hom[i][j]]
        for i, x in enumerate(objects)
        for j, y in enumerate(objects)
    }
    path.write_text(json.dumps({"quantale": quantale_file, "objects": list(objects), "hom": hom}))


def _canonical_graph(result: dict, inverse: dict[str, str]) -> dict:
    """Map the tagged labels of a pairing result ("<name>.0", "<name>.1") back."""

    def label(v: str) -> str:
        base, dot, side = v.rpartition(".")
        return inverse[base] + dot + side if dot and base in inverse else inverse.get(v, v)

    return {
        "labels": [label(v) for v in result["labels"]],
        "pointed": result["pointed"],
        "edges": [[label(s), label(t)] for s, t in result["edges"]],
    }


def _cli_case(api, case_id: str, argv: list[str], expected: dict, inverse: dict[str, str]) -> Case:
    def run():
        report, code = api.cli.parse_and_dispatch(["--deterministic", *argv])
        buf = StringIO()
        api.cli.emit_report(report, "json", buf)
        payload = json.loads(buf.getvalue())
        if "result" in payload:
            payload["result"] = _canonical_graph(payload["result"], inverse)
        return {"code": code, "report": payload}

    return Case(case_id, run, expected)


def fixture_dir() -> Path:
    return Path(__file__).resolve().parents[1] / "fixtures"


def _sweep(api, names, workdir) -> list[Case]:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for src in sorted(fixture_dir().glob("*.json")):
        data = json.loads(src.read_text())
        (workdir / src.name).write_text(json.dumps(_rename_artifact(data, names)))
    luk3 = api.quantale.lukasiewicz(3)
    xy = api.graphs.labelset(names["x"], names["y"])
    categories = {f"bool2-{i}": c for i, c in enumerate(_boolean_categories(api, names))}
    # the trivial category first, then the three of acceptance criterion 4
    for i, table in enumerate((((3, 3), (3, 3)), ((3, 1), (2, 3)), ((3, 0), (3, 3)), ((3, 2), (2, 3)))):
        categories[f"luk3-{i}"] = api.enriched.EnrichedCategory(luk3, xy, table)
    for key, c in categories.items():
        quantale_file = "boolean.json" if key.startswith("bool") else "lukasiewicz3.json"
        _write_category(c, quantale_file, workdir / f"{key}.json")

    expected = json.loads(EXPECTED_CLI.read_text())
    inverse = {v: k for k, v in names.items()}

    def path(name: str) -> str:
        return str(workdir / name)

    argvs: dict[str, list[str]] = {}
    for kind, fixture in (
        ("quantale", "boolean"),
        ("quantale", "lukasiewicz3"),
        ("module", "chain3_left_module"),
        ("graph", "graph"),
        ("graph", "lm_graph"),
        ("graph", "rm_graph"),
        ("morphism", "morphism"),
        ("simplex", "simplex"),
        ("category", "preorder"),
        ("category", "codiscrete"),
        ("presheaf", "presheaf"),
        ("copresheaf", "copresheaf"),
    ):
        argvs[f"cli:validate:{kind}:{fixture}"] = ["validate", kind, path(f"{fixture}.json")]
    argvs["cli:pairing:lm_graph:rm_graph"] = [
        "pairing", "--left", path("lm_graph.json"), "--right", path("rm_graph.json"),
    ]
    for key in [*categories, "preorder", "codiscrete"]:
        if key in categories:
            argvs[f"cli:validate:category:{key}"] = ["validate", "category", path(f"{key}.json")]
        # duality on the non-trivial Lukasiewicz(3) categories is refused (SizeBoundExceeded)
        verbs = ("yoneda", "density", "colimit") if key in ("luk3-1", "luk3-2", "luk3-3") else (
            "yoneda", "density", "colimit", "duality",
        )
        for verb in verbs:
            argvs[f"cli:{verb}:{key}"] = [verb, "--category", path(f"{key}.json")]
    argvs["cli:yoneda:preorder:chain3_left_module"] = [
        "yoneda", "--category", path("preorder.json"), "--module", path("chain3_left_module.json"),
    ]
    boolean = [k for k in categories if k.startswith("bool")]
    for s, t in itertools.product(boolean, boolean):
        if api.enriched.is_enriched_functor(api.enriched.EnrichedFunctor(categories[s], categories[t])).ok:
            argvs[f"cli:pushforward:{s}:{t}"] = [
                "pushforward", "--source", path(f"{s}.json"), "--target", path(f"{t}.json"),
            ]

    cases = []
    for (left, right), count in SPLICE_IDENTITIES.items():
        s_names = tuple(names[x] for x in LEFT_NAMES[left])
        t_names = tuple(names[x] for x in RIGHT_NAMES[right])
        cases.append(
            Case(
                f"pairing:identities:{left}:{right}",
                lambda s=s_names, t=t_names: _splice_identities(api, s, t),
                {"identities": count, "broken": 0},
            )
        )
        cases.append(
            Case(
                f"pairing:inert:{left}:{right}",
                lambda s=s_names, t=t_names: _inert_pairs(api, s, t),
                {"inert_pairs": INERT_PAIRS[left, right], "broken": 0},
            )
        )
    for case_id, argv in argvs.items():
        # A case with no recorded outcome cannot pass: None never equals an observation.
        cases.append(_cli_case(api, case_id, argv, expected.get(case_id), inverse))
    for case_id in sorted(expected.keys() - argvs.keys()):
        # A recorded case the inputs no longer produce (say, a lost functor pair) fails.
        cases.append(Case(case_id, lambda: None, expected[case_id]))
    return cases
