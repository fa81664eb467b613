"""Command-line front end: load artifacts, run suites, emit reports.

Exit codes: 0 all checks pass, 1 some check fails, 2 input or schema
error. Reports are byte-stable for identical inputs; --deterministic
zeroes the timing field.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

from . import io as artifacts
from .enriched import EnrichedFunctor, validate_category
from .errors import OplabError
from .graphs import (
    LabelSet,
    OperadTag,
    check_operad_axioms,
    pairing,
    validate_morphism,
)
from .presheaf import (
    check_density,
    check_duality_bijection,
    check_pointwise_limits,
    check_pushforward,
    check_representability,
    validate_presheaf,
)
from .quantale import right_self_module, validate_module, validate_quantale
from .report import Check, ValidationReport, failing, passing
from .simplex import check_approximation


@dataclass(frozen=True)
class Report:
    status: str
    checks: tuple[Check, ...]
    timing_ms: int
    result: dict | None = None


def emit_report(report: Report, fmt: str, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    if fmt == "json":
        payload = {
            "status": report.status,
            "checks": [
                {"name": c.name, "outcome": "pass" if c.ok else "fail", "witness": c.witness}
                for c in report.checks
            ],
            "timing_ms": report.timing_ms,
        }
        if report.result is not None:
            payload["result"] = report.result
        stream.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    for c in report.checks:
        line = f"{'PASS' if c.ok else 'FAIL'} {c.name}"
        if c.witness:
            line += f" -- {c.witness}"
        stream.write(line + "\n")
    if report.result is not None:
        stream.write(json.dumps(report.result, sort_keys=True) + "\n")
    stream.write(f"{report.status} ({report.timing_ms} ms)\n")


def _loaded_ok(kind):
    """Loaders validate on the way in, so reaching here means the file passed."""

    def handler(path):
        getattr(artifacts, f"load_{kind}")(path)
        return passing(kind)

    return handler


VALIDATORS = {
    "quantale": lambda p: validate_quantale(artifacts.load_quantale(p)),
    "module": lambda p: validate_module(artifacts.load_module(p)),
    "graph": _loaded_ok("graph"),
    "morphism": lambda p: validate_morphism(artifacts.load_morphism(p)),
    "simplex": _loaded_ok("simplex"),
    "category": lambda p: validate_category(artifacts.load_category(p)),
    "presheaf": lambda p: validate_presheaf(artifacts.load_presheaf(p)),
    "copresheaf": _loaded_ok("copresheaf"),
}


def _cmd_validate(args) -> tuple[ValidationReport, dict | None]:
    return VALIDATORS[args.kind](args.path), None


def _cmd_check_operad(args) -> tuple[ValidationReport, dict | None]:
    tag = {t.value: t for t in OperadTag}[args.tag]
    labels = LabelSet(tuple(args.labels.split(",")))
    return check_operad_axioms(tag, labels, args.max_edges), None


def _cmd_check_approximation(args) -> tuple[ValidationReport, dict | None]:
    labels = LabelSet(tuple(args.labels.split(",")))
    return check_approximation(labels, args.max_dim), None


def _cmd_pairing(args) -> tuple[ValidationReport, dict | None]:
    g0 = artifacts.load_graph(args.left)
    g1 = artifacts.load_graph(args.right)
    out = pairing(g0, g1)
    rep = passing("pairing", f"{len(out.edges)} spliced edges")
    return rep, artifacts.graph_to_dict(out)


def _cmd_yoneda(args) -> tuple[ValidationReport, dict | None]:
    c = artifacts.load_category(args.category)
    module = None if args.module == "self" else artifacts.load_module(args.module)
    return check_representability(c, module), None


def _cmd_density(args) -> tuple[ValidationReport, dict | None]:
    return check_density(artifacts.load_category(args.category)), None


def _cmd_duality(args) -> tuple[ValidationReport, dict | None]:
    c = artifacts.load_category(args.category)
    n = (
        right_self_module(c.base)
        if args.module == "self"
        else artifacts.load_module(args.module)
    )
    return check_duality_bijection(c, n), None


def _cmd_colimit(args) -> tuple[ValidationReport, dict | None]:
    return check_pointwise_limits(artifacts.load_category(args.category)), None


def _cmd_pushforward(args) -> tuple[ValidationReport, dict | None]:
    c = artifacts.load_category(args.source)
    d = artifacts.load_category(args.target)
    return check_pushforward(EnrichedFunctor(c, d)), None


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every call.

    Each verb's handler and the choices of `validate` are bound when the
    parser is built; handlers read VALIDATORS and the suites when called.
    """
    parser = argparse.ArgumentParser(prog="oplab", description=__doc__)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--deterministic", action="store_true", help="zero the timing field for byte-stable output"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="load an artifact and run its validator")
    p.add_argument("kind", choices=sorted(VALIDATORS))
    p.add_argument("path")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("check-operad", help="exhaustive operad axiom suite")
    p.add_argument("--labels", required=True, help="comma-separated label names")
    p.add_argument("--max-edges", type=int, default=3)
    p.add_argument("--tag", choices=[t.value for t in OperadTag], default="assoc")
    p.set_defaults(handler=_cmd_check_operad)

    p = sub.add_parser("check-approximation", help="exhaustive approximation suite")
    p.add_argument("--labels", required=True)
    p.add_argument("--max-dim", type=int, default=3)
    p.set_defaults(handler=_cmd_check_approximation)

    p = sub.add_parser("pairing", help="splice a left-modular and right-modular graph")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(handler=_cmd_pairing)

    p = sub.add_parser("yoneda", help="representability biconditional sweep")
    p.add_argument("--category", required=True)
    p.add_argument("--module", default="self")
    p.set_defaults(handler=_cmd_yoneda)

    p = sub.add_parser("density", help="decompose every presheaf over representables")
    p.add_argument("--category", required=True)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("duality", help="presheaf/copresheaf duality bijection")
    p.add_argument("--category", required=True)
    p.add_argument("--module", default="self")
    p.set_defaults(handler=_cmd_duality)

    p = sub.add_parser("colimit", help="pointwise joins and meets of all families")
    p.add_argument("--category", required=True)
    p.set_defaults(handler=_cmd_colimit)

    p = sub.add_parser("pushforward", help="extension/restriction adjunction suite")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.set_defaults(handler=_cmd_pushforward)
    return parser


def parse_and_dispatch(argv: list[str]) -> tuple[Report, int]:
    return _dispatch(build_parser().parse_args(argv))


def _dispatch(args) -> tuple[Report, int]:
    started = time.monotonic()
    try:
        rep, result = args.handler(args)
        status, code = ("pass", 0) if rep.ok else ("fail", 1)
    except OplabError as exc:
        rep, result = failing("error", f"{type(exc).__name__}: {exc}"), None
        status, code = "error", 2
    elapsed = 0 if args.deterministic else int((time.monotonic() - started) * 1000)
    return Report(status, rep.checks, elapsed, result), code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    report, code = _dispatch(args)
    emit_report(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
