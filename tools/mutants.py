"""Single-point mutation testing of one module against a pytest selection.

    python3 tools/mutants.py src/oplab/quantale.py tests/test_quantale.py tests/test_presheaf.py

Each mutant changes one spot of the module's syntax tree:

* a comparison operator becomes its neighbour (``<`` and ``<=``, ``>`` and
  ``>=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``);
* ``and`` becomes ``or``, and back;
* a ``not`` is dropped;
* an integer constant 0 becomes 1, and back.

Only the changed expression is rewritten, in parentheses; the rest of the
file keeps its text. Expressions inside f-strings are left alone.

The repository is copied once into a temporary directory. Each mutant is
written over the module in the copy, and the selection runs there with
``pytest -x``. A directory in the selection runs as its test files:
``test_<module>.py`` first, ``test_acceptance.py`` last and the rest in name
order, so ``-x`` stops at the module's own tests before the slow acceptance
criteria. A run that takes ten times the clean run (plus 10 s) counts as
killed. A mutant that passes the selection survives and is printed with its
line and change. A survivor listed in ``tools/equivalent_mutants.json`` is
printed as equivalent, with its reason: such a mutant cannot change what the
module computes, so no test can kill it. Entries are keyed by module, the
text of the mutated line in the unmutated source (stripped) and the change,
so they outlive edits elsewhere in the module. The selection runs without
the test that checks the list against the source (``LIST_TEST``), which
fails on exactly the listed mutants. The exit code is 0 when no
unlisted mutant survives, 1 when some do, and 2 when the selection fails on
the unmutated module.

The script is a development tool: it uses only the standard library, and
tier-1 does not collect it.
"""
from __future__ import annotations

import ast
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = Path(__file__).resolve().with_name("equivalent_mutants.json")
LIST_TEST = "tests/test_mutants.py::test_every_listed_equivalent_mutant_is_one_generated_mutant"

_SYMBOLS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.In: "in",
    ast.NotIn: "not in",
    ast.Is: "is",
    ast.IsNot: "is not",
}
_SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
}


class Mutant(NamedTuple):
    line: int
    change: str
    source: str


def _sites(tree: ast.AST) -> list[tuple[ast.expr, str, ast.expr]]:
    """(node, change, replacement) for every single-point mutant, in source order."""
    in_fstrings = {id(n) for f in ast.walk(tree) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
    out = []
    for node in ast.walk(tree):
        if id(node) in in_fstrings:
            continue
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                swapped = _SWAPS[type(op)]
                new = copy.deepcopy(node)
                new.ops[i] = swapped()
                out.append((node, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[swapped]}", new))
        elif isinstance(node, ast.BoolOp):
            change, flipped = ("and -> or", ast.Or) if isinstance(node.op, ast.And) else ("or -> and", ast.And)
            out.append((node, change, ast.BoolOp(flipped(), node.values)))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            out.append((node, "dropped not", node.operand))
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.value in (0, 1):
            out.append((node, f"{node.value} -> {1 - node.value}", ast.Constant(1 - node.value)))
    return sorted(out, key=lambda site: (site[0].lineno, site[0].col_offset))


def mutants(source: str) -> Iterator[Mutant]:
    """Every single-point mutant of a module's source, in source order."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    for node, change, new in _sites(ast.parse(source)):
        begin = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        text = data[:begin] + f"({ast.unparse(new)})".encode() + data[end:]
        yield Mutant(node.lineno, change, text.decode())


def equivalent_mutants() -> dict[tuple[str, str, str], str]:
    """The listed equivalent mutants: (module, line text, change) -> reason."""
    return {(e["module"], e["line"], e["change"]): e["reason"] for e in json.loads(EQUIVALENT.read_text())}


def mutant_key(module: str, lines: list[str], mutant: Mutant) -> tuple[str, str, str]:
    """A mutant's key in the equivalent list; `lines` are the unmutated
    source's and `module` its path relative to the repository."""
    return module, lines[mutant.line - 1].strip(), mutant.change


def ordered(module: Path, selection: list[str]) -> list[str]:
    """The selection with each directory (relative to the repository)
    replaced by its test files: the module's own first, test_acceptance.py
    last."""
    own = f"test_{module.stem}.py"
    out = []
    for arg in selection:
        if not (ROOT / arg).is_dir():
            out.append(arg)
            continue
        files = sorted(
            (ROOT / arg).rglob("test_*.py"), key=lambda f: (f.name != own, f.name == "test_acceptance.py", f)
        )
        out += [f.relative_to(ROOT).as_posix() for f in files]
    return out


def survivors(module: Path, selection: list[str]) -> list[Mutant]:
    """The unlisted mutants of `module` (a file under the repository) that
    pass the pytest `selection`, printed as they are found; listed ones are
    printed as equivalent."""
    relative = module.resolve().relative_to(ROOT)
    source = module.read_text()
    lines = source.splitlines()
    listed = equivalent_mutants()
    found = []
    equivalent = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp) / "repo"
        ignored = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_out")
        shutil.copytree(ROOT, work, ignore=ignored)
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        command += ["--deselect", LIST_TEST, *ordered(module, selection)]

        def passes(timeout: float | None) -> bool:
            try:
                run = subprocess.run(
                    command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout
                )
            except subprocess.TimeoutExpired:
                return False
            return run.returncode == 0

        start = time.monotonic()
        if not passes(None):
            print(f"the selection fails on the unmutated {relative}", file=sys.stderr)
            raise SystemExit(2)
        timeout = 10 * (time.monotonic() - start) + 10
        total = 0
        for mutant in mutants(source):
            total += 1
            (work / relative).write_text(mutant.source)
            if passes(timeout):
                reason = listed.get(mutant_key(relative.as_posix(), lines, mutant))
                if reason is None:
                    found.append(mutant)
                    print(f"survived: {relative}:{mutant.line}: {mutant.change}", flush=True)
                else:
                    equivalent += 1
                    print(f"equivalent: {relative}:{mutant.line}: {mutant.change} ({reason})", flush=True)
        killed = total - len(found) - equivalent
        print(f"{relative}: {total} mutants, {killed} killed, {len(found)} survived, {equivalent} equivalent")
    return found


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0].startswith("-"):
        print("usage: python3 tools/mutants.py MODULE PYTEST_ARGS...", file=sys.stderr)
        return 2
    return 1 if survivors(Path(argv[0]), argv[1:]) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
