"""The mutant generator of tools/mutants.py, without running any tests."""
import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

SNIPPET = '''def f(xs, n):
    if not xs or n < 0:
        return 0
    k = len(xs) - 1
    return n in xs and xs[k] >= 1 and f"{n == 0}"
'''


def test_generator_yields_each_single_point_mutant_in_source_order():
    lines = SNIPPET.splitlines()
    found = []
    for m in mutants.mutants(SNIPPET):
        changed = m.source.splitlines()
        # one line changes; every other line keeps its text
        assert changed[: m.line - 1] + changed[m.line :] == lines[: m.line - 1] + lines[m.line :]
        found.append((m.line, m.change, changed[m.line - 1]))
    # the comparison inside the f-string is left alone
    assert found == [
        (2, "or -> and", "    if (not xs and n < 0):"),
        (2, "dropped not", "    if (xs) or n < 0:"),
        (2, "< -> <=", "    if not xs or (n <= 0):"),
        (2, "0 -> 1", "    if not xs or n < (1):"),
        (3, "0 -> 1", "        return (1)"),
        (4, "1 -> 0", "    k = len(xs) - (0)"),
        (5, "and -> or", "    return (n in xs or xs[k] >= 1 or f'{n == 0}')"),
        (5, "in -> not in", '    return (n not in xs) and xs[k] >= 1 and f"{n == 0}"'),
        (5, ">= -> >", '    return n in xs and (xs[k] > 1) and f"{n == 0}"'),
        (5, "1 -> 0", '    return n in xs and xs[k] >= (0) and f"{n == 0}"'),
    ]


def test_every_mutant_of_a_module_parses():
    source = (Path(__file__).resolve().parents[1] / "src" / "oplab" / "quantale.py").read_text()
    found = list(mutants.mutants(source))
    assert found
    for m in found:
        compile(m.source, "quantale.py", "exec")


def test_a_directory_runs_the_module_tests_first_and_acceptance_last():
    root = Path(__file__).resolve().parents[1]
    files = mutants.ordered(Path("src/oplab/simplex.py"), ["-k", "not slow", "tests", "tests/test_cli.py"])
    assert files[:3] == ["-k", "not slow", "tests/test_simplex.py"]
    assert files[-2:] == ["tests/test_acceptance.py", "tests/test_cli.py"]
    middle = files[3:-2]
    assert middle == sorted(middle)
    assert set(files[2:-1]) == {f"tests/{f.name}" for f in (root / "tests").glob("test_*.py")}


def test_every_listed_equivalent_mutant_is_one_generated_mutant():
    # an entry whose line or change no longer matches would hide nothing
    # and silently stop listing its mutant; the census deselects this test,
    # which fails on each listed mutant
    this = test_every_listed_equivalent_mutant_is_one_generated_mutant
    assert mutants.LIST_TEST == f"tests/test_mutants.py::{this.__name__}"
    root = Path(__file__).resolve().parents[1]
    listed = mutants.equivalent_mutants()
    assert listed and len(listed) == len(json.loads(mutants.EQUIVALENT.read_text()))
    for (module, line, change), reason in listed.items():
        source = (root / module).read_text()
        lines = source.splitlines()
        hits = [m for m in mutants.mutants(source) if mutants.mutant_key(module, lines, m) == (module, line, change)]
        assert len(hits) == 1 and reason, (module, line, change)
