import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oplab"


def _raises_assertion_error(node):
    return (
        isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    )


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no verdict may depend on one;
    # and a failed internal check raises a typed OplabError, which the CLI
    # maps to exit 2 and a suite can report, never a bare AssertionError
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def _is_single_check_literal(node):
    # ValidationReport((Check(...),)): passing and failing build these
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "ValidationReport"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Tuple)
        and len(node.args[0].elts) == 1
        and isinstance(node.args[0].elts[0], ast.Call)
        and isinstance(node.args[0].elts[0].func, ast.Name)
        and node.args[0].elts[0].func.id == "Check"
    )


def test_single_check_reports_built_by_passing_or_failing():
    files = sorted(p for p in SRC.glob("*.py") if p.name != "report.py")
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _is_single_check_literal(node)
    ]
    assert found == []


def test_benchmark_measured_names_exist():
    # the lookups perfbench/tracer.py makes before a traced run, without wrapping
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, entries in tracer.LAYERS.items():
        module = importlib.import_module(f"oplab.{module_name}")
        for name, stats in entries:
            for target in tracer.IO_LOADERS if f"{module_name}.{name}" == "io.load" else (name,):
                obj = getattr(module, target, None)
                if obj is None:
                    missing.append(f"oplab.{module_name}.{target}")
                elif "constructed" in stats and "__post_init__" not in obj.__dict__:
                    missing.append(f"oplab.{module_name}.{target}.__post_init__")
    assert missing == []


def test_unchecked_constructor_stays_in_graphs_and_simplex():
    # loaders, the CLI and the presheaf layers build through the public,
    # validating constructors; only the graph and chain internals skip them
    users = sorted(path.name for path in SRC.glob("*.py") if "_unchecked" in path.read_text())
    assert users == ["graphs.py", "simplex.py"]
    assert all((SRC / name).is_file() for name in ("io.py", "cli.py", "presheaf.py", "enriched.py"))
