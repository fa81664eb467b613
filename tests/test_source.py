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


def _unbounded_caches(source):
    """Line numbers of functools.cache and of lru_cache without an integer maxsize."""
    tree = ast.parse(source)
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            size = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and type(size.value) is int:
                bounded.add(id(node.func))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            name = "cache" if any(alias.name == "cache" for alias in node.names) else None
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            name = node.attr
        else:  # a bare cache is caught at its import; a local may be named cache
            name = node.id if isinstance(node, ast.Name) and node.id == "lru_cache" else None
        if name == "cache" or name == "lru_cache" and id(node) not in bounded:
            found.append(node.lineno)
    return sorted(found)


def test_unbounded_cache_check_sees_each_form():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache\ndef a(): pass\n@lru_cache(maxsize=None)\ndef b(): pass\n"
        "@functools.cache\ndef c(): pass\n@lru_cache(maxsize=8)\ndef d(): pass\n"
        "@functools.lru_cache(4)\ndef e(): pass\n"
    )
    assert _unbounded_caches(source) == [2, 3, 5, 7]


def test_memo_state_is_bounded_or_lives_on_its_objects():
    # a module-level memo either has an integer maxsize or is not there: memo
    # state that grows with a sweep lives on the objects it serves
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{line}" for path in files for line in _unbounded_caches(path.read_text())]
    assert found == []


def _cached_property_uses(source):
    """Line numbers that import or use functools.cached_property."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            hit = any(alias.name == "cached_property" for alias in node.names)
        elif isinstance(node, ast.Attribute):
            hit = node.attr == "cached_property"
        else:
            hit = isinstance(node, ast.Name) and node.id == "cached_property"
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_cached_property_check_sees_each_form():
    source = (
        "import functools\nfrom functools import cached_property, lru_cache\n"
        "class A:\n    @cached_property\n    def a(self): pass\n"
        "    @functools.cached_property\n    def b(self): pass\n"
        "    @read_once\n    def c(self): pass\n"
    )
    assert _cached_property_uses(source) == [2, 4, 6]


def test_read_once_is_the_only_attribute_memo():
    # one memo mechanism for computed attributes: report.read_once, which
    # takes no lock, where functools.cached_property takes one per first read
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{line}" for path in files for line in _cached_property_uses(path.read_text())]
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


def _raised_calls(source):
    """The names X that the source raises as `raise X(...)`."""
    return {
        node.exc.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
    }


def test_raised_calls_check_sees_each_form():
    source = "raise A('x')\nraise B\nraise m.C()\ntry:\n    pass\nexcept D:\n    raise E() from None\n"
    assert _raised_calls(source) == {"A", "E"}


def test_every_typed_error_has_a_raiser():
    # a typed error is deleted with its last raiser, not left behind
    tree = ast.parse((SRC / "errors.py").read_text())
    errors = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"OplabError"}
    raised = set().union(*(_raised_calls(path.read_text()) for path in SRC.glob("*.py")))
    assert errors and sorted(errors - raised) == []


def _returners(source, names):
    """Per name, the functions with a `return f("<name>", ...)`, each named
    by its innermost enclosing def."""
    found = {name: set() for name in names}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Return) and isinstance(child.value, ast.Call) and child.value.args:
                first = child.value.args[0]
                if isinstance(first, ast.Constant) and first.value in found:
                    found[first.value].add(owner)
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_returners_check_sees_each_form():
    source = (
        'def a():\n    return failing("x", "w")\n'
        'def b():\n    def inner():\n        return Check("x", False)\n    return passing("y")\n'
        'def c():\n    name = "x"\n    return failing(name)\n'
        'def d():\n    return "x"\n'
    )
    assert _returners(source, ("x", "y")) == {"x": {"a", "inner"}, "y": {"b"}}


def test_morphism_validity_is_stated_once():
    # the fiber-partition and path conditions of a graph morphism come from
    # one function, which validate_morphism and the enumeration walks share
    names = ("fiber-partition", "condition-one", "condition-two")
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {name: set() for name in names}
    for path in files:
        for name, funcs in _returners(path.read_text(), names).items():
            found[name] |= {f"{path.name}:{func}" for func in funcs}
    assert found == {name: {"graphs.py:_validate_indices"} for name in names}


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
