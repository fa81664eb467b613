import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oplab import cli
from oplab.report import Check, ValidationReport

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def run(argv):
    report, code = cli.parse_and_dispatch(argv)
    return report, code


def render(report, fmt="json"):
    buf = io.StringIO()
    cli.emit_report(report, fmt, buf)
    return buf.getvalue()


def test_validate_pass_exit_zero():
    for kind, name in [
        ("quantale", "boolean.json"),
        ("quantale", "lukasiewicz3.json"),
        ("module", "chain3_left_module.json"),
        ("graph", "graph.json"),
        ("morphism", "morphism.json"),
        ("simplex", "simplex.json"),
        ("category", "preorder.json"),
        ("presheaf", "presheaf.json"),
        ("copresheaf", "copresheaf.json"),
    ]:
        report, code = run(["--deterministic", "validate", kind, str(FIXTURES / name)])
        assert code == 0, (kind, report)
        assert report.status == "pass"
        assert report.timing_ms == 0


def test_schema_error_exits_two(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    report, code = run(["validate", "quantale", str(bad)])
    assert code == 2
    assert report.status == "error"
    assert report.checks[0].witness


def test_invalid_artifact_exits_two(tmp_path):
    # parses but the tensor is not associative
    bad = tmp_path / "bad_quantale.json"
    bad.write_text(
        json.dumps(
            {
                "elements": ["0", "1", "2"],
                "leq": [[True, True, True], [False, True, True], [False, False, True]],
                "tensor": [["0", "0", "0"], ["0", "0", "1"], ["0", "2", "2"]],
                "unit": "2",
            }
        )
    )
    report, code = run(["validate", "quantale", str(bad)])
    assert code == 2
    assert report.status == "error"
    assert "associativity" in report.checks[0].witness


@pytest.mark.parametrize(
    "kind, fixture, field, value",
    [
        ("category", "preorder.json", "hom", [["1", "1"], ["0", "1"]]),
        ("quantale", "boolean.json", "leq", 5),
        ("quantale", "boolean.json", "unit", ["1"]),
        ("morphism", "morphism.json", "edge_map", ["x"]),
        ("morphism", "morphism.json", "fibers", [[1]]),
    ],
    ids=["hom-list", "leq-int", "unit-list", "edge-map-str", "fibers-list"],
)
def test_malformed_field_exits_two(tmp_path, kind, fixture, field, value):
    data = json.loads((FIXTURES / fixture).read_text())
    data[field] = value
    (tmp_path / "boolean.json").write_text((FIXTURES / "boolean.json").read_text())
    bad = tmp_path / fixture
    bad.write_text(json.dumps(data))
    report, code = run(["validate", kind, str(bad)])
    assert (report.status, code) == ("error", 2)
    assert report.checks[0].witness.startswith("SchemaError: "), report.checks[0].witness


def test_missing_reference_exits_two(tmp_path):
    orphan = tmp_path / "presheaf.json"
    orphan.write_text(
        json.dumps({"category": "missing.json", "module": "self", "values": {"x": "1"}})
    )
    report, code = run(["validate", "presheaf", str(orphan)])
    assert code == 2


def test_failing_check_exits_one(monkeypatch):
    monkeypatch.setitem(
        cli.VALIDATORS,
        "quantale",
        lambda p: ValidationReport((Check("stub", False, "witness"),)),
    )
    report, code = run(["validate", "quantale", str(FIXTURES / "boolean.json")])
    assert code == 1
    assert report.status == "fail"
    assert report.checks[0].witness == "witness"


def test_unknown_verb_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_parser_tree_built_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run(["validate", "quantale", str(FIXTURES / "boolean.json")])[1] == 0
    tree = len(built)  # the root parser and one sub-parser per verb
    assert run(["density", "--category", str(FIXTURES / "preorder.json")])[1] == 0
    assert tree > 1 and len(built) == tree


def test_deterministic_output_is_byte_stable(capsys):
    argv = [
        "--format",
        "json",
        "--deterministic",
        "yoneda",
        "--category",
        str(FIXTURES / "preorder.json"),
    ]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["status"] == "pass"
    assert payload["timing_ms"] == 0
    assert list(payload) == sorted(payload)


def test_pairing_emits_graph_json():
    report, code = run(
        [
            "--deterministic",
            "pairing",
            "--left",
            str(FIXTURES / "lm_graph.json"),
            "--right",
            str(FIXTURES / "rm_graph.json"),
        ]
    )
    assert code == 0
    assert report.result["edges"] == [["a.0", "b.0"], ["b.0", "c.1"], ["c.1", "c.1"]]
    text = render(report, "text")
    assert "PASS pairing" in text


def test_suite_verbs_pass():
    for argv in [
        ["check-operad", "--labels", "a,b", "--max-edges", "2", "--tag", "assoc"],
        ["check-approximation", "--labels", "a", "--max-dim", "2"],
        ["yoneda", "--category", str(FIXTURES / "preorder.json")],
        ["density", "--category", str(FIXTURES / "preorder.json")],
        ["duality", "--category", str(FIXTURES / "preorder.json")],
        ["colimit", "--category", str(FIXTURES / "preorder.json")],
        [
            "pushforward",
            "--source",
            str(FIXTURES / "preorder.json"),
            "--target",
            str(FIXTURES / "codiscrete.json"),
        ],
    ]:
        report, code = run(["--deterministic"] + argv)
        assert code == 0, (argv, report)
        assert report.status == "pass"


def test_yoneda_with_file_module():
    report, code = run(
        [
            "--deterministic",
            "yoneda",
            "--category",
            str(FIXTURES / "preorder.json"),
            "--module",
            str(FIXTURES / "chain3_left_module.json"),
        ]
    )
    assert code == 0, report


def test_text_report_shows_fail_witness():
    report = cli.Report("fail", (Check("thing", False, "broken here"),), 0)
    text = render(report, "text")
    assert "FAIL thing -- broken here" in text


def test_negative_bounds_exit_two():
    for argv in [
        ["check-approximation", "--labels", "a", "--max-dim", "-2"],
        ["check-operad", "--labels", "a", "--max-edges", "-1"],
    ]:
        report, code = run(["--deterministic"] + argv)
        assert code == 2, (argv, report)
        assert report.status == "error"
        assert report.checks[0].witness.startswith("InvalidBound: ")


# Each verb's seeded defect: free presheaves collapse to bottom (yoneda), or
# joins keep only their first argument (density).
_SEEDED_UNDER_OPTIMIZE = """
import sys
from oplab import cli, presheaf
if not sys.flags.optimize:
    sys.exit(3)
join = presheaf.join_presheaves
if sys.argv[1] == "yoneda":
    presheaf.free_presheaf = lambda c, x, m_elt, module=None: join([], c, module)
else:
    presheaf.join_presheaves = lambda fs, c=None, module=None: join(list(fs)[:1], c, module)
sys.exit(cli.main([sys.argv[1], "--category", sys.argv[2]]))
"""


def test_seeded_defects_fail_under_python_optimize():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for verb, line in [
        ("yoneda", "FAIL representability -- presheaf (0, 0) at (x, 1): True vs False"),
        ("density", "FAIL density -- presheaf (1, 1) recovered as (1, 0)"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-O", "-c", _SEEDED_UNDER_OPTIMIZE, verb, str(FIXTURES / "preorder.json")],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 1, (verb, proc.stdout, proc.stderr)
        assert line in proc.stdout.splitlines(), proc.stdout
