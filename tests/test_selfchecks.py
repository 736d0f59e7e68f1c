"""Internal self-checks: they survive `python -O` and end a build in exit 3."""

import ast
import json
from pathlib import Path

import tatesplice
from tatesplice import cli, groebner


def test_package_has_no_assert_self_checks():
    """A bare `assert` vanishes under `python -O`, and an AssertionError
    escapes the CLI as a traceback; self-checks raise SelfCheckError."""
    offenders = []
    for path in sorted(Path(tatesplice.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    offenders.append(f"{path.name}:{node.lineno}: raise AssertionError")
    assert offenders == []


def test_cli_build_self_check_failure_exits_3(tmp_path, capsys, inst_t, monkeypatch):
    # a Hilbert count no quotient basis can meet
    monkeypatch.setattr(groebner, "hilbert_dim_from_leads", lambda leads, nvars, d: -1)
    ipath = tmp_path / "t.json"
    ipath.write_text(json.dumps(inst_t.instance.to_doc()))
    assert cli.main(["build", str(ipath)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("certificate failure: quotient basis in degree ")
    assert err.count("\n") == 1
