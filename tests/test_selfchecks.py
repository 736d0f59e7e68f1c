"""Internal self-checks: they survive `python -O` and end a build in exit 3."""

import ast
import json
from pathlib import Path

import pytest

import tatesplice
from tatesplice import cli, groebner, harness
from tatesplice.freecomplex import ChainComplex, PolyMatrix, d_squared_witness


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


def _zero_d1(C):
    diffs = {**C.diffs, 1: PolyMatrix.zero(C.term(1), C.term(0))}
    return ChainComplex(C.ring, C.terms, diffs)


def _double_first_row_of_d2(C):
    d2 = C.diff(2)
    columns = [{r: e.scale(2) if r == 0 else e for r, e in col.items()} for col in d2.columns]
    diffs = {**C.diffs, 2: PolyMatrix(d2.source, d2.target, columns)}
    broken = ChainComplex(C.ring, C.terms, diffs)
    assert d_squared_witness(broken) is not None
    return broken


@pytest.mark.parametrize(
    "damage, row",
    [(_zero_d1, "acyclicity"), (_double_first_row_of_d2, "d_squared_zero")],
    ids=["zero_differential", "d_squared_nonzero"],
)
def test_cli_build_certifies_the_emitted_complex(
    tmp_path, capsys, inst_t, monkeypatch, damage, row
):
    """Build certifies the complex it writes, not the cone it came from."""
    minimize = harness.minimize

    def damaged_minimize(complex_, labels=None):
        out, labels = minimize(complex_, labels=labels)
        return damage(out), labels

    monkeypatch.setattr(harness, "minimize", damaged_minimize)
    ipath = tmp_path / "t.json"
    ipath.write_text(json.dumps(inst_t.instance.to_doc()))
    assert cli.main(["build", str(ipath)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"certificate failure: {row}: ")
    assert err.count("\n") == 1
