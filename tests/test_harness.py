"""Instance files, pipelines, the dense oracle, reports, and the CLI."""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import tatesplice
from tatesplice import cli as cli_module
from tatesplice import freecomplex, groebner
from tatesplice import harness as harness_module
from tatesplice import tate as tate_module
from tatesplice.arith import PrimeField, VariableContext, parse_polynomial
from tatesplice.errors import (
    EXIT_MEMORY,
    ContainmentError,
    NotAComplexError,
    NotChainMapError,
    NotRegularError,
    TateSpliceError,
)
from tatesplice.freecomplex import BaseRing, ChainComplex, PolyMatrix
from tatesplice.harness import (
    InstanceData,
    ProblemInstance,
    betti_text,
    dump_output,
    oracle_homology,
    report_text,
    run_build,
    run_verify,
)
from tatesplice.koszul import koszul_complex

from crosschecks import square_witness

F = PrimeField(32003)
ROOT = Path(__file__).parent.parent
INSTANCE_FILES = sorted((ROOT / "instances").glob("*.json"))


# the package's parent directory, for child interpreters started by the tests
SRC_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tatesplice.__file__)))


def cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "tatesplice.cli", *args],
        capture_output=True,
        text=True,
        env=SRC_ENV,
        **kw,
    )


def test_instance_roundtrip(inst_t):
    doc = inst_t.instance.to_doc()
    again = ProblemInstance.from_doc(doc)
    assert again == inst_t.instance


def test_instance_rejects_unknown_fields(inst_t):
    doc = inst_t.instance.to_doc()
    doc["strategy"] = "fast"
    with pytest.raises(ValueError, match="unknown instance fields"):
        ProblemInstance.from_doc(doc)


def test_instance_rejects_missing_fields(inst_t):
    doc = inst_t.instance.to_doc()
    del doc["window"]
    with pytest.raises(ValueError, match="missing instance fields"):
        ProblemInstance.from_doc(doc)


def test_run_build_instance_t(build_t):
    ranks = [sum(build_t["betti"][str(i)].values()) for i in range(-4, 6)]
    assert ranks == [4, 3, 2, 1, 1, 2, 3, 4, 5, 6]
    assert all(v.get("passed") for v in build_t["certificates"].values())
    # R = F[x,y]/(x^2, y^2) is Artinian, so no variable is killed: swept
    # from the lowest interior generator degree, -4 at position -3, up to
    # the highest, 4 at position 4, plus R's top degree 2
    assert build_t["certificates"]["acyclicity"] == {
        "passed": True,
        "window": [-3, 4],
        "degrees": [-4, 6],
        "killed_variables": [],
    }
    assert build_t["mcm"]["generator_count"] == 1
    assert build_t["mcm"]["matrix"] == [["x"], ["y"]]
    assert build_t["mcm"]["rows"] == [[0], [0]]


def test_run_build_validation_error():
    inst = ProblemInstance(
        field_char=32003, variables=["x", "y"], f=["x^2", "y^2"], g=["x*y"],
        window=(-2, 3), max_internal_degree=6,
    )
    with pytest.raises(ContainmentError, match="NotInIdeal"):
        run_build(inst)


def _count_buchberger(monkeypatch):
    """Input sequences of the Gröbner bases built; every Buchberger run ends
    in one, whichever module it was called from."""
    calls = []
    real = groebner.GroebnerBasis.__init__

    def counting(self, ring, field, generators, representations, originals, *rest):
        if originals:  # S is the quotient by the empty basis, which no run makes
            calls.append([str(g) for g in originals])
        real(self, ring, field, generators, representations, originals, *rest)

    monkeypatch.setattr(groebner.GroebnerBasis, "__init__", counting)
    return calls


def test_instance_data_runs_buchberger_once_per_sequence(inst_c, monkeypatch):
    calls = _count_buchberger(monkeypatch)
    InstanceData(inst_c.instance)
    assert calls == [inst_c.instance.f, inst_c.instance.g]


@pytest.mark.parametrize(
    "f, g, message, bases",
    [
        # Buchberger runs, and the dimension count fails
        (["x", "x*y"], ["x^2"], "f is not a regular sequence", 1),
        (["x", "y"], ["x^2", "x*y"], "g is not a regular sequence", 2),
        (["x", "x*y"], ["x^2", "x*y"], "f is not a regular sequence", 1),
        # the cheap checks fail before any Buchberger run on that sequence
        (["0", "y"], ["y^2"], "f is not a regular sequence", 0),
        (["x", "y", "x + y"], ["x^2"], "f is not a regular sequence", 0),
        (["x", "y"], ["3"], "g is not a regular sequence", 1),
        (["x", "y"], ["x^2", "y^2", "x*y"], "g is not a regular sequence", 1),
    ],
)
def test_instance_data_rejects_non_regular(f, g, message, bases, monkeypatch):
    calls = _count_buchberger(monkeypatch)
    inst = ProblemInstance(
        field_char=32003, variables=["x", "y"], f=f, g=g,
        window=(-2, 3), max_internal_degree=6,
    )
    with pytest.raises(NotRegularError) as exc:
        InstanceData(inst)
    assert str(exc.value) == message
    assert len(calls) == bases


def test_run_build_deterministic_bytes(inst_t):
    a = dump_output(run_build(inst_t.instance))
    b = dump_output(run_build(inst_t.instance))
    assert a == b


# sha256 of dump_output for each rung: compact one-line JSON in the sparse
# `tatesplice/2` layout; a change that alters an output document must say
# why and update its digest here.
OUTPUT_SHA256 = {
    "t": "e5a6c749a082894266cdc63c29025b75460abf17c4eec8b9b960eeefe720bdb3",
    "h": "8746eb87fb2f97d7415a496261f9205e9f85804fd9505844a466f0dc6b6ce833",
    "c": "20ba882b4a10ea8241d95a29e6e789598d698fe5bf04ac19c2d124bc8cb726ef",
    "41": "0257ae5571374235f7b7826a95009cc623853d952d8b26e36d8893adef8f20c5",
    "52": "b43c9d773dd266ba96df54612c7c70b1674f96d240b713977c206f65ab7dafb5",
    "52w": "055e543f9ca7d2c584a66433081596f490d6c2e324acccdb08a853d6fdbf8a29",
}


@pytest.mark.parametrize("rung", sorted(OUTPUT_SHA256))
def test_output_bytes_pinned(rung, request):
    doc = request.getfixturevalue(f"build_{rung}")
    digest = hashlib.sha256(dump_output(doc).encode()).hexdigest()
    assert digest == OUTPUT_SHA256[rung]


@pytest.mark.parametrize("rung", ["t", "h", "52w"])
def test_dump_output_is_its_own_canonical_form(rung, request):
    text = dump_output(request.getfixturevalue(f"build_{rung}"))
    assert text.endswith("\n") and text.count("\n") == 1
    assert dump_output(json.loads(text)) == text


def test_cli_verifies_a_document_written_with_indentation(tmp_path, capsys, build_c):
    # whitespace is not content: the indented layout of earlier releases
    # still verifies
    path = tmp_path / "c.out.json"
    path.write_text(json.dumps(build_c, sort_keys=True, indent=1) + "\n")
    assert cli_module.main(["verify", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_run_build_with_explicit_lift_matrix(inst_t, build_t):
    inst = ProblemInstance.from_doc(
        {**inst_t.instance.to_doc(), "A": [["x", "0"], ["0", "y"]]}
    )
    doc = run_build(inst)
    # same lift as the division-tracked one, so the complex agrees
    assert doc["tate"] == build_t["tate"]


def test_run_build_rejects_invalid_lift_matrix(inst_t):
    from tatesplice.errors import LiftIdentityError

    inst = ProblemInstance.from_doc(
        {**inst_t.instance.to_doc(), "A": [["x", "0"], ["0", "x"]]}
    )
    with pytest.raises(LiftIdentityError):
        run_build(inst)


def test_run_verify_roundtrip(build_t):
    ok, rows = run_verify(build_t)
    assert ok
    assert [name for name, _, _ in rows] == [
        "d_squared_zero",
        "acyclicity",
        "minimality",
        "betti_table",
        "document",
    ]
    text = report_text(rows)
    assert "PASS" in text and "FAIL" not in text


def test_run_verify_detects_corruption(build_t):
    doc = json.loads(dump_output(build_t))
    # corrupt one differential entry
    pos = sorted(doc["tate"]["diffs"])[0]
    doc["tate"]["diffs"][pos][0][0] = "x^2"
    ok, rows = run_verify(doc)
    assert not ok


def test_run_verify_truncated_window_reports_windowedge(build_t):
    doc = json.loads(dump_output(build_t))
    keep = "1"
    doc["tate"]["window"] = [0, 1]
    doc["tate"]["terms"] = {k: v for k, v in doc["tate"]["terms"].items() if k in ("0", "1")}
    for key in ("diffs", "rows"):
        doc["tate"][key] = {k: v for k, v in doc["tate"][key].items() if k == keep}
    doc["betti"] = {k: v for k, v in doc["betti"].items() if k in ("0", "1")}
    ok, rows = run_verify(doc)
    acy = [row for row in rows if row[0] == "acyclicity"][0]
    assert not acy[1]
    assert "WindowEdge" in acy[2]


def _record_pieces(monkeypatch):
    """Wrap graded_piece; returns the list of content keys it is asked for."""
    keys = []
    build = freecomplex.graded_piece

    def recording(matrix, d):
        keys.append((matrix.source.twists, matrix.target.twists, matrix.entries, d))
        return build(matrix, d)

    monkeypatch.setattr(freecomplex, "graded_piece", recording)
    return keys


def test_run_verify_builds_each_piece_once(build_c, monkeypatch):
    doc = json.loads(dump_output(build_c))
    keys = _record_pieces(monkeypatch)
    ok, _ = run_verify(doc)
    assert ok
    assert keys
    assert len(keys) == len(set(keys))


def _bench_module(name):
    """bench/<name>.py loaded as a module, without bench/ on the import path."""
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _generic_doc(seed):
    """The benchmark's `generic` instance for one seed."""
    return _bench_module("workloads").generic_doc(seed)


class _RecordingDict(dict):
    """An empty dict that records every key asked of `get`."""

    def __init__(self, asked):
        super().__init__()
        self.asked = asked

    def get(self, key, default=None):
        self.asked.add(key)
        return default


def test_bench_tracer_finds_every_name_it_traces():
    """The benchmark's tracer wraps package names from outside the package:
    every method it lists and every name its metrics read must exist, and
    uninstalling must put every binding back."""
    tracing = _bench_module("tracer")

    def bindings():
        out = {}
        for name, mod in list(sys.modules.items()):
            if name == "tatesplice" or name.startswith("tatesplice."):
                out.update(((name, attr), obj) for attr, obj in vars(mod).items())
        for layer, classes in tracing.METHODS.items():
            for cls_name in classes:
                cls = getattr(sys.modules[f"tatesplice.{layer}"], cls_name)
                out.update(((layer, cls_name, attr), obj) for attr, obj in vars(cls).items())
        return out

    before = bindings()
    tracer = tracing.Tracer("test")
    try:
        tracer.install()
        installed = bindings()
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())
    assert any(installed[key] is not obj for key, obj in before.items())

    wrapped = set(tracer.names)
    methods = {
        f"{layer}.{cls}" + ("" if method == "__init__" else f".{method}")
        for layer, classes in tracing.METHODS.items()
        for cls, names in classes.items()
        for method in names
    }
    assert methods <= wrapped
    asked = set()
    tracer.inclusive, tracer.calls, tracer.self_time, tracer.errors = (
        _RecordingDict(asked) for _ in range(4)
    )
    tracing.layer_metrics(tracer, 0.0, 0.0)
    assert "freecomplex.is_chain_map" in asked
    assert asked <= wrapped, sorted(asked - wrapped)


def test_run_verify_certifies_stored_basis(monkeypatch):
    # generic seed 1: a 13-element basis, certified as stored, not recomputed
    doc = json.loads(dump_output(run_build(ProblemInstance.from_doc(_generic_doc(1)))))

    def no_buchberger(gens):
        raise AssertionError("verify ran buchberger")

    monkeypatch.setattr(groebner, "buchberger", no_buchberger)
    calls = _count_buchberger(monkeypatch)
    ok, _ = run_verify(doc)
    assert ok
    # and the basis of R/(x5), also certified: the stored one with x5 set to
    # 0, then x5 itself
    modulus = doc["tate"]["ring"]["modulus"]
    assert doc["certificates"]["acyclicity"]["killed_variables"] == ["x5"]
    assert calls[0] == modulus and len(calls) == 2
    assert len(calls[1]) == len(modulus) + 1 and calls[1][-1] == "x5"
    assert not any("x5" in g for g in calls[1][:-1])


def test_run_verify_reduces_the_stored_modulus_s_pairs(monkeypatch):
    # a stored modulus has no numerator to compare with: verify reduces its
    # criterion S-pairs, and only Rbar's basis is certified by its numerator
    doc = json.loads(dump_output(run_build(ProblemInstance.from_doc(_generic_doc(1)))))
    pairs = groebner._criterion_pairs
    certified = []
    monkeypatch.setattr(
        groebner, "_criterion_pairs", lambda leads: certified.append(len(leads)) or pairs(leads)
    )
    ok, _ = run_verify(doc)
    assert ok
    assert certified == [len(doc["tate"]["ring"]["modulus"])]


@pytest.mark.parametrize(
    "modulus",
    [
        ["x^3 + y^3", "y^3"],
        [],
        ["x^3 + y^2", "y^3"],
        # all three lead lcms equal x*y*z, so the chain criterion skips
        # none of them; S(x*y + z^2, x*z) = z^3 is a standard monomial
        ["x*y + z^2", "x*z", "y*z"],
        # leads x^2 and x*y share x; S = -y^3 does not reduce
        ["x^2 - y^2", "x*y"],
        # R = 0: no regular quotient to sweep over
        ["1"],
    ],
    ids=["not_reduced", "empty", "inhomogeneous", "equal_lcms", "shared_variable", "unit"],
)
def test_cli_verify_rejects_bad_modulus(tmp_path, capsys, build_c, modulus):
    doc = json.loads(dump_output(build_c))
    doc["tate"]["ring"]["modulus"] = modulus
    assert _verify_exit_code(tmp_path, doc) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: malformed document") and err.count("\n") == 1


def test_verify_reports_a_hypersurface_window_read_without_its_modulus(build_h):
    # the window is read over S, whose modulus has no generator to normalize
    # by: verify reports the failing rows and raises nothing
    doc = json.loads(dump_output(build_h))
    del doc["tate"]["ring"]["modulus"]
    ok, rows = run_verify(doc)
    assert not ok and {name for name, passed, _ in rows if not passed} >= {"d_squared_zero"}


def test_run_build_piece_count(inst_c, build_c, monkeypatch):
    keys = _record_pieces(monkeypatch)
    doc = run_build(inst_c.instance)
    assert doc == build_c
    assert len(keys) <= 87


def test_buchberger_divisions_on_generic(monkeypatch):
    # the Gebauer-Moller update leaves 32 of the S-pairs to reduce, and
    # inter-reduction divides each of the 13 basis elements once
    g = list(InstanceData(ProblemInstance.from_doc(_generic_doc(1))).g)
    divide = groebner.divide_tracking
    calls = []
    monkeypatch.setattr(groebner, "divide_tracking", lambda f, d: calls.append(f) or divide(f, d))
    assert len(groebner.buchberger(g).generators) == 13
    assert len(calls) <= 45


def test_buchberger_skips_complete_degrees_on_generic(monkeypatch):
    # with the complete-intersection numerator as its bound, Buchberger drops
    # the pairs of each degree whose lead count already meets it, unreduced,
    # and returns the same basis
    g = list(InstanceData(ProblemInstance.from_doc(_generic_doc(1))).g)
    divide = groebner.divide_tracking
    calls = []
    monkeypatch.setattr(groebner, "divide_tracking", lambda f, d: calls.append(f) or divide(f, d))
    full = groebner.buchberger(g)
    pair_loop = len(calls)
    calls.clear()
    numerator = groebner.times_complete_intersection({0: 1}, [2, 2, 2, 3])
    driven = groebner.buchberger(g, numerator)
    assert len(calls) < pair_loop
    assert driven.generators == full.generators
    assert driven.representations == full.representations


@pytest.mark.parametrize(
    "source", ["t", "h", "c", "41", "52", "52w", "generic1", "generic2", "generic7"]
)
def test_regular_quotient_basis_passes_the_s_pair_certificate(request, source):
    # Rbar's basis is certified by R's numerator times (1 - t)^k; the full
    # certificate, every criterion S-pair and every original, agrees
    if source.startswith("generic"):
        data = InstanceData(ProblemInstance.from_doc(_generic_doc(int(source[7:]))))
    else:
        data = request.getfixturevalue(f"inst_{source}")
    rbar, killed, _ = data.ring_R.regular_quotient()
    basis = rbar.modulus
    groebner.GroebnerBasis(
        data.ctx, data.field, basis.generators, basis.representations, basis.originals
    )
    assert len(basis.generators) == len(data.gb_I.generators) + len(killed)


def test_run_build_piece_count_generic(monkeypatch):
    # R/(x5) is Artinian with top degree 5, so each position is swept over a
    # few degrees only
    keys = _record_pieces(monkeypatch)
    run_build(ProblemInstance.from_doc(_generic_doc(1)))
    assert len(keys) <= 37


def _built_cones(monkeypatch, instance):
    """The cones run_build assembles, with the ranks its sweeps stored, and
    the document it returns."""
    cones = []
    assemble = tate_module.mapping_cone

    def recording(phi, C, D):
        cone, layout = assemble(phi, C, D)
        cones.append(cone)
        return cone, layout

    monkeypatch.setattr(tate_module, "mapping_cone", recording)
    doc = run_build(instance)
    return cones, doc


def _case_instance(rung, request):
    """The instance of a rung fixture; g<seed> is the benchmark's generic
    instance for that seed, and <rung>-02 the rung over window [0, 2]."""
    if rung.startswith("g"):
        return ProblemInstance.from_doc(_generic_doc(int(rung[1:])))
    name, _, window = rung.partition("-")
    instance = request.getfixturevalue(f"inst_{name}").instance
    if window:
        instance = ProblemInstance.from_doc({**instance.to_doc(), "window": [0, 2]})
    return instance


def _assert_as_checked(matrix):
    # equal to its rebuild through the checking constructor, row order
    # included: rows ascending and in range, no zero entry, every entry in
    # normal form and homogeneous of degree target twist - source twist
    rebuilt = PolyMatrix(matrix.source, matrix.target, matrix.columns)
    assert [list(col.items()) for col in matrix.columns] == [
        list(col.items()) for col in rebuilt.columns
    ]


@pytest.mark.parametrize(
    "rung", ["t", "h", "c", "41", "52", "52w", "g1", "g2", "g7", "41-02", "52-02"]
)
def test_derived_matrices_pass_the_constructor_checks(rung, request, monkeypatch):
    # shift, twist, transpose, scale, block_matrix, compose and reduced()
    # store their entries unchecked; every matrix they made in a build must
    # still pass every check of the constructor
    built, windows = [], []
    assemble, derive = tate_module.mapping_cone, harness_module._derived_sections

    def recording_cone(phi, C, D):
        cone, layout = assemble(phi, C, D)
        built.extend((cone, D, C.dual(), C.shift(1)))
        return cone, layout

    def recording_sections(instance, complex_, *rest):
        windows.append(complex_)
        return derive(instance, complex_, *rest)

    monkeypatch.setattr(tate_module, "mapping_cone", recording_cone)
    monkeypatch.setattr(harness_module, "_derived_sections", recording_sections)
    run_build(_case_instance(rung, request))
    assert built and windows
    for C in (*built, built[0].reduced(), *windows, *(w.reduced() for w in windows)):
        for d in C.diffs.values():
            _assert_as_checked(d)


@pytest.mark.parametrize("rung", ["c", "generic"])
def test_stored_cone_ranks_equal_built_pieces(rung, inst_c, monkeypatch):
    instance = inst_c.instance if rung == "c" else ProblemInstance.from_doc(_generic_doc(1))
    cones, _ = _built_cones(monkeypatch, instance)
    assert cones
    for cone in cones:
        # both rings have dimension 1: the sweep ran over R/(last variable)
        bar = cone.reduced()
        assert bar is not cone and bar._ranks
        for (i, d), r in bar._ranks.items():
            assert r == freecomplex.graded_piece(bar.diff(i), d).rank(), (i, d)


@pytest.mark.parametrize("rung", ["t", "h", "c", "41", "52", "52w", "generic"])
def test_reduced_drops_killed_terms_as_normal_form(rung, request, monkeypatch):
    # dropping the terms with a killed variable is Rbar's normal form, on the
    # assembled cone and on the emitted window read back
    if rung == "generic":
        instance = ProblemInstance.from_doc(_generic_doc(1))
    else:
        instance = request.getfixturevalue(f"inst_{rung}").instance
    cones, doc = _built_cones(monkeypatch, instance)
    window = freecomplex.complex_from_doc(doc["tate"], validate=False)
    for C in (*cones, window):
        ring, killed, _ = C.ring.regular_quotient()
        bar = C.reduced()
        assert (bar is C) == (not killed)
        oracle = freecomplex.base_change(C, ring)
        assert bar.terms == oracle.terms and bar.diffs == oracle.diffs


@pytest.mark.parametrize("rung", ["t", "c", "52w"])
def test_build_forms_each_product_once(rung, request, monkeypatch):
    # F's d^2, the squares of phi and the window's d^2 are one check of the
    # cone at positions min(lo, -2) + 2 to max(hi, 1), which the window
    # keeps as checked
    products = []
    first = freecomplex._first_nonzero
    monkeypatch.setattr(freecomplex, "_first_nonzero", lambda m: products.append(m) or first(m))
    instance = request.getfixturevalue(f"inst_{rung}").instance
    run_build(instance)
    lo, hi = instance.window
    assert len(products) == max(hi, 1) - min(lo, -2) - 1


def _corrupted(matrix):
    """matrix with its first nonzero entry, columns then rows, doubled."""
    cols = [dict(col) for col in matrix.columns]
    c = next(k for k, col in enumerate(cols) if col)
    r = next(iter(cols[c]))
    cols[c][r] = cols[c][r].scale(2)
    return PolyMatrix(matrix.source, matrix.target, cols)


def _witness(error):
    return error.position, error.row, error.col, error.witness


@pytest.mark.parametrize("rung, i", [("h", 0), ("c", 0), ("c", 1), ("52", 2)])
def test_build_reports_a_broken_phi_as_is_chain_map_does(
    rung, i, request, monkeypatch, tmp_path, capsys
):
    # the cone's one d^2 check finds the first failing square of phi, at the
    # position and entry that the square-by-square reference finds
    seen = []
    expand = tate_module.expand_phi

    def broken(resolution):
        phi, target = expand(resolution)
        phi = {**phi, i: _corrupted(phi[i])}
        seen.append((phi, resolution.complex, target))
        return phi, target

    monkeypatch.setattr(tate_module, "expand_phi", broken)
    instance = request.getfixturevalue(f"inst_{rung}").instance
    with pytest.raises(NotChainMapError) as built:
        run_build(instance)
    assert _witness(built.value) == square_witness(*seen[0])
    assert _build_exit_code(tmp_path, instance.to_doc()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("certificate failure: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("rung, k, side", [("t", 2, 1), ("c", 2, 1), ("52", 1, 0)])
def test_build_reports_a_broken_resolution_as_not_a_complex(rung, k, side, request, monkeypatch):
    # d_k of F enters the cone as d_C and, dualized, as d_D; the first nonzero
    # product is reported in the coordinates of the complex (C or D) it lies in
    seen = []
    resolve, expand = harness_module.es_resolution, tate_module.expand_phi

    def broken_resolution(lift, ring_R, length):
        res = resolve(lift, ring_R, length)
        F = res.complex
        res.complex = ChainComplex(F.ring, F.terms, {**F.diffs, k: _corrupted(F.diff(k))})
        return res

    def recording(resolution):
        phi, target = expand(resolution)
        seen.append((resolution.complex, target))
        return phi, target

    monkeypatch.setattr(harness_module, "es_resolution", broken_resolution)
    monkeypatch.setattr(tate_module, "expand_phi", recording)
    with pytest.raises(NotAComplexError) as built:
        run_build(request.getfixturevalue(f"inst_{rung}").instance)
    i, r, c, e = freecomplex.d_squared_witness(seen[0][side])
    assert _witness(built.value) == (i, r, c, str(e))


def test_run_build_piece_count_52(inst_52, build_52, monkeypatch):
    # the cone's sweep covers positions -1 and 0, and the emitted complex
    # keeps the ranks the sweep stored, so certify builds no piece again
    keys = _record_pieces(monkeypatch)
    assert run_build(inst_52.instance) == build_52
    assert len(keys) <= 30
    assert len(keys) == len(set(keys))


def test_rung_52w_certified_and_acyclic(build_52w):
    """The memory-wall rung: every certificate passes, the document
    verifies, and the dense oracle agrees that homology vanishes at interior
    (i, d) whose graded pieces are small enough for it."""
    assert all(cert["passed"] for cert in build_52w["certificates"].values())
    ok, rows = run_verify(build_52w)
    assert ok, rows
    C = freecomplex.complex_from_doc(build_52w["tate"], validate=False)
    assert C.window == (-2, 3)
    # pieces of d_i and d_{i+1} at these points have at most 3150 cells
    for i, d in ((-1, -2), (0, 0), (1, 2), (2, 4)):
        assert C.term(i).degree_dim(d) > 0
        assert oracle_homology(C, i, d) == 0


def test_run_build_splits_unit_entries():
    """g_1 = f_1 puts unit entries in the splice, so minimize cancels them
    inside the pipeline; the emitted window is minimal, verifies, and its
    interior homology vanishes by the dense oracle too, up to dmax."""
    inst = ProblemInstance(
        field_char=32003, variables=["x", "y"], f=["x", "y"], g=["x", "y^2"],
        window=(-3, 4), max_internal_degree=8,
    )
    doc = run_build(inst)
    assert not doc["certificates"]["minimal"]["passed"]
    assert doc["certificates"]["minimal_after_reduction"]["passed"]
    ok, rows = run_verify(json.loads(dump_output(doc)))
    assert ok, rows
    C = freecomplex.complex_from_doc(doc["tate"], validate=False)
    low = min(-t for i in range(C.lo, C.hi + 1) for t in C.term(i).twists)
    for i in range(C.lo + 1, C.hi):
        for d in range(low, 9):
            assert freecomplex._homology_dim(C, i, d) == oracle_homology(C, i, d)


@pytest.mark.parametrize("module", ("scipy", "numpy"))
def test_import_leaves_scipy_out(module):
    """Importing the package must not pull in `module`: the package uses
    only the standard library, and the module would add start-up time and
    resident memory to every run."""
    r = subprocess.run(
        [sys.executable, "-c", f"import sys, tatesplice; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_betti_text_alignment(build_t):
    text = betti_text(build_t["betti"])
    assert "total" in text
    assert text.splitlines()[0].lstrip().startswith("deg")


def test_oracle_koszul_acyclic():
    ctx = VariableContext(["x", "y"])
    S = BaseRing(ctx, F)
    K = koszul_complex(
        [parse_polynomial("x", ctx, F), parse_polynomial("y", ctx, F)], S
    )
    for d in range(0, 7):
        assert oracle_homology(K, 1, d) == 0


def test_oracle_h0_of_three_squares():
    ctx = VariableContext(["x", "y", "z"])
    S = BaseRing(ctx, F)
    f = [parse_polynomial(s, ctx, F) for s in ("x^2", "y^2", "z^2")]
    K = koszul_complex(f, S)
    assert oracle_homology(K, 0, 2) == 3  # monomials xy, xz, yz


def test_oracle_accepts_output_document(build_t):
    assert oracle_homology(build_t, 0, 0) == 0


# --- CLI ---------------------------------------------------------------


def test_cli_end_to_end(tmp_path, inst_t):
    ipath = tmp_path / "t.json"
    opath = tmp_path / "t.out.json"
    ipath.write_text(json.dumps(inst_t.instance.to_doc()))
    r = cli("build", str(ipath), "-o", str(opath))
    assert r.returncode == 0, r.stderr
    assert opath.exists()

    r = cli("verify", str(opath))
    assert r.returncode == 0
    assert "PASS" in r.stdout

    r = cli("betti", str(opath))
    assert r.returncode == 0
    assert "total" in r.stdout

    r = cli("mcm", str(opath))
    assert r.returncode == 0
    assert "generators: 1" in r.stdout

    r = cli("count-formula", "--n", "5", "--c", "2")
    assert r.returncode == 0
    assert r.stdout.strip() == "13"

    # n is bounded by the variable limit, before any arithmetic
    r = cli("count-formula", "--n", "20000", "--c", "1")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "validation error: need n <= 16, the bound on variables\n"


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda path: path.stem)
def test_cli_build_and_verify_instance_file(tmp_path, capsys, path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert cli_module.main(["build", str(path), "-o", str(first)]) == 0
    assert cli_module.main(["build", str(path), "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert cli_module.main(["verify", str(first)]) == 0
    assert capsys.readouterr().err == ""
    # the mcm verb draws the sparse section as the dense grid of d_1
    assert cli_module.main(["mcm", str(first)]) == 0
    captured = capsys.readouterr()
    d1 = freecomplex.complex_from_doc(json.loads(first.read_text())["tate"]).diff(1)
    grid = ["  [" + ", ".join(map(str, row)) + "]" for row in d1.entries]
    assert captured.out.split("presentation matrix:\n")[1].splitlines() == grid
    assert captured.err == ""


@pytest.mark.parametrize("rung", ["t", "h", "c", "41", "52", "52w", "g1", "g2", "g7"])
def test_build_is_deterministic_and_its_tate_reads_back(rung, request):
    # g<seed> is the benchmark's generic instance for that seed
    if rung.startswith("g"):
        instance = ProblemInstance.from_doc(_generic_doc(int(rung[1:])))
        doc = run_build(instance)
    else:
        instance = request.getfixturevalue(f"inst_{rung}").instance
        doc = request.getfixturevalue(f"build_{rung}")
    assert dump_output(run_build(instance)) == dump_output(doc)
    assert run_verify(json.loads(dump_output(doc)))[0]
    tate = freecomplex.complex_from_doc(doc["tate"])
    assert freecomplex.complex_to_doc(tate) == doc["tate"]


def test_cli_validation_exit_code(tmp_path):
    bad = {
        "field_char": 32003,
        "variables": ["x", "y"],
        "f": ["x^2", "y^2"],
        "g": ["x*y"],
        "window": [-2, 3],
        "max_internal_degree": 6,
    }
    ipath = tmp_path / "bad.json"
    ipath.write_text(json.dumps(bad))
    r = cli("build", str(ipath))
    assert r.returncode == 2
    assert "NotInIdeal" in r.stderr


def test_cli_bad_lift_matrix_exit_code(tmp_path, inst_t):
    doc = {**inst_t.instance.to_doc(), "A": [["x", "0"], ["0", "x"]]}
    ipath = tmp_path / "badA.json"
    ipath.write_text(json.dumps(doc))
    r = cli("build", str(ipath))
    assert r.returncode == 2


def test_cli_parse_error_exit_code(tmp_path):
    bad = {
        "field_char": 32003,
        "variables": ["x", "y"],
        "f": ["x^", "y"],
        "g": ["x^2"],
        "window": [-2, 3],
        "max_internal_degree": 6,
    }
    ipath = tmp_path / "bad.json"
    ipath.write_text(json.dumps(bad))
    r = cli("build", str(ipath))
    assert r.returncode == 4


def test_cli_io_error_exit_code(tmp_path):
    r = cli("build", str(tmp_path / "missing.json"))
    assert r.returncode == 4
    notjson = tmp_path / "x.json"
    notjson.write_text("{ broken")
    r = cli("build", str(notjson))
    assert r.returncode == 4


def test_cli_certificate_exit_code(tmp_path, build_t):
    opath = tmp_path / "t.out.json"
    doc = json.loads(dump_output(build_t))
    pos = sorted(doc["tate"]["diffs"])[0]
    doc["tate"]["diffs"][pos][0][0] = "x^2"
    opath.write_text(json.dumps(doc))
    r = cli("verify", str(opath))
    assert r.returncode == 3
    assert "FAIL" in r.stdout


def _verify_exit_code(tmp_path, doc):
    opath = tmp_path / "bad.out.json"
    opath.write_text(json.dumps(doc))
    return cli_module.main(["verify", str(opath)])


def _zero_top_column(doc):
    """A copy of an output document whose top differential has its first
    nonzero column zeroed; d^2 stays zero."""
    doc = json.loads(dump_output(doc))
    top = str(doc["tate"]["window"][1])
    col = next(c for c, entries in enumerate(doc["tate"]["diffs"][top]) if entries)
    doc["tate"]["diffs"][top][col] = doc["tate"]["rows"][top][col] = []
    return doc


@pytest.mark.parametrize("rung", ["t", "h", "c", "41", "52"])
def test_zeroed_top_column_fails_acyclicity(rung, request):
    doc = _zero_top_column(request.getfixturevalue(f"build_{rung}"))
    C = freecomplex.complex_from_doc(doc["tate"])  # raises unless d^2 = 0
    dmax = doc["meta"]["dmax"]
    rows = {name: (ok, detail) for name, ok, detail in freecomplex.certify(C, dmax)[0]}
    # the sweep over R up to dmax, as acyclicity was certified before
    old = {name: ok for name, ok, _ in freecomplex.certify(C, dmax, quotient=False)[0]}
    assert rows["d_squared_zero"][0]
    assert not rows["acyclicity"][0]
    # only on 41 did the old sweep miss it: the new H_2 sits above dmax = 5
    assert old["acyclicity"] == (rung == "41")
    if rung == "41":
        assert rows["acyclicity"][1].startswith("H_2 nonzero in degree 6 ")


def test_cli_verify_fails_homology_above_dmax(tmp_path, capsys, build_41):
    assert _verify_exit_code(tmp_path, _zero_top_column(build_41)) == 3
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines() if "FAIL" in line] == [
        ["acyclicity", "FAIL"]
    ]


def test_cli_verify_document_without_tate(tmp_path, capsys):
    doc = {"format": harness_module.FORMAT, "meta": {"dmax": 4}}
    assert _verify_exit_code(tmp_path, doc) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "tate" in err


def test_cli_verify_document_without_meta(tmp_path, capsys, build_t):
    doc = json.loads(dump_output(build_t))
    del doc["meta"]
    assert _verify_exit_code(tmp_path, doc) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "meta" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"format": harness_module.FORMAT, "tate": {}, "meta": {"dmax": 4}, "betti": {}},
        {"format": harness_module.FORMAT, "tate": [1, 2], "meta": {"dmax": 4}, "betti": {}},
    ],
    ids=["tate_without_ring", "tate_not_an_object"],
)
def test_cli_verify_malformed_tate(tmp_path, capsys, doc):
    assert _verify_exit_code(tmp_path, doc) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: malformed document") and err.count("\n") == 1


def test_cli_verify_meta_without_dmax(tmp_path, capsys, build_t):
    doc = json.loads(dump_output(build_t))
    del doc["meta"]["dmax"]
    assert _verify_exit_code(tmp_path, doc) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: malformed document") and err.count("\n") == 1
    assert "dmax" in err


@pytest.mark.parametrize(
    "path, value",
    [
        (("format",), "tatesplice/0"),
        (None, [1, 2]),
        (("instance", "window"), [0, 1]),
        (("instance", "f"), ["x^", "y"]),
        (("instance", "variables"), ["a", "b"]),
        (("tate", "window"), [5, -4]),
        (("tate", "window"), "ab"),
        (("tate", "terms", "1"), ["-1", -1]),
        (("tate", "terms", "1"), [-1.0, -1]),
        (("tate", "terms", "0"), [False]),
    ],
    ids=[
        "unknown_format",
        "document_not_an_object",
        "instance_window_without_interior",
        "instance_f_unparsable",
        "instance_f_in_foreign_variables",
        "tate_window_reversed",
        "tate_window_string",
        "twist_string",
        "twist_float",
        "twist_bool",
    ],
)
def test_cli_verify_unreadable_document(tmp_path, capsys, build_t, path, value):
    # path None: the whole document is `value`
    doc = value
    if path is not None:
        doc = json.loads(dump_output(build_t))
        _set(doc, path, value)
    assert _verify_exit_code(tmp_path, doc) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert (path or ("format",))[-1] in captured.err


def _build_exit_code(tmp_path, doc):
    ipath = tmp_path / "instance.json"
    ipath.write_text(json.dumps(doc))
    return cli_module.main(["build", str(ipath)])


@pytest.mark.parametrize(
    "field, value",
    [
        ("window", "ab"),
        ("window", [0, 1]),
        ("window", [-2, 3.0]),
        ("window", [True, 3]),
        ("window", [3, 6]),
        ("window", [1, 4]),
        ("window", [-3, 0]),
        ("max_internal_degree", 10.5),
        ("max_internal_degree", "x"),
        ("max_internal_degree", -3),
        ("max_internal_degree", -1),
        ("variables", "xy"),
        ("variables", ["x", 1]),
        ("variables", ["x^2", "y"]),
        ("f", "x"),
        ("g", None),
        ("A", [["x", "y"], "x"]),
        ("A", [["x", 0]]),
        ("field_char", True),
        ("field_char", "32003"),
        (None, 5),
    ],
    ids=[
        "window_string",
        "window_without_interior",
        "window_float",
        "window_bool",
        "window_without_0_and_1",
        "window_without_0",
        "window_without_1",
        "dmax_float",
        "dmax_string",
        "dmax_minus_3",
        "dmax_minus_1",
        "variables_string",
        "variables_with_int",
        "variables_not_identifier",
        "f_string",
        "g_null",
        "A_row_string",
        "A_entry_int",
        "field_char_bool",
        "field_char_string",
        "document_number",
    ],
)
def test_cli_build_rejects_malformed_window_and_dmax(tmp_path, capsys, inst_t, field, value):
    # field None: the whole document is `value`
    doc = value if field is None else {**inst_t.instance.to_doc(), field: value}
    assert _build_exit_code(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert (field or "object") in err


@pytest.mark.parametrize("window", [[-45, 3], [-1, 45]])
def test_cli_build_rejects_window_beyond_length_limit(tmp_path, capsys, monkeypatch, inst_c, window):
    # rejected when the instance is read, before any Groebner basis is built
    def no_basis(seq):
        raise AssertionError("Groebner basis built for an over-long window")

    monkeypatch.setattr(harness_module, "_regular_basis", no_basis)
    doc = {**inst_c.instance.to_doc(), "window": window}
    assert _build_exit_code(tmp_path, doc) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert f"window {window}" in err and "limit of 40" in err


def _squares_doc(n, dmax):
    """x1..xn with f = squares and g = (x1^3, x2^3) over window [-2, 3]."""
    variables = [f"x{k}" for k in range(1, n + 1)]
    return {
        "field_char": 32003,
        "variables": variables,
        "f": [f"{v}^2" for v in variables],
        "g": ["x1^3", "x2^3"],
        "window": [-2, 3],
        "max_internal_degree": dmax,
    }


def test_cli_build_refuses_a_cone_above_the_rank_limit(tmp_path, capsys, monkeypatch):
    # x1..x16 passes every other read-time limit; its cone has a term of rank
    # 163,840 (131,072 at position -1), refused when the instance is read
    def no_build(instance):
        raise AssertionError("build started for an instance above the rank limit")

    monkeypatch.setattr(cli_module, "run_build", no_build)
    start = time.perf_counter()
    assert _build_exit_code(tmp_path, _squares_doc(16, 17)) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == (
        "validation error: window [-2, 3] needs a cone whose term -3 has rank 163840, "
        "above the limit of 10000\n"
    )


def test_predicted_cone_ranks():
    # x1..x11 and x1..x12 wrote these generator counts at position 0;
    # x1..x12 is the largest of the family the limit admits
    assert harness_module._cone_ranks(11, 2, (-2, 3))[0] == 2305
    ranks = harness_module._cone_ranks(12, 2, (-2, 3))
    assert ranks[0] == 5121 and max(ranks.values()) == 8192 <= harness_module.MAX_CONE_RANK
    ProblemInstance.from_doc(_squares_doc(12, 13))
    ranks = harness_module._cone_ranks(16, 2, (-2, 3))
    assert (ranks[0], ranks[-1]) == (114689, 131072)


@pytest.mark.parametrize("rung", ["t", "h", "c", "41", "52", "52w", "g1", "41-02", "52-02"])
def test_predicted_cone_ranks_are_the_built_cones(rung, request, monkeypatch):
    instance = _case_instance(rung, request)
    cones, _ = _built_cones(monkeypatch, instance)
    predicted = harness_module._cone_ranks(len(instance.f), len(instance.g), instance.window)
    assert {i: m.rank for i, m in cones[0].terms.items()} == predicted


def test_cli_build_accepts_dmax_zero(tmp_path, capsys, inst_t):
    # the smallest bound that sees H_0 of S/(f), which sits in degree 0
    doc = {**inst_t.instance.to_doc(), "max_internal_degree": 0}
    assert _build_exit_code(tmp_path, doc) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("verb, section", [("betti", "betti"), ("mcm", "mcm")])
def test_cli_section_verbs_on_document_without_section(tmp_path, capsys, build_t, verb, section):
    doc = json.loads(dump_output(build_t))
    del doc[section]
    opath = tmp_path / "t.out.json"
    opath.write_text(json.dumps(doc))
    assert cli_module.main([verb, str(opath)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert section in captured.err


DELETE = object()


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    if value is DELETE:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize(
    "build, path, value",
    [
        ("build_c", ("mcm", "matrix", 0, 0), "y^2"),
        ("build_c", ("mcm", "generator_count"), 99),
        ("build_c", ("mcm", "twists"), [0, 1]),
        ("build_c", ("mcm", "minimal"), False),
        ("build_c", ("mcm", "formula_count"), 3),
        ("build_c", ("meta", "window"), [-3, 6]),
        ("build_c", ("instance", "window"), [-4, 7]),
        ("build_c", ("instance", "g"), ["x^3"]),
        ("build_c", ("certificates", "acyclicity", "window"), [-4, 6]),
        ("build_c", ("certificates", "chain_map", "passed"), False),
        ("build_c", ("certificates", "acyclicity", "passed"), False),
        ("build_c", ("certificates", "h0_iso", "passed"), False),
        ("build_c", ("certificates", "minimal_after_reduction", "passed"), False),
        ("build_h", ("certificates", "two_periodic", "passed"), False),
        ("build_c", ("certificates", "acyclicity", "degrees"), [7, 8]),
        ("build_c", ("certificates", "acyclicity", "degrees"), DELETE),
        ("build_c", ("certificates", "acyclicity", "killed_variables"), []),
        ("build_c", ("meta", "dmax"), 11),
        ("build_c", ("meta", "m"), 7),
        ("build_c", ("meta", "twist_offset"), -3),
        ("build_c", ("meta", "route"), "general_splice"),
        # the splice keys of the dense format are unknown keys now
        ("build_c", ("meta", "splice"), 5),
        ("build_c", ("splice",), 5),
        ("build_c", ("meta", "extra"), 1),
        ("build_c", ("mcm", "extra"), 1),
        ("build_c", ("certificates", "bogus"), {"passed": True}),
        ("build_c", ("certificates", "minimal"), "yes"),
        # deg f moves the twist of the upper half
        ("build_t", ("instance", "f"), ["x^2", "y"]),
    ],
    ids=lambda v: ".".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_cli_verify_rejects_tampered_document(tmp_path, capsys, request, build, path, value):
    doc = json.loads(dump_output(request.getfixturevalue(build)))
    assert _verify_exit_code(tmp_path, doc) == 0
    _set(doc, path, value)
    assert _verify_exit_code(tmp_path, doc) == 3
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines() if "FAIL" in line] == [
        ["document", "FAIL"]
    ]


def _entry_path(doc, text):
    """The path of the first `tate.diffs` entry equal to `text`."""
    return next(
        ("tate", "diffs", i, c, k)
        for i, columns in sorted(doc["tate"]["diffs"].items())
        for c, entries in enumerate(columns)
        for k, e in enumerate(entries)
        if e == text
    )


def _tate_column(doc, test):
    """(entries, rows) of the first `tate` column whose rows pass `test`."""
    tate = doc["tate"]
    return next(
        (entries, rows)
        for i, columns in sorted(tate["diffs"].items())
        for entries, rows in zip(columns, tate["rows"][i])
        if test(rows)
    )


def _insert(column, k, entry, row):
    entries, rows = column
    entries.insert(k, entry)
    rows.insert(k, row)


def _noncanonical_edit(doc, edit):
    if edit in ("entry", "tate_key", "ring_key"):
        path, value = {
            "entry": (_entry_path(doc, "x"), "1*x + 0*x"),
            "tate_key": (("tate", "extra"), 1),
            "ring_key": (("tate", "ring", "extra"), 1),
        }[edit]
        _set(doc, path, value)
    elif edit == "explicit_zero":
        # "0" in the first row a column skips below its last
        column = _tate_column(doc, lambda rows: rows != list(range(len(rows))))
        gap = next(k for k, r in enumerate(column[1]) if r != k)
        _insert(column, gap, "0", gap)
    elif edit == "repeated_row":
        column = _tate_column(doc, bool)
        _insert(column, 0, column[0][0], column[1][0])
    else:  # unsorted_rows
        for part in _tate_column(doc, lambda rows: len(rows) > 1):
            part.reverse()


@pytest.mark.parametrize(
    "edit", ["entry", "tate_key", "ring_key", "explicit_zero", "repeated_row", "unsorted_rows"]
)
def test_cli_verify_rejects_noncanonical_tate(tmp_path, capsys, build_t, edit):
    # each edit reads back as the same complex, but is not what build writes
    doc = json.loads(dump_output(build_t))
    _noncanonical_edit(doc, edit)
    assert _verify_exit_code(tmp_path, doc) == 3
    fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
    assert len(fails) == 1 and fails[0].split()[:2] == ["document", "FAIL"]
    assert "tate differs from its recomputation" in fails[0]


@pytest.mark.parametrize(
    "edit, value",
    [
        ("row", False),
        ("row", 0.0),
        ("row", "0"),
        ("row", -1),
        ("row", 1),
        ("column", []),
        ("columns", [[0]]),
        ("format", "tatesplice/1"),
    ],
    ids=["bool", "float", "string", "negative", "beyond_rank", "short_column", "missing_column",
         "old_format"],
)
def test_cli_verify_refuses_an_unreadable_sparse_layout(tmp_path, capsys, build_t, edit, value):
    # d_1 of the t build is [x, y] into R: columns [["x"], ["y"]], rows [[0], [0]]
    doc = json.loads(dump_output(build_t))
    assert (doc["tate"]["diffs"]["1"], doc["tate"]["rows"]["1"]) == ([["x"], ["y"]], [[0], [0]])
    path = {
        "row": ("tate", "rows", "1", 0, 0),
        "column": ("tate", "rows", "1", 0),
        "columns": ("tate", "rows", "1"),
        "format": ("format",),
    }[edit]
    _set(doc, path, value)
    assert _verify_exit_code(tmp_path, doc) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert ("unknown format" if edit == "format" else "rows 1 ") in captured.err


@pytest.mark.parametrize(
    "A, build_code, verify_code",
    [
        ([["x"]], 2, 4),
        ([["y", "0"], ["0", "x"]], 2, 4),
        ([["q"]], 4, 4),
        # another lift of g through f: verify does not tie the complex to A
        ([["x + y", "0"], ["-x", "y"]], 0, 0),
    ],
    ids=["shape", "identity", "unknown_variable", "other_lift"],
)
def test_cli_verify_refuses_a_lift_matrix_that_build_refuses(
    tmp_path, capsys, inst_t, build_t, A, build_code, verify_code
):
    assert _build_exit_code(tmp_path, {**inst_t.instance.to_doc(), "A": A}) == build_code
    doc = json.loads(dump_output(build_t))
    doc["instance"]["A"] = A
    capsys.readouterr()
    assert _verify_exit_code(tmp_path, doc) == verify_code
    err = capsys.readouterr().err
    if verify_code:
        assert err.startswith("error: malformed document: ") and err.count("\n") == 1
    else:
        assert err == ""


@pytest.mark.parametrize("target", ["directory", "missing_parent"])
def test_cli_build_reports_an_unwritable_output(tmp_path, capsys, inst_t, target):
    ipath = tmp_path / "t.json"
    ipath.write_text(json.dumps(inst_t.instance.to_doc()))
    opath = {"directory": tmp_path, "missing_parent": tmp_path / "missing" / "out.json"}[target]
    assert cli_module.main(["build", str(ipath), "-o", str(opath)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {opath}: ")
    assert captured.err.count("\n") == 1


def test_reach_tool_runs_its_pipelines():
    # tools/reach.py --run builds and verifies the ladder and generic seed 1
    # without the tracer, so a change of document format fails it here
    r = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"), "--run"],
        capture_output=True,
        text=True,
        env=SRC_ENV,
    )
    assert (r.returncode, r.stdout, r.stderr) == (0, "", "")


def test_cli_verify_compares_windows_with_the_emitted_one(tmp_path, capsys, build_c):
    # the instance and meta windows agree with each other, not with tate's
    doc = json.loads(dump_output(build_c))
    doc["instance"]["window"] = doc["meta"]["window"] = [-4, 7]
    assert _verify_exit_code(tmp_path, doc) == 3
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines() if "FAIL" in line] == [
        ["document", "FAIL"]
    ]


def test_cli_verify_fallback_sweep(tmp_path, capsys):
    # R/(z) is not Artinian: the sweep kills z only, then runs up to
    # max_internal_degree, and verify compares its degrees with that bound
    doc = {
        "field_char": 32003,
        "variables": ["x", "y", "z"],
        "f": ["x", "y"],
        "g": ["y^2 + x*z"],
        "window": [-2, 3],
        "max_internal_degree": 4,
    }
    ipath, opath = tmp_path / "instance.json", tmp_path / "out.json"
    ipath.write_text(json.dumps(doc))
    assert cli_module.main(["build", str(ipath), "-o", str(opath)]) == 0
    assert cli_module.main(["verify", str(opath)]) == 0
    out = json.loads(opath.read_text())
    acyclicity = out["certificates"]["acyclicity"]
    assert acyclicity["killed_variables"] == ["z"]
    assert acyclicity["degrees"] == [-1, doc["max_internal_degree"]]
    acyclicity["degrees"] = [-1, 5]
    opath.write_text(json.dumps(out))
    capsys.readouterr()
    assert cli_module.main(["verify", str(opath)]) == 3
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines() if "FAIL" in line] == [
        ["document", "FAIL"]
    ]


def test_cli_build_refuses_a_listing_above_the_bound(tmp_path, capsys):
    # R = S/(x1^20, x2^20) lists degree 18 of x1..x10, C(27, 9) monomials,
    # to reduce the resolution's entries from the lift, x1^18 and x2^18
    doc = {
        "field_char": 32003,
        "variables": [f"x{i}" for i in range(1, 11)],
        "f": ["x1^2", "x2^2", "x3"],
        "g": ["x1^20", "x2^20"],
        "window": [-1, 2],
        "max_internal_degree": 4,
    }
    assert _build_exit_code(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: ") and captured.err.count("\n") == 1
    assert f"degree 18 has 4686825 monomials (limit {groebner.MAX_LISTING})" in captured.err


@pytest.mark.parametrize(
    "f, g",
    [(["2*x*y"], ["4*x*y"]), (["2*x^2", "4*y"], ["x^2"])],
    ids=["free", "finite_projective_dimension"],
)
def test_cli_build_rejects_finite_projective_dimension(tmp_path, capsys, f, g):
    # the lift has a unit entry, and minimization cancels every interior
    # generator: the essential MCM approximation is zero
    doc = {
        "field_char": 7,
        "variables": ["x", "y"],
        "f": f,
        "g": g,
        "window": [-2, 3],
        "max_internal_degree": 4,
    }
    assert _build_exit_code(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error: ") and captured.err.count("\n") == 1
    assert "finite projective dimension" in captured.err


@pytest.mark.parametrize(
    "build, edits",
    [
        ("build_h", [(("certificates", "two_periodic"), DELETE)]),
        (
            "build_h",
            [(("certificates", "two_periodic"), DELETE), (("meta", "mf_normalized"), False)],
        ),
        ("build_h", [(("meta", "mf_normalized"), "yes")]),
        ("build_h", [(("meta", "mf_normalized"), 1)]),
        # a window that is not 2-periodic cannot claim normalization
        (
            "build_t",
            [
                (("meta", "mf_normalized"), True),
                (("certificates", "two_periodic"), {"passed": True}),
            ],
        ),
        ("build_t", [(("certificates", "two_periodic"), {"passed": False})]),
        # [0, 2] leaves is_two_periodic nothing to compare, and rung 41's
        # window there still does not normalize
        (
            "build_41_short",
            [
                (("meta", "mf_normalized"), True),
                (("certificates", "two_periodic"), {"passed": True}),
            ],
        ),
    ],
    ids=[
        "no_certificate",
        "no_certificate_flag_false",
        "flag_yes",
        "flag_one",
        "t_flag_true",
        "t_certificate",
        "41_short_flag_true",
    ],
)
def test_cli_verify_checks_mf_normalized_claim(tmp_path, capsys, request, build, edits):
    doc = json.loads(dump_output(request.getfixturevalue(build)))
    for path, value in edits:
        _set(doc, path, value)
    assert _verify_exit_code(tmp_path, doc) == 3
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines() if "FAIL" in line] == [
        ["document", "FAIL"]
    ]


@pytest.fixture(scope="module")
def build_41_short(inst_41):
    """Rung 41 built on window [0, 2]."""
    return run_build(ProblemInstance.from_doc({**inst_41.instance.to_doc(), "window": [0, 2]}))


def test_cli_verify_repeated_malformed_entry(tmp_path, capsys, build_t):
    # entries are parsed once per distinct string; the first "x^" still raises
    doc = json.loads(dump_output(build_t))
    columns = doc["tate"]["diffs"][sorted(doc["tate"]["diffs"])[0]]
    columns[0][0] = columns[-1][-1] = "x^"
    assert sum(s == "x^" for col in columns for s in col) == 2
    assert _verify_exit_code(tmp_path, doc) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_verify_rejects_extra_betti_position(tmp_path, capsys, build_c):
    doc = json.loads(dump_output(build_c))
    doc["betti"]["99"] = {"0": 1}
    assert _verify_exit_code(tmp_path, doc) == 3
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines() if "FAIL" in line] == [
        ["betti_table", "FAIL"]
    ]
    assert "position 99" in out


@pytest.mark.parametrize("rung", ["52", "41", "h"])
def test_cli_build_window_starting_at_zero(tmp_path, capsys, request, rung):
    # H_0 of the upper half is read below its truncated end, not at it; h
    # normalizes on [0, 2], where is_two_periodic has no pair d_i, d_{i+2} to
    # compare, so no build carries two_periodic there and verify takes none
    doc = {**request.getfixturevalue(f"inst_{rung}").instance.to_doc(), "window": [0, 2]}
    ipath, opath = tmp_path / "instance.json", tmp_path / "out.json"
    ipath.write_text(json.dumps(doc))
    assert cli_module.main(["build", str(ipath), "-o", str(opath)]) == 0
    assert cli_module.main(["verify", str(opath)]) == 0
    assert capsys.readouterr().err == ""
    out = json.loads(opath.read_text())
    assert out["mcm"]["generator_count"] == out["mcm"]["formula_count"]
    assert out["meta"]["mf_normalized"] is (rung == "h")
    assert "two_periodic" not in out["certificates"]
    out["certificates"]["two_periodic"] = {"passed": True}
    assert _verify_exit_code(tmp_path, out) == 3
    report = capsys.readouterr().out
    assert [line.split()[:2] for line in report.splitlines() if "FAIL" in line] == [
        ["document", "FAIL"]
    ]


@pytest.mark.parametrize("verb", ["build", "verify", "betti", "mcm"])
@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{\x00}\x00", b"[" * 100000 + b"]" * 100000],
    ids=["utf16_bom", "deep_nesting"],
)
def test_cli_unreadable_file(tmp_path, capsys, verb, content):
    # not UTF-8 text (UnicodeDecodeError), and nested past the recursion
    # limit (RecursionError)
    path = tmp_path / "file.json"
    path.write_bytes(content)
    assert cli_module.main([verb, str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert captured.err.count("\n") == 1


def _error_types(cls):
    """cls and every subclass of it, depth first."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_types(sub)


# exit code and stderr prefix of a failure raised by the pipeline, by type;
# a new error type fails the contract test until it is listed here
_INVALID = (2, "validation error: ")
_CERTIFICATE = (3, "certificate failure: ")
_PARSE = (4, "parse error: ")
EXIT_CONTRACT = {
    "ValueError": _INVALID,
    "TateSpliceError": _CERTIFICATE,
    "InvalidInstanceError": _INVALID,
    "PolynomialSyntaxError": _PARSE,
    "UnknownVariableError": _PARSE,
    "NegativeExponentError": _PARSE,
    "ContextMismatchError": _CERTIFICATE,
    "InhomogeneousInputError": _INVALID,
    "NotInIdealError": _INVALID,
    "DegreeMismatchError": _CERTIFICATE,
    "NotAComplexError": _CERTIFICATE,
    "NotChainMapError": _CERTIFICATE,
    "WindowEdgeError": _CERTIFICATE,
    "NoSolutionError": _CERTIFICATE,
    "LiftIdentityError": _INVALID,
    "ContainmentError": _INVALID,
    "NotRegularError": _INVALID,
    "AcyclicityError": _CERTIFICATE,
    "H0IsoError": _CERTIFICATE,
    "WindowTooSmallError": _CERTIFICATE,
    "LiftError": _CERTIFICATE,
    "DocumentError": (4, "error: "),
    "SelfCheckError": _CERTIFICATE,
}


@pytest.mark.parametrize(
    "error", [ValueError, *_error_types(TateSpliceError)], ids=lambda cls: cls.__name__
)
def test_cli_build_exit_code_of_every_error_type(tmp_path, capsys, monkeypatch, inst_t, error):
    def failing(instance):
        # BaseException.__new__ sets the message without the subclass's
        # own constructor arguments
        raise error.__new__(error, "injected")

    monkeypatch.setattr(cli_module, "run_build", failing)
    code, prefix = EXIT_CONTRACT[error.__name__]
    assert _build_exit_code(tmp_path, inst_t.instance.to_doc()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}injected\n"


def test_cli_memory_error_exits_with_one_line(tmp_path, capsys, monkeypatch, inst_t):
    def exhausted(instance):
        raise MemoryError

    monkeypatch.setattr(cli_module, "run_build", exhausted)
    assert _build_exit_code(tmp_path, inst_t.instance.to_doc()) == EXIT_MEMORY == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("out of memory: ") and captured.err.count("\n") == 1


_VARIABLES = ("x", "y", "z")

# field-level corruptions of an instance document
_CORRUPTIONS = [
    ("field_char", 6),
    ("field_char", 2**61 - 1),
    ("variables", ["x", "x"]),
    ("f", []),
    ("f", ["x^"]),
    ("g", ["w"]),
    ("g", ["x^-1"]),
    ("g", ["x^2 + y"]),
    ("A", [["x"]]),
    ("window", [1]),
    ("window", [0, 1]),
    ("max_internal_degree", "4"),
    ("extra", 1),
]


@st.composite
def _fuzzed_instances(draw):
    """Instance documents in 2 or 3 variables over F_7 or F_32003: f and g of
    monomials and binomials of degree <= 3, g mostly in (f), a window inside
    [-3, 4], dmax <= 6, and sometimes one corrupted field."""
    p = draw(st.sampled_from([7, 32003]))
    variables = _VARIABLES[: draw(st.integers(2, 3))]

    def form(d):
        monomials = ["*".join(m) or "1" for m in combinations_with_replacement(variables, d)]
        terms = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=2, unique=True))
        return " + ".join(f"{draw(st.integers(1, p - 1))}*{m}" for m in terms)

    f_degrees = [draw(st.integers(1, 2)) for _ in range(draw(st.integers(1, len(variables))))]
    f = [form(d) for d in f_degrees]
    g = []
    for _ in range(draw(st.integers(1, len(f)))):
        # hypothesis draws 3 first: d = 2 = deg f_i makes g_j a constant
        # times f_i, which often leaves M free over R and the window empty
        d = 3 - draw(st.integers(0, 1))
        if draw(st.booleans()):
            g.append(form(d))
        else:  # in (f): a sum of multiples of some f_i
            used = draw(st.sets(st.integers(0, len(f) - 1), min_size=1))
            g.append(" + ".join(f"({form(d - f_degrees[i])})*({f[i]})" for i in sorted(used)))
    lo = draw(st.integers(-3, 0))
    doc = {
        "field_char": p,
        "variables": list(variables),
        "f": f,
        "g": g,
        "window": [lo, draw(st.integers(max(1, lo + 2), 4))],
        "max_internal_degree": draw(st.integers(0, 6)),
    }
    corruption = draw(st.none() | st.sampled_from(_CORRUPTIONS))
    if corruption is not None:
        doc[corruption[0]] = corruption[1]
    return doc


@given(_fuzzed_instances())
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_cli_fuzzed_instances_exit_with_documented_codes(tmp_path, capsys, doc):
    ipath, opath = tmp_path / "instance.json", tmp_path / "out.json"
    ipath.write_text(json.dumps(doc))
    code = cli_module.main(["build", str(ipath), "-o", str(opath)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
        assert cli_module.main(["verify", str(opath)]) == 0, capsys.readouterr().out
        _assert_oracle_acyclic(json.loads(opath.read_text()))


ORACLE_MAX_CELLS = 4000


def _assert_oracle_acyclic(doc):
    """The dense oracle finds no homology at up to two (i, d) that the
    acyclicity certificate covers, drawn with a fixed seed from those whose
    pieces into and out of position i have at most ORACLE_MAX_CELLS cells."""
    cert = doc["certificates"]["acyclicity"]
    C = freecomplex.complex_from_doc(doc["tate"])
    candidates = []
    for i in range(cert["window"][0], cert["window"][1] + 1):
        for d in range(cert["degrees"][0], cert["degrees"][1] + 1):
            below, here, above = (C.term(j).degree_dim(d) for j in (i - 1, i, i + 1))
            if here and max(below, above) * here <= ORACLE_MAX_CELLS:
                candidates.append((i, d))
    for i, d in random.Random(0).sample(candidates, min(2, len(candidates))):
        assert oracle_homology(C, i, d) == 0, (i, d)


def _edit_path(data, doc):
    """A key path into `doc`, drawn one level at a time: any key (or list
    index) at any depth, stopping at a leaf or by choice."""
    path, node = [], doc
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        path.append(key)
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            return path, child
        node = child


@given(data=st.data())
@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_cli_fuzzed_documents_exit_with_documented_codes(tmp_path, capsys, build_t, build_h, data):
    builds = {"t": build_t, "h": build_h}
    doc = json.loads(dump_output(builds[data.draw(st.sampled_from(sorted(builds)))]))
    path, old = _edit_path(data, doc)
    _set(doc, path, data.draw(st.sampled_from([v for v in (DELETE, None, [], {}) if v != old])))
    code = _verify_exit_code(tmp_path, doc)
    err = capsys.readouterr().err
    assert code in (0, 3, 4)
    if code == 4:
        assert err.count("\n") == 1 and err.endswith("\n")
    if code == 0:
        # only what verify does not recompute may change
        assert path[0] == "provenance" or path[:3] == ["certificates", "h0_iso", "table"], path
