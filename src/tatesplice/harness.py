"""Problem-instance ingestion, end-to-end pipelines, and brute-force oracles.

Instances are strict JSON (unknown fields rejected). Outputs are serialized
with sorted keys so repeated builds of the same instance are byte-identical.
The homology oracle here shares no matrix code with the graded_piece path:
it enumerates bases, reduces products by plain division, assembles dense
integer grids, and row-reduces them with plain Python loops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .arith import PrimeField, VariableContext, monomial_divides, parse_polynomial
from .errors import (
    ContainmentError,
    DocumentError,
    NotInIdealError,
    NotRegularError,
    SelfCheckError,
    TateSpliceError,
    WindowTooSmallError,
)
from .freecomplex import BaseRing, certify, complex_from_doc, complex_to_doc
from .groebner import _regular_basis, divide_tracking
from .koszul import LiftMatrix
from .shamash import MAX_LENGTH, es_resolution
from .tate import (
    is_two_periodic,
    mcm_generator_count,
    mcm_presentation,
    minimize,
    normalize_matrix_factorization,
    tate_splice,
    TateResolution,
    _acyclicity_certificate,
)

FORMAT = "tatesplice/1"

_INSTANCE_FIELDS = {
    "field_char",
    "variables",
    "f",
    "g",
    "A",
    "window",
    "max_internal_degree",
}
_REQUIRED_FIELDS = _INSTANCE_FIELDS - {"A"}


def _is_string_list(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _resolution_length(window, m):
    """Resolution length a build over `window` needs, m = len(f) - len(g):
    the splice reads H_0 off the cone at positions -1 and 0, so F*[m] must
    reach below position 0 even when the window does not."""
    lo, hi = window
    return max(hi, m - 1 - min(lo, -1)) + 1


@dataclass
class ProblemInstance:
    """One build request: base field, variables, the two regular sequences,
    an optional explicit lift matrix, the window, and the degree bound."""

    field_char: int
    variables: list
    f: list
    g: list
    window: tuple
    max_internal_degree: int
    A: list = None

    @classmethod
    def from_doc(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError(
                f"instance document must be a JSON object, got {type(doc).__name__}"
            )
        keys = set(doc)
        unknown = keys - _INSTANCE_FIELDS
        if unknown:
            raise ValueError(f"unknown instance fields: {sorted(unknown)}")
        missing = _REQUIRED_FIELDS - keys
        if missing:
            raise ValueError(f"missing instance fields: {sorted(missing)}")
        p = doc["field_char"]
        if type(p) is not int:
            raise ValueError(f"field_char must be an integer, got {p!r}")
        for name in ("variables", "f", "g"):
            if not _is_string_list(doc[name]):
                raise ValueError(f"{name} must be a list of strings, got {doc[name]!r}")
        A = doc.get("A")
        if A is not None and not (
            isinstance(A, list) and all(_is_string_list(row) for row in A)
        ):
            raise ValueError(f"A must be a list of lists of strings, got {A!r}")
        window = doc["window"]
        if not (
            isinstance(window, (list, tuple))
            and len(window) == 2
            and all(type(v) is int for v in window)
        ):
            raise ValueError(f"window must be two integers [lo, hi], got {window!r}")
        if window[1] - window[0] < 2:
            raise ValueError(
                f"window {list(window)} has no interior position: need hi - lo >= 2"
            )
        if not window[0] <= 0 < window[1]:
            # the MCM presentation is the differential from position 1 to 0
            raise ValueError(f"window {list(window)} must contain positions 0 and 1")
        length = _resolution_length(window, len(doc["f"]) - len(doc["g"]))
        if length > MAX_LENGTH:
            raise ValueError(
                f"window {list(window)} needs a resolution of length {length}, "
                f"above the limit of {MAX_LENGTH}"
            )
        dmax = doc["max_internal_degree"]
        if type(dmax) is not int:
            raise ValueError(f"max_internal_degree must be an integer, got {dmax!r}")
        if dmax < 0:
            # S/(f) is generated in degree 0, so a smaller bound never sees H_0
            raise ValueError(f"max_internal_degree must be at least 0, got {dmax}")
        return cls(
            field_char=p,
            variables=list(doc["variables"]),
            f=list(doc["f"]),
            g=list(doc["g"]),
            A=A,
            window=tuple(window),
            max_internal_degree=dmax,
        )

    def to_doc(self):
        doc = {
            "field_char": self.field_char,
            "variables": list(self.variables),
            "f": list(self.f),
            "g": list(self.g),
            "window": list(self.window),
            "max_internal_degree": self.max_internal_degree,
        }
        if self.A is not None:
            doc["A"] = [list(row) for row in self.A]
        return doc


class InstanceData:
    """Parsed and validated instance: rings, sequences, and the lift matrix."""

    def __init__(self, instance):
        self.instance = instance
        self.field = PrimeField(instance.field_char)
        self.ctx = VariableContext(instance.variables)
        self.f = [parse_polynomial(s, self.ctx, self.field) for s in instance.f]
        self.g = [parse_polynomial(s, self.ctx, self.field) for s in instance.g]
        # one Buchberger run per sequence certifies regularity and gives the
        # basis; f is checked before g
        self.gb_J = _checked_basis(self.f, "f")
        self.gb_I = _checked_basis(self.g, "g")
        if self.gb_J is None or self.gb_I is None:
            raise ValueError("empty generating set")
        self.ring_S = BaseRing(self.ctx, self.field)
        self.ring_R = BaseRing(self.ctx, self.field, self.gb_I)
        self.ring_M = BaseRing(self.ctx, self.field, self.gb_J)
        if instance.A is not None:
            A = [
                [parse_polynomial(s, self.ctx, self.field) for s in row]
                for row in instance.A
            ]
            self.lift = LiftMatrix(A, self.f, self.g)
        else:
            try:
                self.lift = LiftMatrix.from_lift(self.f, self.g, self.gb_J)
            except NotInIdealError as exc:
                raise ContainmentError(f"NotInIdeal: {exc}") from exc


def _checked_basis(seq, name):
    """Gröbner basis of (seq) for a regular sequence, None for an empty one;
    raises NotRegularError otherwise."""
    if not seq:
        return None
    gb = _regular_basis(seq)
    if gb is None:
        raise NotRegularError(f"{name} is not a regular sequence")
    return gb


def run_build(instance):
    """Full pipeline: parse, validate, resolve, splice, minimize, extract.

    Returns the output document (deterministic content); serialize with
    `dump_output` for byte-identical files.
    """
    data = InstanceData(instance)
    lo, hi = instance.window
    length = _resolution_length(instance.window, len(data.f) - len(data.g))
    resolution = es_resolution(data.lift, data.ring_R, length)
    tate = tate_splice(
        resolution,
        window=(lo, hi),
        dmax=instance.max_internal_degree,
    )
    minimized, provenance = minimize(
        tate.complex, splice=tate.splice, labels=tate.provenance
    )
    normalized = False
    if len(data.g) == 1:
        # exact g*identity products need the terms to pair up across the
        # window; possible iff the whole window is already periodic
        try:
            minimized = normalize_matrix_factorization(
                minimized, data.g[0], data.ring_S
            )
            normalized = True
        except ValueError:
            pass
    final = TateResolution(
        minimized, tate.splice, provenance, tate.certificates, tate.meta
    )
    final.meta["mf_normalized"] = normalized
    rows, degrees = certify(minimized, instance.max_internal_degree)
    for name, passed, detail in rows[:2]:
        if not passed:
            raise SelfCheckError(f"{name}: {detail}")
    final.certificates["acyclicity"] = _acyclicity_certificate(minimized.window, degrees)
    final.certificates["minimal_after_reduction"] = {"passed": rows[2][1]}
    if normalized:
        final.certificates["two_periodic"] = {"passed": is_two_periodic(minimized)}
    doc = {
        "format": FORMAT,
        "instance": instance.to_doc(),
        "tate": complex_to_doc(final.complex),
        "splice": final.splice,
        "meta": final.meta,
        "betti": _betti_section(final),
        "provenance": {str(i): v for i, v in final.provenance.items()},
        "certificates": final.certificates,
        "mcm": _mcm_section(final, len(data.f), len(data.g)),
    }
    return doc


def _betti_section(tate):
    """The `betti` section of an output document: position -> {twist: count}
    of `tate`, keys as strings."""
    return {
        str(i): {str(t): n for t, n in counts.items()}
        for i, counts in tate.betti().items()
    }


def _mcm_section(tate, n, c):
    """The `mcm` section of an output document: the 1 -> 0 differential of
    `tate` and its source, and the closed-form count for n = len(f),
    c = len(g)."""
    pres = mcm_presentation(tate)
    return {
        "generator_count": pres.generator_count,
        "twists": list(pres.twists),
        "matrix": [[str(e) for e in row] for row in pres.matrix.entries],
        "minimal": pres.minimal,
        "formula_count": mcm_generator_count(n, c),
    }


def dump_output(doc):
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def run_verify(doc, dmax=None):
    """Recompute d^2 = 0, interior acyclicity, minimality and the Betti table
    from the `tate` complex of a persisted document, and check that the rest
    of the document agrees with it (the `document` row): the `mcm` section,
    the windows, and certificates that recompute or must have passed.
    Returns (ok, rows) with one (check, passed, detail) per row. Raises
    DocumentError when `tate`, `meta` or `betti` is missing or malformed."""
    if doc.get("format") != FORMAT:
        return False, [("format", False, f"unknown format {doc.get('format')!r}")]
    missing = [key for key in ("tate", "meta", "betti") if key not in doc]
    if missing:
        raise DocumentError(f"document is missing {', '.join(missing)}")
    try:
        complex_ = complex_from_doc(doc["tate"], validate=False)
        if dmax is None:
            dmax = doc["meta"]["dmax"]
        betti = doc["betti"]
        if type(dmax) is not int or not isinstance(betti, dict):
            raise TypeError("meta.dmax must be an integer and betti an object")
    except (AttributeError, KeyError, TypeError, ValueError, TateSpliceError) as exc:
        raise DocumentError(f"malformed document: {type(exc).__name__}: {exc}") from exc

    rows, degrees = certify(complex_, dmax)
    minimal_ok = rows[2][1]

    expected = _betti_section(TateResolution(complex_, 0, None, {}, {}))
    positions = list(expected) + [i for i in betti if i not in expected]
    differs = next((i for i in positions if betti.get(i) != expected.get(i)), None)
    rows.append(
        (
            "betti_table",
            differs is None,
            "matches recomputation" if differs is None else f"mismatch at position {differs}",
        )
    )

    # the swept degrees depend on dmax, so they are only comparable to the
    # certificate's under the document's own bound
    if dmax != _claim(doc, "meta", "dmax"):
        degrees = None
    mismatch = _document_mismatch(doc, complex_, minimal_ok, degrees)
    rows.append(("document", mismatch is None, mismatch or "agrees with tate"))
    return all(passed for _, passed, _ in rows), rows


_ABSENT = object()


def _claim(doc, *path):
    """doc[path[0]][path[1]]...; _ABSENT when a key is missing or a section
    on the way is not an object."""
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return _ABSENT
        doc = doc[key]
    return doc


def _document_mismatch(doc, complex_, minimal, degrees):
    """The first claim of `doc` that its `tate` complex contradicts, or
    None. `minimal` is whether the complex has no unit entry; `degrees` are
    the acyclicity sweep's, or None when they are not to be compared."""
    f, g = _claim(doc, "instance", "f"), _claim(doc, "instance", "g")
    if not (isinstance(f, list) and isinstance(g, list)):
        return "instance.f and instance.g must be lists"
    try:
        mcm = _mcm_section(TateResolution(complex_, 0, None, {}, {}), len(f), len(g))
    except (ValueError, WindowTooSmallError) as exc:
        return f"mcm cannot be recomputed: {exc}"
    window = [complex_.lo, complex_.hi]
    expected = {("mcm", key): value for key, value in mcm.items()}
    expected[("meta", "window")] = window
    expected[("instance", "window")] = window
    if degrees is None:
        expected[("certificates", "acyclicity", "window")] = [window[0] + 1, window[1] - 1]
    else:
        expected[("certificates", "acyclicity")] = _acyclicity_certificate(window, degrees)
    expected[("certificates", "minimal_after_reduction")] = {"passed": minimal}
    recomputed = ["chain_map", "acyclicity", "h0_iso", "minimal_after_reduction"]
    if _claim(doc, "certificates", "two_periodic") is not _ABSENT:
        expected[("certificates", "two_periodic")] = {
            "passed": is_two_periodic(complex_)
        }
        recomputed.append("two_periodic")
    for name in recomputed:
        expected[("certificates", name, "passed")] = True
    for path, value in expected.items():
        if _claim(doc, *path) != value:
            return f"{'.'.join(path)} disagrees with the tate complex"
    return None


def report_text(rows):
    width = max(len(name) for name, _, _ in rows)
    lines = []
    for name, passed, detail in rows:
        status = "PASS" if passed else "FAIL"
        lines.append(f"{name.ljust(width)}  {status}  {detail}")
    return "\n".join(lines) + "\n"


def render_section(doc, key, render):
    """render(doc[key]) for an output document; raises DocumentError when
    the section is missing or `render` cannot read it."""
    if not isinstance(doc, dict) or key not in doc:
        raise DocumentError(f"document is missing {key}")
    try:
        return render(doc[key])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DocumentError(f"malformed {key}: {type(exc).__name__}: {exc}") from exc


def mcm_text(mcm):
    """Generator count, twists, minimality, closed-form count and the
    presentation matrix of an `mcm` section."""
    lines = [
        f"generators: {mcm['generator_count']}",
        f"twists:     {mcm['twists']}",
        f"minimal:    {mcm['minimal']}",
        f"formula:    {mcm['formula_count']}",
        "presentation matrix:",
    ]
    lines += ["  [" + ", ".join(row) + "]" for row in mcm["matrix"]]
    return "\n".join(lines) + "\n"


def betti_text(betti):
    """Aligned Betti table: rows are generator degrees, columns positions."""
    positions = sorted(int(i) for i in betti)
    degrees = sorted(
        {-int(t) for i in betti for t in betti[i]}
    )
    if not degrees:
        return "(empty)\n"
    header = ["deg\\i"] + [str(i) for i in positions]
    rows = [header]
    for d in degrees:
        row = [str(d)]
        for i in positions:
            n = betti[str(i)].get(str(-d), 0)
            row.append(str(n) if n else ".")
        rows.append(row)
    totals = ["total"] + [
        str(sum(betti[str(i)].values())) for i in positions
    ]
    rows.append(totals)
    widths = [max(len(r[k]) for r in rows) for k in range(len(header))]
    lines = [
        "  ".join(cell.rjust(widths[k]) for k, cell in enumerate(row)) for row in rows
    ]
    return "\n".join(lines) + "\n"


# --- the independent dense oracle -------------------------------------------


def _oracle_monomials(nvars, d):
    """All exponent tuples of total degree d (plain recursive enumeration)."""
    if nvars == 1:
        return [(d,)]
    out = []
    for e in range(d + 1):
        for rest in _oracle_monomials(nvars - 1, d - e):
            out.append((e,) + rest)
    return out


def _oracle_basis(ring, d):
    """Degree-d monomial basis; over a quotient, keep monomials not divisible
    by any lead monomial of the defining Groebner basis."""
    if d < 0:
        return []
    monos = _oracle_monomials(ring.ctx.nvars, d)
    if ring.modulus is None:
        return monos
    leads = ring.modulus.lead_monomials()
    return [m for m in monos if not any(monomial_divides(l, m) for l in leads)]


def _oracle_matrix(matrix, d):
    """Dense integer grid of the degree-d piece, assembled naively."""
    ring = matrix.source.ring
    col_labels = []
    for k, a in enumerate(matrix.source.twists):
        for mono in _oracle_basis(ring, d + a):
            col_labels.append((k, mono))
    row_labels = []
    row_index = {}
    for k, a in enumerate(matrix.target.twists):
        for mono in _oracle_basis(ring, d + a):
            row_index[(k, mono)] = len(row_labels)
            row_labels.append((k, mono))
    grid = [[0] * len(col_labels) for _ in row_labels]
    for c, (k, mono) in enumerate(col_labels):
        for r_gen, e in matrix.columns[k].items():
            prod = e.term_mul(mono)
            if ring.modulus is not None:  # plain division, not graded_piece's rows
                prod = divide_tracking(prod, ring.modulus.generators)[1]
            for pm, coeff in prod.terms.items():
                grid[row_index[(r_gen, pm)]][c] += coeff
    return grid, len(row_labels), len(col_labels)


def _oracle_rank(grid, p):
    """Plain Gaussian elimination on lists of lists."""
    grid = [[v % p for v in row] for row in grid]
    if not grid or not grid[0]:
        return 0
    nrows, ncols = len(grid), len(grid[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if grid[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inv = pow(grid[rank][col], -1, p)
        grid[rank] = [(v * inv) % p for v in grid[rank]]
        for r in range(nrows):
            if r != rank and grid[r][col]:
                factor = grid[r][col]
                grid[r] = [
                    (a - factor * b) % p for a, b in zip(grid[r], grid[rank])
                ]
        rank += 1
        if rank == nrows:
            break
    return rank


def oracle_homology(complex_, i, d):
    """dim H_i in internal degree d, by the dense naive route; differentials
    missing from the window are taken to be zero maps."""
    if isinstance(complex_, dict):
        complex_ = complex_from_doc(
            complex_["tate"] if "tate" in complex_ else complex_, validate=False
        )
    p = complex_.ring.field.p
    dim_here = sum(len(_oracle_basis(complex_.ring, d + a)) for a in complex_.term(i).twists)
    rank_out = 0
    if complex_.lo < i <= complex_.hi and complex_.term(i - 1).rank:
        grid, _, _ = _oracle_matrix(complex_.diff(i), d)
        rank_out = _oracle_rank(grid, p)
    rank_in = 0
    if complex_.lo < i + 1 <= complex_.hi and complex_.term(i + 1).rank:
        grid, _, _ = _oracle_matrix(complex_.diff(i + 1), d)
        rank_in = _oracle_rank(grid, p)
    return dim_here - rank_out - rank_in
