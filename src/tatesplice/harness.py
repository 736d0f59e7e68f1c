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
from math import comb

from .arith import PrimeField, VariableContext, monomial_divides, parse_polynomial
from .errors import (
    ContainmentError,
    DocumentError,
    InvalidInstanceError,
    NotInIdealError,
    NotRegularError,
    PolynomialSyntaxError,
    SelfCheckError,
    TateSpliceError,
    WindowTooSmallError,
)
from .freecomplex import BaseRing, certify, complex_from_doc, complex_to_doc
from .groebner import _regular_basis, divide_tracking
from .koszul import LiftMatrix
from .shamash import MAX_LENGTH, es_resolution
from .tate import (
    betti,
    is_two_periodic,
    mcm_presentation,
    minimize,
    normalize_matrix_factorization,
    tate_splice,
    window_meta,
)

FORMAT = "tatesplice/2"

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

# The largest term rank a build's cone may have. x1..x12 with f = squares,
# g = (x1^3, x2^3), window [-2, 3] and dmax 13 reaches 8,192 and built in
# 6.9 s and 213 MB on a 2-CPU host; each further variable about doubles it.
MAX_CONE_RANK = 10_000


def _is_string_list(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _resolution_length(window, m):
    """Resolution length a build over `window` needs, m = len(f) - len(g):
    the splice reads H_0 off the cone at positions -1 and 0, so F*[m] must
    reach below position 0 even when the window does not."""
    lo, hi = window
    return max(hi, m - 1 - min(lo, -1)) + 1


def _cone_ranks(n, c, window):
    """{i: rank of term i} of the cone a build over `window` assembles, for
    n elements f and c elements g, m = n - c: F_i = (+)_k D_k(R^c) (x)
    Lambda^(i-2k) R^n has rank sum_k C(c+k-1, k) C(n, i-2k) up to the
    resolution's length, and the cone's term i is F_i (+) F_(m-1-i)."""
    m = n - c
    length = _resolution_length(window, m)
    F = {
        i: sum(comb(c + k - 1, k) * comb(n, i - 2 * k) for k in range(i // 2 + 1))
        for i in range(length + 1)
    }
    positions = range(min(0, m - 1 - length), max(length, m - 1) + 1)
    return {i: F.get(i, 0) + F.get(m - 1 - i, 0) for i in positions}


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
        if doc["f"] and doc["g"]:  # an empty sequence is refused when parsed
            ranks = _cone_ranks(len(doc["f"]), len(doc["g"]), window)
            i = max(ranks, key=ranks.get)
            if ranks[i] > MAX_CONE_RANK:
                raise ValueError(
                    f"window {list(window)} needs a cone whose term {i} has rank {ranks[i]}, "
                    f"above the limit of {MAX_CONE_RANK}"
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
    dmax = instance.max_internal_degree
    length = _resolution_length(instance.window, len(data.f) - len(data.g))
    resolution = es_resolution(data.lift, data.ring_R, length)
    tate = tate_splice(resolution, window=instance.window, dmax=dmax)
    minimized, provenance = minimize(tate.complex, labels=tate.provenance)
    # a minimal complete resolution with a zero term is zero
    if not any(minimized.term(i).rank for i in range(minimized.lo + 1, minimized.hi)):
        raise InvalidInstanceError(
            "S/(f) has finite projective dimension over R: its essential MCM approximation is zero"
        )
    normalized = False
    if len(data.g) == 1:
        minimized, normalized = _normalized(minimized, data.g[0])
    rows, sections = _derived_sections(
        instance, minimized, normalized, data.lift.f_degrees, data.lift.g_degrees
    )
    for name, passed, detail in rows[:2]:
        if not passed:
            raise SelfCheckError(f"{name}: {detail}")
    return {
        **sections,
        "provenance": {str(i): v for i, v in provenance.items()},
        "certificates": {**tate.certificates, **sections["certificates"]},
    }


def _normalized(window, g):
    """(window normalized as a matrix factorization of g, True), or (window, False)
    when `normalize_matrix_factorization` cannot normalize it."""
    ring_S = BaseRing(window.ring.ctx, window.ring.field)
    try:
        return normalize_matrix_factorization(window, g, ring_S), True
    except ValueError:
        return window, False


def _derived_sections(instance, complex_, normalized, f_degrees, g_degrees):
    """`certify`'s rows for an emitted window `complex_`, and every output
    section that it and the instance (with the degrees of f and g) determine:
    format, instance, tate, meta, betti, mcm, and the certificates
    acyclicity, minimal_after_reduction and, if `normalized` and the window
    has a pair d_i, d_{i+2} for `is_two_periodic` to compare (hi - lo >= 3),
    two_periodic."""
    dmax = instance.max_internal_degree
    rows, coverage = certify(complex_, dmax)
    lo, hi = complex_.window
    certificates = {
        "acyclicity": {"passed": True, "window": [lo + 1, hi - 1], **coverage},
        "minimal_after_reduction": {"passed": rows[2][1]},
    }
    if normalized and hi - lo >= 3:
        certificates["two_periodic"] = {"passed": is_two_periodic(complex_)}
    offset = sum(g_degrees) - sum(f_degrees)
    m = len(f_degrees) - len(g_degrees)
    return rows, {
        "format": FORMAT,
        "instance": {**instance.to_doc(), "window": [lo, hi]},
        "tate": complex_to_doc(complex_),
        "meta": window_meta("tate_splice", m, offset, [lo, hi], dmax, normalized),
        "betti": {str(i): {str(t): n for t, n in c.items()} for i, c in betti(complex_).items()},
        "certificates": certificates,
        "mcm": mcm_presentation(complex_, len(f_degrees), len(g_degrees)),
    }


def dump_output(doc):
    """The document as compact sorted-key JSON on one line, plus a newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def run_verify(doc):
    """Recompute d^2 = 0, interior acyclicity, minimality and the Betti table
    from the `tate` complex of a persisted document, and every section that it
    and the `instance` determine (`_derived_sections`, `tate` included); the
    `document` row names the first that differs. Of the splice's own
    certificates, chain_map and h0_iso must have passed and minimal must be a
    bool; provenance and the H_0 table are not compared. Returns (ok, rows), one
    (check, passed, detail) per row. Raises DocumentError when `doc` is not an
    object of the known `format`, or `tate`, `meta`, `betti` or `instance` is
    missing or malformed."""
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != FORMAT:
        raise DocumentError(f"unknown format {found!r}")
    missing = [key for key in ("tate", "meta", "betti") if key not in doc]
    if missing:
        raise DocumentError(f"document is missing {', '.join(missing)}")
    try:
        complex_ = complex_from_doc(doc["tate"], validate=False)
        if type(doc["meta"]["dmax"]) is not int or not isinstance(doc["betti"], dict):
            raise TypeError("meta.dmax must be an integer and betti an object")
        instance = ProblemInstance.from_doc(doc["instance"])
        degrees = _instance_degrees(instance)
    except (AttributeError, KeyError, TypeError, ValueError, TateSpliceError) as exc:
        raise DocumentError(f"malformed document: {type(exc).__name__}: {exc}") from exc

    # build's decision: a hypersurface window is normalized when it can be;
    # normalizing forces 2-periodicity, so only a periodic window is tried
    gens = complex_.ring.modulus.generators
    normalized = (
        len(instance.g) == 1
        and bool(gens)
        and is_two_periodic(complex_)
        and _normalized(complex_, gens[0])[1]
    )
    try:
        rows, sections = _derived_sections(instance, complex_, normalized, *degrees)
    except (ValueError, WindowTooSmallError) as exc:  # mcm: no positions 0 and 1, or c > n
        raise DocumentError(f"malformed document: {exc}") from exc

    differs = _first_difference(doc["betti"], sections.pop("betti"))
    detail = "matches recomputation" if differs is None else f"mismatch at position {differs}"
    rows.append(("betti_table", differs is None, detail))
    # provenance is not derived, and betti has its own row
    claimed = {k: v for k, v in doc.items() if k not in ("provenance", "betti")}
    sections["certificates"].update(_splice_certificates(doc.get("certificates")))
    differs = _first_difference(claimed, sections)
    detail = "agrees with tate" if differs is None else f"{differs} differs from its recomputation"
    rows.append(("document", differs is None, detail))
    return all(passed for _, passed, _ in rows), rows


def _instance_degrees(instance):
    """[degrees of f, degrees of g], parsed in the instance's variables and
    field with no Gröbner basis; ValueError unless f and g are nonempty
    sequences of nonzero forms, and a given A is a LiftMatrix over them."""
    field, ctx = PrimeField(instance.field_char), VariableContext(instance.variables)
    try:
        f, g = ([parse_polynomial(s, ctx, field) for s in seq] for seq in (instance.f, instance.g))
        A = instance.A and [[parse_polynomial(s, ctx, field) for s in row] for row in instance.A]
    except PolynomialSyntaxError as exc:
        raise ValueError(f"f, g and A must parse in variables {instance.variables}: {exc}") from exc
    if not (f and g and all(p.is_homogeneous() and not p.is_zero() for p in f + g)):
        raise ValueError("f and g must be nonempty sequences of nonzero forms")
    if A is not None:
        LiftMatrix(A, f, g)  # raises unless A is n x c of the right degrees with g = A f
    return [[p.total_degree() for p in seq] for seq in (f, g)]


def _splice_certificates(claimed):
    """The splice's own certificates as a document must state them: chain_map
    and h0_iso passed, minimal a bool, and the H_0 table as `claimed`."""
    claimed = claimed if isinstance(claimed, dict) else {}
    h0_iso, minimal = claimed.get("h0_iso"), claimed.get("minimal")
    table = {"table": h0_iso["table"]} if isinstance(h0_iso, dict) and "table" in h0_iso else {}
    passed = minimal.get("passed") if isinstance(minimal, dict) else None
    return {
        "chain_map": {"passed": True},
        "h0_iso": {"passed": True, **table},
        "minimal": {"passed": passed if type(passed) is bool else True},
    }


def _first_difference(claimed, expected):
    """The first key, `expected`'s first, whose values in the two objects
    differ as canonical JSON (sorted keys, so true and 1 differ; a missing key
    differs from any value), or None."""

    def canonical(section, key):
        return json.dumps(section[key], sort_keys=True) if key in section else None

    keys = [*expected, *(key for key in claimed if key not in expected)]
    return next((k for k in keys if canonical(claimed, k) != canonical(expected, k)), None)


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
    presentation matrix of an `mcm` section, drawn row by row with its zeros."""
    lines = [
        f"generators: {mcm['generator_count']}",
        f"twists:     {mcm['twists']}",
        f"minimal:    {mcm['minimal']}",
        f"formula:    {mcm['formula_count']}",
        "presentation matrix:",
    ]
    columns = [dict(zip(rows, entries)) for rows, entries in zip(mcm["rows"], mcm["matrix"])]
    for r in range(len(mcm["twists"])):
        lines.append("  [" + ", ".join(col.get(r, "0") for col in columns) + "]")
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
    """Degree-d monomial basis: the monomials divisible by no lead monomial
    of the ring's modulus, every monomial over S."""
    if d < 0:
        return []
    monos = _oracle_monomials(ring.ctx.nvars, d)
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
            # plain division, not graded_piece's rows
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
