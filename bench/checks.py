"""Correctness gate for built documents, run outside the timed region.

Independent of the program's own reports where it can be: the MCM generator
count comes from the closed form summed from i = 0 (not from
`mcm_generator_count`, which prints the i >= 1 form), and sampled homology
comes from the dense oracle in `harness`, which shares no code with `linalg`.
"""

from __future__ import annotations

import hashlib
from math import comb

from tatesplice import freecomplex, harness

# Largest rows x cols the plain-Python oracle is asked to eliminate.
ORACLE_MAX_CELLS = 4000
ORACLE_SAMPLES = 3


def expected_mcm_count(n, c):
    """1 + sum_{i >= 0, 2i <= n-c-1} C(n, c+1+2i) * C(c-1+i, i)."""
    return 1 + sum(
        comb(n, c + 1 + 2 * i) * comb(c - 1 + i, i) for i in range((n - c - 1) // 2 + 1)
    )


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def document_problems(doc):
    """Certificates that did not pass, and a generator count that differs
    from the closed form."""
    problems = []
    certificates = doc.get("certificates") or {}
    if not certificates:
        problems.append("no certificates")
    for name, cert in sorted(certificates.items()):
        if cert.get("passed") is not True:
            problems.append(f"certificate {name} not passed")
    n, c = len(doc["instance"]["f"]), len(doc["instance"]["g"])
    want, got = expected_mcm_count(n, c), doc["mcm"]["generator_count"]
    if got != want:
        problems.append(f"MCM generator count {got}, closed form gives {want}")
    return problems


def verify_problems(ok, rows):
    failed = [f"verify {name}: {detail}" for name, passed, detail in rows if not passed]
    return failed or ([] if ok else ["verify not ok"])


def oracle_candidates(complex_, window, degrees):
    """Interior (i, d) with a nonzero term whose two adjacent graded pieces
    each have at most ORACLE_MAX_CELLS entries."""
    out = []
    for i in range(window[0], window[1] + 1):
        for d in range(degrees[0], degrees[1] + 1):
            dims = [complex_.term(j).degree_dim(d) for j in (i - 1, i, i + 1)]
            if dims[1] and max(dims[0] * dims[1], dims[1] * dims[2]) <= ORACLE_MAX_CELLS:
                out.append((i, d))
    return out


def oracle_problems(doc, rng):
    """Check zero homology with the dense oracle on a seeded sample of the
    (i, d) the acyclicity certificate covers."""
    cert = doc.get("certificates", {}).get("acyclicity")
    if not cert or "window" not in cert or "degrees" not in cert:
        return ["no acyclicity coverage to sample"]
    complex_ = freecomplex.complex_from_doc(doc["tate"], validate=False)
    candidates = oracle_candidates(complex_, cert["window"], cert["degrees"])
    if not candidates:
        return ["no interior piece small enough for the oracle"]
    problems = []
    for i, d in rng.sample(candidates, min(ORACLE_SAMPLES, len(candidates))):
        dim = harness.oracle_homology(complex_, i, d)
        if dim:
            problems.append(f"oracle: H_{i} has dimension {dim} in degree {d}")
    return problems
