"""Benchmark workloads: each name maps a seed to a list of instance documents.

The documents are plain dicts in the instance-file format, so the program
receives only the generated input. `ladder` and `wall52` are fixed; the seed
changes only which (i, d) the correctness gate samples. `generic` draws its
coefficients from the seed.
"""

from __future__ import annotations

import random

P = 32003
X5 = ["x1", "x2", "x3", "x4", "x5"]


def _doc(variables, f, g, window, dmax):
    return {
        "field_char": P,
        "variables": list(variables),
        "f": list(f),
        "g": list(g),
        "window": list(window),
        "max_internal_degree": dmax,
    }


# The test-fixture rungs t, h, c, 41 and 52 (copied, not imported, so the
# benchmark does not move when a test fixture does).
LADDER = [
    ("t", _doc(["x", "y"], ["x", "y"], ["x^2", "y^2"], (-4, 5), 10)),
    ("h", _doc(["x", "y"], ["x", "y"], ["x^2 + y^2"], (-4, 5), 10)),
    ("c", _doc(["x", "y", "z"], ["x^2", "y^2", "z^2"], ["x^3", "y^3"], (-4, 6), 12)),
    ("41", _doc(X5[:4], [v + "^2" for v in X5[:4]], ["x1^3"], (-2, 3), 5)),
    ("52", _doc(X5, [v + "^2" for v in X5], ["x1^3", "x2^3"], (-1, 2), 4)),
]

# Rung 52 with a wider window and degree bound: the memory wall.
WALL52 = [("52w", _doc(X5, [v + "^2" for v in X5], ["x1^3", "x2^3"], (-2, 3), 6))]

GENERIC_DEGREES = (2, 2, 2, 3)


def _monomials(variables, d):
    """Monomial strings of degree d, in a fixed order."""
    if len(variables) == 1:
        return [f"{variables[0]}^{d}" if d > 1 else variables[0] if d else ""]
    out = []
    for e in range(d, -1, -1):
        head = f"{variables[0]}^{e}" if e > 1 else variables[0] if e else ""
        for rest in _monomials(variables[1:], d - e):
            out.append("*".join(s for s in (head, rest) if s))
    return out


def generic_doc(seed):
    """Four dense forms of degrees (2, 2, 2, 3) in x1..x5 with nonzero
    coefficients mod P drawn from `seed`; f = (x1..x5)."""
    rng = random.Random(seed)
    g = [
        " + ".join(f"{rng.randrange(1, P)}*{m}" for m in _monomials(X5, d))
        for d in GENERIC_DEGREES
    ]
    return _doc(X5, X5, g, (-1, 2), 4)


def instances(name, seed):
    """[(label, instance document)] for one workload."""
    if name == "ladder":
        return list(LADDER)
    if name == "wall52":
        return list(WALL52)
    if name == "generic":
        return [(f"generic-s{seed}", generic_doc(seed))]
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("ladder", "wall52", "generic")

# Verifications per build in a timed pass, so that a run spends about as long
# verifying as building and both timings average over as much of it.
VERIFY_ROUNDS = {"ladder": 4, "wall52": 2, "generic": 2}
