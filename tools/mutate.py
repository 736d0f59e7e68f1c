"""Run the checked-in mutants of src/ and check that the tests kill them.

    python3 tools/mutate.py             # every mutant
    python3 tools/mutate.py NAME ...    # only the named ones

Each mutant is one textual edit of one module of the package: the tool
copies src/ to a temporary directory, replaces the mutant's `old` text, which
must occur there exactly once, by `new`, and runs the mutant's test subset
with pytest against the copy. The mutant is killed when a test fails. A
declared survivor carries the reason no test kills it, and is expected to
survive. Before the mutants, the union of their subsets runs once on the
unedited copy, which must pass, so that a failure means the edit. Prints one
line per mutant and exits 1 unless every mutant ends as declared.

Run it in any change that edits arith, groebner, linalg or freecomplex, and
report its table; a new kernel gets its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, module, old text, new text, test subset, reason it survives or None)
MUTANTS = [
    (
        "chain_map_sign",
        "freecomplex.py",
        "str(-e if i % 2 else e)",
        "str(e)",
        ["tests/test_freecomplex.py", "-k", "chain_map"],
        None,
    ),
    (
        "numerator_comparison_dropped",
        "groebner.py",
        "if numerator is not None and self.hilbert_numerator() == numerator:",
        "if numerator is not None:",
        ["tests/test_groebner.py"],
        None,
    ),
    (
        "representation_identity_dropped",
        "groebner.py",
        "if not _minus_products(g, zip(rep, self.originals)).is_zero():",
        "if False:",
        ["tests/test_groebner.py"],
        None,
    ),
    (
        "skip_at_d_minus_1",
        "groebner.py",
        "hilbert_dim_from_leads(leads, n, d) == _series_coefficient(numerator, n, d)",
        "hilbert_dim_from_leads(leads, n, d - 1) == _series_coefficient(numerator, n, d - 1)",
        ["tests/test_groebner.py"],
        None,
    ),
    (
        "skip_at_d_plus_1",
        "groebner.py",
        "hilbert_dim_from_leads(leads, n, d) == _series_coefficient(numerator, n, d)",
        "hilbert_dim_from_leads(leads, n, d + 1) == _series_coefficient(numerator, n, d + 1)",
        ["tests/test_groebner.py"],
        "no input is known where it changes a basis: the 400 seeded sequences of "
        "test_groebner and 3,000 more random ones (degrees up to 4) agree",
    ),
    (
        "product_rows_unsorted",
        "freecomplex.py",
        "reduce(col[r]))) for r in sorted(col))",
        "reduce(col[r]))) for r in col)",
        ["tests/test_harness.py", "-k", "derived_matrices_pass"],
        None,
    ),
    (
        "scale_keeps_zeros",
        "freecomplex.py",
        "{r: e.scale(s) for r, e in col.items()} if s else {} for col",
        "{r: e.scale(s) for r, e in col.items()} for col",
        ["tests/test_freecomplex.py", "-k", "scale"],
        None,
    ),
    (
        "cone_d_term_off_by_one",
        "harness.py",
        "F.get(i, 0) + F.get(m - 1 - i, 0)",
        "F.get(i, 0) + F.get(m - i, 0)",
        ["tests/test_harness.py", "-k", "cone_ranks"],
        None,
    ),
    (
        "guard_bit_dropped",
        "arith.py",
        "return ((b | GUARD) - a) & GUARD == GUARD",
        "return (b - a) & GUARD == GUARD",
        ["tests/test_arith.py"],
        None,
    ),
    (
        "grevlex_mask_off_by_one_field",
        "arith.py",
        "LOW = (1 << SHIFT) - 1",
        "LOW = (1 << (SHIFT - WIDTH)) - 1",
        ["tests/test_arith.py"],
        None,
    ),
    (
        "degree_check_removed",
        "arith.py",
        "if a and b and (max(a) + max(b)) >> SHIFT > MAX_DEGREE:",
        "if False:",
        ["tests/test_arith.py"],
        None,
    ),
]


def run_tests(src, subset, workdir):
    """True when the subset passes against the package under `src`. pytest
    runs in `workdir`, so hypothesis keeps its examples there, and the
    config's `pythonpath` is overridden so that `src` is the package read."""
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        f"--rootdir={ROOT}", "-c", str(ROOT / "pyproject.toml"), "-o", f"pythonpath={src}",
        *(str(ROOT / a) if a.startswith("tests/") else a for a in subset),
    ]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)
    return done.returncode == 0


def copy_src(tmp):
    """A fresh copy of src/ under tmp."""
    src = Path(tmp) / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def mutated_copy(tmp, module, old, new):
    """src/ copied under tmp with the one edit applied; ValueError unless
    `old` occurs exactly once in the module."""
    src = copy_src(tmp)
    path = src / "tatesplice" / module
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{module}: the text to edit occurs {text.count(old)} times")
    path.write_text(text.replace(old, new))
    return src


def main(names):
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        baseline = []
        for *_, subset, _ in chosen:
            baseline += [a for a in subset if a.startswith("tests/") and a not in baseline]
        if not run_tests(copy_src(tmp), baseline, tmp):
            print("the unedited copy fails its tests: no mutant can be judged", file=sys.stderr)
            return 1
        for name, module, old, new, subset, reason in chosen:
            start = time.perf_counter()
            try:
                killed = not run_tests(mutated_copy(tmp, module, old, new), subset, tmp)
            except ValueError as exc:
                print(f"{name:<34} NOT APPLIED  {exc}")
                ok = False
                continue
            if killed:
                verdict = "killed" if reason is None else "KILLED, though declared a survivor"
            else:
                verdict = f"survived, declared: {reason}" if reason else "SURVIVED"
            ok &= killed == (reason is None)
            print(f"{name:<34} {verdict}  ({time.perf_counter() - start:.1f} s)", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
