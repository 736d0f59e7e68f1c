"""Count the lines of src/ that a build and a verify never run.

    python3 tools/reach.py

Runs `run_build`, then `run_verify` on the written document, for the five
ladder rungs and generic seed 1 of bench/workloads.py and for `UNIT_LIFT`,
under `python -m trace --count --missing` with its cover files in a
temporary directory, and prints the unrun lines (marked `>>>>>>` by trace)
per module of the package, their total, and the line count of src/ as
`wc -l` gives it. `cli` is not imported, so its lines are not among the
unrun ones.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# g1 = x1^2 + x2^2 lifts through the squares with unit entries in A, so
# minimization cancels generators (`minimize`'s unit path)
UNIT_LIFT = (
    "unit-lift",
    {
        "field_char": 32003,
        "variables": ["x1", "x2", "x3", "x4", "x5"],
        "f": ["x1^2", "x2^2", "x3^2", "x4^2", "x5^2"],
        "g": ["x1^2 + x2^2", "x3^3"],
        "window": [-2, 3],
        "max_internal_degree": 6,
    },
)


def _workloads():
    """bench/workloads.py loaded as a module, without bench/ on the path."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_pipelines():
    """Build and verify every instance; raise if a verify fails."""
    from tatesplice.harness import ProblemInstance, dump_output, run_build, run_verify

    workloads = _workloads()
    docs = workloads.instances("ladder", 1) + workloads.instances("generic", 1) + [UNIT_LIFT]
    for label, doc in docs:
        out = dump_output(run_build(ProblemInstance.from_doc(doc)))
        ok, _ = run_verify(json.loads(out))
        if not ok:
            raise SystemExit(f"{label}: verify failed")


def unrun_lines(coverdir):
    """{module: unrun line count} from the package's .cover files."""
    counts = {}
    for path in sorted(Path(coverdir).glob("tatesplice.*.cover")):
        lines = path.read_text().splitlines()
        counts[path.stem] = sum(line.startswith(">>>>>>") for line in lines)
    return counts


def src_lines():
    """Lines of every .py file under src/, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src").rglob("*.py"))


def main():
    if sys.argv[1:] == ["--run"]:
        run_pipelines()
        return 0
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as coverdir:
        subprocess.run(
            [
                sys.executable, "-m", "trace", "--count", "--missing",
                f"--coverdir={coverdir}", f"--ignore-dir={sys.base_prefix}",
                f"--ignore-dir={sys.prefix}", __file__, "--run",
            ],
            env=env,
            check=True,
        )
        counts = unrun_lines(coverdir)
    for module, n in counts.items():
        print(f"{module:<24} {n:>5}")
    print(f"{'total':<24} {sum(counts.values()):>5}")
    print(f"{'src/ lines':<24} {src_lines():>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
