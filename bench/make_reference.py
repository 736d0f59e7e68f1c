"""Writes bench/reference.json: the sha256 of every workload's output
document from a plain `run_build`, and the line count of src/.

    python3 bench/make_reference.py

Generic instances are recorded for seeds 0..10. Run it again, and say why in
the change, when a change alters an output on purpose.
"""

from __future__ import annotations

import json
import sys

from worker import BENCH, ROOT, checks, harness, workloads

GENERIC_SEEDS = range(11)


def main():
    docs = workloads.LADDER + workloads.WALL52
    docs += [(f"generic-s{s}", workloads.generic_doc(s)) for s in GENERIC_SEEDS]
    sha = {}
    for label, doc in docs:
        text = harness.dump_output(harness.run_build(harness.ProblemInstance.from_doc(doc)))
        sha[label] = checks.sha256(text)
        print(label, sha[label], flush=True)
    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )
    out = {"src_lines": src_lines, "sha256": sha}
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
