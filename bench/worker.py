"""Runs one workload in this process and prints its measurements as one JSON
line. `run.py` starts it in a fresh interpreter per workload run.

    python3 bench/worker.py --workload ladder --seed 1 --seconds 40 --trace 0

With --trace 0 it repeats the workload (build then verify of every instance)
for about --seconds and reports the time of every pass, scaled to a
reference host speed (`hostspeed.py`). With --trace 1 it
makes one untraced pass and one traced pass, and reports the per-layer
metrics of the traced pass. The slow parts of the correctness gate (the
dense oracle, a second build) run after the passes, so the passes fill the
measuring time.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# the package under test is this checkout's src/, ahead of any installed copy
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from hostspeed import HostClock  # noqa: E402
import workloads  # noqa: E402
from tatesplice import harness  # noqa: E402


class WorkloadRun:
    """The instances of one workload, the passes made over them, and the
    operations that failed."""

    def __init__(self, workload, seed, reference):
        self.instances = workloads.instances(workload, seed)
        self.verify_rounds = workloads.VERIFY_ROUNDS[workload]
        self.peak_rss_mb = None
        self.rng = random.Random(seed)
        self.reference = reference
        self.attempted = 0
        self.problems = []  # (operation number, label, "build" or "verify", problem)
        self.first = {}  # label -> (text, operation number) of the first build
        self.builds = {}  # label -> builds checked
        self.clock = HostClock()

    def one_pass(self, instances=None):
        """Build each instance, then verify it `verify_rounds` times; returns
        build_s and the verify_s of each round, both scaled by the clock's
        host-speed factor; the factor; and the outputs, which `check`
        inspects outside the timed region."""
        clock = self.clock
        build_s = 0.0
        verify_s = [0.0] * self.verify_rounds
        outputs = []
        start = clock.mark()
        for label, doc in instances or self.instances:
            self.attempted += 1
            build_op = self.attempted
            t0 = clock.mark()
            try:
                text = harness.dump_output(harness.run_build(harness.ProblemInstance.from_doc(doc)))
            except Exception as exc:  # a failed operation is counted, not fatal
                self.problems.append((build_op, label, "build", f"{type(exc).__name__}: {exc}"))
                continue
            build_s += clock.elapsed(t0)
            verdicts = []
            for r in range(self.verify_rounds):
                self.attempted += 1
                t1 = clock.mark()
                try:
                    verdict = harness.run_verify(json.loads(text))
                except Exception as exc:
                    verdict = exc
                verify_s[r] += clock.elapsed(t1)
                verdicts.append((self.attempted, verdict))
            outputs.append((label, text, build_op, verdicts))
        factor = clock.factor(start)
        return build_s * factor, [v * factor for v in verify_s], factor, outputs

    def check(self, outputs):
        for label, text, build_op, verdicts in outputs:
            for op, verdict in verdicts:
                if isinstance(verdict, Exception):
                    problems = [f"{type(verdict).__name__}: {verdict}"]
                else:
                    problems = checks.verify_problems(*verdict)
                self.problems.extend((op, label, "verify", p) for p in problems)
            problems = checks.document_problems(json.loads(text))
            if label not in self.first:
                self.first[label] = (text, build_op)
            elif text != self.first[label][0]:
                problems.append("two builds gave different bytes")
            self.builds[label] = self.builds.get(label, 0) + 1
            self.problems.extend((build_op, label, "build", p) for p in problems)

    def check_oracle(self):
        """The dense oracle on a seeded sample of each instance's first build."""
        for label, (text, build_op) in self.first.items():
            problems = checks.oracle_problems(json.loads(text), self.rng)
            self.problems.extend((build_op, label, "build", p) for p in problems)

    def check_determinism(self):
        """An instance built once is built again, untimed, unless its bytes
        already equal the reference build's."""
        for label, doc in self.instances:
            if self.builds.get(label) == 1 and checks.sha256(self.first[label][0]) != self.reference.get(label):
                *_, outputs = self.one_pass([(label, doc)])
                self.check(outputs)

    def note_peak_rss(self):
        """Peak RSS so far, kept from the first call only: later passes can
        raise it by fragmenting the heap, and their number varies."""
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def report(self):
        return {
            "attempted": self.attempted,
            "failed": len({op for op, *_ in self.problems}),
            "problems": [" ".join(str(x) for x in p[1:]) for p in self.problems],
            "sha256": {
                label: [checks.sha256(text), self.reference.get(label)]
                for label, (text, _) in self.first.items()
            },
            "peak_rss_mb": self.peak_rss_mb,
        }


def timed(run, seconds):
    """Passes while the time left of `seconds` is at least half the median
    pass so far, so the run ends at the pass boundary nearest to `seconds`;
    at least one."""
    build, verify, factors, lengths = [], [], [], []
    wall = {"build_s": [], "verify_s": []}  # before scaling
    run.clock.start()
    try:
        start = perf_counter()
        while True:
            t0 = perf_counter()
            build_s, verify_s, factor, outputs = run.one_pass()
            run.note_peak_rss()
            run.check(outputs)
            t1 = perf_counter()
            build.append(build_s)
            verify.extend(verify_s)
            factors.append(factor)
            wall["build_s"].append(build_s / factor)
            wall["verify_s"].extend(v / factor for v in verify_s)
            lengths.append(t1 - t0)
            if seconds - (t1 - start) < statistics.median(lengths) / 2:
                break
    finally:
        run.clock.stop()
    return {
        "build_s": build, "verify_s": verify, "wall": wall, "host_factor": factors,
    }


def traced(run, workload, seed):
    # per-layer figures cover one build and one verify of each instance
    run.verify_rounds = 1
    untraced_build_s, _, _, outputs = run.one_pass()
    run.check(outputs)
    tracer = tracing.Tracer(f"{workload}-s{seed}")
    tracer.install()
    try:
        traced_build_s, _, _, outputs = run.one_pass()
    finally:
        tracer.uninstall()
    run.check(outputs)
    run.check_oracle()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-s{seed}.json")
    metrics = tracing.layer_metrics(tracer, untraced_build_s, traced_build_s)
    return {"layers": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    reference = json.loads((BENCH / "reference.json").read_text())["sha256"]
    run = WorkloadRun(args.workload, args.seed, reference)
    if args.trace:
        out = traced(run, args.workload, args.seed)
    else:
        out = timed(run, args.seconds)
        run.check_oracle()
        run.check_determinism()
    out.update(run.report())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
