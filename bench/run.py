"""The tatesplice benchmark: workload runs, each in a fresh child process.

    python3 bench/run.py --workload ladder --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout. For each workload it times the start-up of
fresh interpreters importing the package (setup_s), then runs the workload in
one fresh child process (`worker.py`), checks every output and prints each
metric by name with its unit. Times are scaled to a reference host speed
(`hostspeed.py`); the unscaled wall times are printed beside them. The last
line is one JSON object; for a single
workload it is {"correct", "attempted", "failed", "metrics"}, for `all` it
maps each workload to such an object. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the per-layer ones of a traced pass. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("ladder", "wall52", "generic")
SETUP_RUNS = 9
# a workload run must end within 180 s; keep a margin for start-up and reporting
RUN_LIMIT_S = 170

SETUP_PROBES = 20

# Times the host-speed probe, then imports the package; prints the time the
# import returned, the seconds spent before it on the probe, and the mean
# probe time.
_IMPORT = f"""
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hostspeed
probes = [hostspeed.probe() for _ in range({SETUP_PROBES})]
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import tatesplice
print(time.perf_counter(), t1 - t0, sum(probes) / len(probes))
"""


class RunFailed(Exception):
    pass


def setup_seconds(runs):
    """Seconds from starting a fresh interpreter to `import tatesplice`
    returning, less the probe run before the import, and scaled to the
    reference host speed by that probe; once per run. Returns the scaled and
    the unscaled times."""
    scaled, wall = [], []
    for _ in range(runs):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT, str(BENCH), str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        end, probing, probe_s = map(float, proc.stdout.split())
        wall.append(end - start - probing)
        scaled.append(wall[-1] * hostspeed.REFERENCE_S / probe_s)
    return scaled, wall


def percentile_note(n):
    """The highest percentile above the median with ten samples beyond it."""
    supported = [q for q in (90, 99) if n * (100 - q) / 100 >= 10]
    return f"p{supported[-1]}" if supported else "no percentile above the median"


def run_workload(workload, seed, seconds, trace):
    """Measure one workload run, print its metrics, and return the result
    object."""
    start = perf_counter()
    # half the set-up runs before the workload and half after, so the median
    # spans the run; the first (which may write bytecode) is not counted
    setup, setup_wall = [], []
    if not trace:
        setup, setup_wall = (s[1:] for s in setup_seconds(SETUP_RUNS // 2 + 1))
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_LIMIT_S - (perf_counter() - start),
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: run exceeded {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"{workload}: worker exited with {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not trace:
        more, more_wall = setup_seconds(SETUP_RUNS - len(setup))
        setup += more
        setup_wall += more_wall

    def show(line):
        print(f"{workload} {line}")

    for problem in report["problems"]:
        show(f"FAILED {problem}")
    for label, (sha, reference) in sorted(report["sha256"].items()):
        status = (
            "no reference" if reference is None
            else "matches reference" if sha == reference
            else "DIFFERS from reference"
        )
        show(f"sha256 {label} {sha} ({status})")
    show(f"fail_frac {report['failed'] / report['attempted']:.4f}"
         f" ({report['failed']} of {report['attempted']} operations)")

    if trace:
        metrics = report["layers"]
        for name, m in metrics.items():
            show(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = {}
        factors = report["host_factor"]
        show(f"host_factor mean {statistics.mean(factors):.4f},"
             f" from {min(factors):.4f} to {max(factors):.4f} over {len(factors)} passes")
        for name, samples in (("build_s", report["build_s"]),
                              ("verify_s", report["verify_s"]),
                              ("setup_s", setup)):
            value = statistics.median(samples)
            metrics[name] = {"value": value, "unit": "s"}
            show(f"{name} median {value:.4f} s, max {max(samples):.4f} s,"
                 f" n={len(samples)}; {percentile_note(len(samples))}")
            wall = dict(report["wall"], setup_s=setup_wall)[name]
            if wall != samples:
                show(f"{name} unscaled wall time median {statistics.median(wall):.4f} s,"
                     f" max {max(wall):.4f} s")
        metrics["peak_rss_mb"] = {"value": report["peak_rss_mb"], "unit": "MB"}
        show(f"peak_rss_mb {report['peak_rss_mb']:.1f} MB")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tatesplice" / "__init__.py").is_file():
        print(f"error: no tatesplice package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = {
                w: run_workload(w, args.seed, args.seconds, args.trace) for w in WORKLOADS
            }
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
