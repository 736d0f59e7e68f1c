"""Host speed, sampled while a workload runs, so that timings do not follow
the load other tenants put on a shared host.

On a shared host the same pure-Python code can run up to twice as slow for
seconds at a time, whatever the program does. `HostClock` times a fixed probe
every PERIOD seconds from a SIGALRM handler in the process that runs the
workload, so the probe meets the same CPU at the same moments as the
workload. The probe is a product of two sparse polynomials held as dicts of
exponent tuples, the kind of work the package does, written here so that no
change to the package changes it.

A timed interval is its wall time less the probe time inside it. A pass's
times are multiplied by REFERENCE_S over the mean probe time during the
pass: they are the seconds the pass would have taken on a host where the
probe takes REFERENCE_S. The mean, not the median, because the workload is
slowed in proportion to the share of the pass the host was slow for.
"""

# only `time` at module level: `run.py` imports this module ahead of the
# package in the interpreters whose start-up it times, and must not load
# anything the package would otherwise load itself
from time import perf_counter

PERIOD = 0.25
# a round figure near the mean probe time on the 2-CPU host the benchmark was
# tuned on, so that scaled times stay close to wall times there
REFERENCE_S = 0.007

_P = 32003


def _poly(seed, terms):
    """A fixed sparse polynomial in five variables of degree < 6 in each,
    from a linear congruential sequence."""
    out, x = {}, seed
    while len(out) < terms:
        digits = []
        for _ in range(6):
            x = (1103515245 * x + 12345) % 2**31
            digits.append(x >> 16)
        out[tuple(d % 6 for d in digits[:5])] = 1 + digits[5] % (_P - 1)
    return out


_A, _B = _poly(1, 60), _poly(2, 60)


def probe():
    """A fixed amount of dict-and-tuple arithmetic; returns its seconds."""
    start = perf_counter()
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % _P
    return perf_counter() - start


class HostClock:
    """Probe times while started. Unstarted, it measures plain wall time and
    its factor is 1."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = probe()
        self.samples.append(t)
        self.spent += t

    def start(self):
        import signal

        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """A point to measure from."""
        return perf_counter(), self.spent, len(self.samples)

    def elapsed(self, since):
        """Wall seconds since the mark, less the probe time inside them."""
        now, spent, _ = self.mark()
        return (now - since[0]) - (spent - since[1])

    def factor(self, since):
        """REFERENCE_S over the mean probe time since the mark; 1 when no
        probe ran."""
        got = self.samples[since[2]:]
        return REFERENCE_S * len(got) / sum(got) if got else 1.0
