"""Machine-speed calibration.

Shared machines change speed by tens of percent over minutes, which hides
the differences the benchmark exists to show.  A fixed pure-Python loop,
with the same kind of work as the engine (tuples, dicts, strings) and no
engine code, is timed before every op.  An op's time is
scaled by REFERENCE_S over the loop's time, so every reported time is in
seconds at the reference speed: the loop's median time on 2 vCPUs with
Python 3.11.  The raw times stay in each run's detail file.
"""
import statistics
from time import perf_counter

REFERENCE_S = 0.0098


def _work():
    # a working set of a few MB, like the engine's tables, so the loop slows
    # down with cache and memory contention as the engine does
    rows = [(i, "t%d" % i, (i, i + 1)) for i in range(12000)]
    table = {tok: key for key, tok, _ in rows}
    return sum(len(tok) for tok in table if table[tok] % 7 == 3)


def calibrate():
    """Seconds the calibration loop takes now."""
    started = perf_counter()
    _work()
    return perf_counter() - started


def factor(*samples):
    """Scale from this machine's speed, as the median of calibration
    samples shows it, to the reference speed."""
    return REFERENCE_S / statistics.median(samples)
