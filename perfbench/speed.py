"""Timed segments, each scaled to a reference processor speed.

On a shared host the processor runs the same code at speeds up to about
twice apart, in phases from milliseconds to minutes long, so a time
measured in one run says as much about the host as about the program.
A ``SpeedClock`` therefore runs a fixed probe, pure Python that does not
touch rank3, about every ``PROBE_EVERY_S`` seconds between segments of
the timed work, outside them, and scales each segment by
``PROBE_REFERENCE_S / probe``, with the mean of the two probes around it.
A scaled time reads in seconds at the speed the probe had when it took
``PROBE_REFERENCE_S``: the fastest speed of the machine the benchmark was
tuned on (a 2-core shared virtual machine, 2.1 GHz, Python 3.11.7).

A change to rank3 cannot change the probe, so it moves a scaled time as
much as the raw one; only the host's share of the time is divided out.
"""

import time

clock = time.perf_counter
PROBE_REFERENCE_S = 0.00101
PROBE_EVERY_S = 0.1


def probe() -> float:
    """Seconds taken by a fixed mix of dict updates and big-integer shifts."""
    t0 = clock()
    table, acc, big = {}, 0, 7 ** 60
    for i in range(5000):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0) + i
        acc += (big >> (i & 31)) % 1009
    return clock() - t0


class SpeedClock:
    """Cut timed work into segments; calibrate between them now and then.

    The first segment starts when the clock is made.  ``cut`` ends the
    current segment and starts the next; ``over`` cuts each time an
    iterable hands out an item, and when it ends, so a library call that
    consumes it gets one segment per item.
    """

    def __init__(self):
        self.raw = []           # seconds per segment
        self.probes = []        # (number of segments before the probe, probe seconds)
        self._probe()
        self._start = clock()

    def _probe(self):
        self.probes.append((len(self.raw), probe()))
        self._last_probe = clock()

    def cut(self):
        now = clock()
        self.raw.append(now - self._start)
        if now - self._last_probe >= PROBE_EVERY_S:
            self._probe()
        self._start = clock()

    def over(self, items):
        for item in items:
            self.cut()
            yield item
        self.cut()

    def scaled(self) -> list:
        """Each segment at the reference speed.  Ends the timing with a last probe."""
        self._probe()
        out = []
        for (first, before), (end, after) in zip(self.probes, self.probes[1:]):
            factor = 2 * PROBE_REFERENCE_S / (before + after)
            out.extend(t * factor for t in self.raw[first:end])
        return out
