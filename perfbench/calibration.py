"""A fixed pure-Python workload that measures how fast the host runs now.

On a shared host the same code runs up to twice as slowly in busy
stretches as in quiet ones, for seconds at a time.  The benchmark runs
this loop right before and after each timed section and reports the
section's time times ``REFERENCE_MS / calibration beside it``: the time
the section takes on a host where this loop takes ``REFERENCE_MS``.
The loop never calls the package, so no change to the package moves it.
"""

import time

# The loop's time on a quiet 2-core x86-64 VM under CPython 3.11.
REFERENCE_MS = 2.0

_TEXTS = [f"Word{i}, with-punct {i * 7 % 13}" for i in range(200)]


def calibration_ms() -> float:
    """Wall time of the fixed string-and-dict workload, in milliseconds."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    for _ in range(8):
        for text in _TEXTS:
            key = "".join(ch for ch in text.upper() if ch.isalpha())
            table[key] = table.get(key, 0) + len(text.split())
    return (time.perf_counter() - start) * 1000
