"""Time and tracemalloc peak of `sim.normalize_power` at several block lengths.

    python3 bench/scaling.py [n ...]      (default: 250 500 1000 2000)

Prints one line per n: raw and reference-normalized seconds (median of three
calls, against the "arrays" reference), and the tracemalloc peak of one more
call.  Both grow as n^2 today, because every symbol is expanded over all
6 + 3n message and noise coordinates.  This is not part of the timed
benchmark: it records the growth that the genie-block workload samples at
n = 1000.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc

import run  # sets the single-thread environment and finds triway under src/

run._import_triway()

import reference  # noqa: E402
from triway import model, sim  # noqa: E402


def main(sizes: list[int]) -> None:
    cfg, _ = model.make_config(1.5, 1.0, 0.5, 10.0)
    ref = reference.Reference("arrays")
    print("n      raw_s     norm_s    peak_mb")
    for n in sizes:
        encoders = sim.random_encoders(cfg, n_taps=2, seed=0)
        raw, norm = [], []
        for _ in range(3):
            before = ref.sample_ms()
            t = time.perf_counter()
            sim.normalize_power(encoders, cfg, n)
            dt = time.perf_counter() - t
            ref_ms = 0.5 * (before + ref.sample_ms())
            raw.append(dt)
            norm.append(dt * ref.nominal_ms / ref_ms)
        tracemalloc.start()
        sim.normalize_power(encoders, cfg, n)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{n:<6d} {statistics.median(raw):<9.3f} {statistics.median(norm):<9.3f} {peak / 1e6:.1f}")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or [250, 500, 1000, 2000])
