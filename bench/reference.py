"""The fixed reference computations every timing is scaled by.

The machines this benchmark runs on change speed from one second to the
next: other tenants share the cores, so the same loop takes 16 ms one moment
and 26 ms the next, and CPU time swings with wall time.  The ratio of an
operation's time to a reference computation timed right next to it moves
much less, provided the reference does the same kind of work.  A normalized
time is raw time * nominal_ms / reference time: the time the operation would
take on a machine where one reference sample takes nominal_ms.

There are two references, and each workload names the one that matches it:

- "interpreter": an interpreted float loop, object, dict and string work, and
  small numpy calls.  Interpreted code slows by the same factor as this.
- "arrays": a chain of 300 numpy vectors 3000 long, kept alive and then
  dropped, so the heap grows and pages fault, like triway's O(n^2) power
  expansion.  That work slows down less than interpreted code when the machine
  is loaded, so the interpreter reference would over-correct it.

Neither is part of triway, and neither may change, or figures from before
and after the change stop being comparable.
"""

from __future__ import annotations

import time

import numpy as np

_SMALL = np.arange(64, dtype=float)


class _Pair:
    __slots__ = ("value", "label")

    def __init__(self, value: float, label: str) -> None:
        self.value, self.label = value, label


def _interpreter() -> float:
    acc, x = 0.0, 0.5
    for i in range(8000):
        x = x * 0.999 + 0.001 * i
        acc += x * x
    table, cells = {}, []
    for i in range(800):
        p = _Pair(i * 0.5, str(i))
        table[p.label] = p.value
        cells.append(f"{p.value:.6f}")
    acc += len(",".join(cells)) + len(sorted(table.items(), key=lambda kv: -kv[1]))
    for _ in range(60):
        b = _SMALL * 1.5 + acc * 1e-12
        acc += float(b @ _SMALL) * 1e-9 + float(np.sqrt(b).sum()) * 1e-9
    history = []
    for i in range(20):
        v = np.zeros(3000)
        v[i] = 1.0
        for h in history[-2:]:
            v = v + 0.3 * h
        history.append(v * 0.5)
        acc += float(v @ v)
    return acc


def _arrays() -> float:
    acc, chain = 0.0, []
    for i in range(300):
        v = np.zeros(3000)
        v[i] = 1.0
        if chain:
            v = v + 0.3 * chain[-1]
        chain.append(v)
        acc += float(v @ v)
    return acc


_KINDS = {"interpreter": (_interpreter, 3.0), "arrays": (_arrays, 5.0)}


class Reference:
    """One of the two reference computations and its nominal sample time."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._run, self.nominal_ms = _KINDS[kind]

    def sample_ms(self) -> float:
        """One reference reading in milliseconds."""
        t = time.perf_counter()
        self._run()
        return (time.perf_counter() - t) * 1e3
