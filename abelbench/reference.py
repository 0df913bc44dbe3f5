"""Fixed host-speed reference task of the abelmap benchmark.

    python reference.py      # prints the task's own run time in seconds

On a shared host the speed of CPU-bound Python can drift by 20-30% over
minutes (measured on a 2-vCPU virtual machine with no steal time), and the
drift moves every sample of a workload alike.
run.py times this task in a fresh interpreter before and after each sample
and scales the sample's times by REF_NOMINAL_S over the task's time, so the
end-to-end times read as seconds on a host where this task takes
REF_NOMINAL_S.  REF_NOMINAL_S is the task's median on the host where the
baseline was recorded (2 vCPUs, Python 3.11), so there the scaled times stay
close to the program's real seconds.  The task mixes the kinds of pure-Python work abelmap does
(a subset scan building frozensets, integer row updates on tuples, a
minimum over permuted tuples) and uses no abelmap code, so a change to the
program never changes the reference.  Changing this file changes the unit
of every recorded time; do not edit it.
"""

from __future__ import annotations

import itertools
import time
from operator import itemgetter

REF_NOMINAL_S = 0.21


def subset_scan(n: int = 13) -> int:
    edges = [(i, (i + 1) % n) for i in range(n)] * 2
    best = 0
    for mask in range(1, (1 << n) - 1):
        z = frozenset(i for i in range(n) if mask >> i & 1)
        cut = frozenset(e for e, (a, b) in enumerate(edges) if (a in z) != (b in z))
        best = max(best, len(cut))
    return best


def row_updates(reps: int = 8000) -> int:
    basis = [tuple((i * j) % 7 - 3 for j in range(8)) for i in range(1, 8)]
    acc = 0
    for t in range(reps):
        residue = [(t * k) % 13 - 6 for k in range(8)]
        for col in basis:
            q = residue[0] // (col[0] or 1)
            residue = [r - q * c for r, c in zip(residue, col)]
        acc = (acc + sum(residue)) % 1000003
    return acc


def permuted_minimum(gamma: int = 6, reps: int = 200) -> tuple:
    slots = [(i, j) for i in range(gamma) for j in range(i, gamma)]
    index = {s: k for k, s in enumerate(slots)}
    getters = []
    for perm in itertools.permutations(range(gamma)):
        image = [0] * len(slots)
        for k, (i, j) in enumerate(slots):
            a, b = perm[i], perm[j]
            image[index[(a, b) if a <= b else (b, a)]] = k
        getters.append(itemgetter(*image))
    out = ()
    for r in range(reps):
        vec = tuple((k * (r + 1)) % 3 for k in range(len(slots)))
        out = min(g(vec) for g in getters)
    return out


def reference_task() -> tuple:
    return subset_scan(), row_updates(), permuted_minimum()


if __name__ == "__main__":
    t0 = time.perf_counter()
    reference_task()
    print(time.perf_counter() - t0)
