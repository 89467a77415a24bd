"""A fixed reference kernel, timed beside every workload call.

On a shared host the speed of identical work drifts by up to 1.8x for
stretches of seconds to a minute.  Timing this kernel just before and just
after each call, and dividing the call time by it, cancels drift that lasts
longer than a call.  The kernel does the kind of work the package does:
an alternating projection of a 4-qubit state onto 2-body marginals (many
small einsum, kron and transpose calls plus a Hermitian eigensolve),
interpreted Python, and a small least-squares solve.  Streaming over arrays
larger than the cache is left out on purpose: it slowed by only 1.1-1.2x
in the slow stretches, against 1.5-1.7x for the workloads and 1.4-1.7x for
each part kept here.  Its inputs come from a fixed seed and it lives in the
benchmark, so no change to the package changes it.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

_N = 4
_PAIRS = ((0, 1), (1, 2), (2, 3), (0, 3))
_rng = np.random.default_rng(20110615)
_g = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_X0 = _g @ _g.conj().T / np.trace(_g @ _g.conj().T).real
_TARGET = np.eye(4, dtype=complex) / 4
_A = _rng.standard_normal((200, 40))
_b = _rng.standard_normal(200)
_KEYS = [(i % 7, i % 11) for i in range(3000)]


def _marginal(x: np.ndarray, pair) -> np.ndarray:
    row, col = list("abcd"), list("efgh")
    for i in range(_N):
        if i not in pair:
            col[i] = row[i]
    out = "".join(row[i] for i in pair) + "".join(col[i] for i in pair)
    spec = "".join(row) + "".join(col) + "->" + out
    return np.einsum(spec, x.reshape((2,) * 2 * _N)).reshape(4, 4)


def _embed(y: np.ndarray, pair) -> np.ndarray:
    z = np.kron(y, np.eye(4, dtype=complex)).reshape((2,) * 2 * _N)
    order = list(pair) + [i for i in range(_N) if i not in pair]
    inv = list(np.argsort(order))
    return z.transpose(inv + [_N + i for i in inv]).reshape(16, 16)


def _projection() -> float:
    x = _X0.copy()
    for _ in range(3):
        for pair in _PAIRS:
            x = x + _embed(_TARGET - _marginal(x, pair), pair) / 4
        w, v = np.linalg.eigh(x)
        x = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return float(x.real.trace())


def _interpreted() -> int:
    seen: dict[tuple[int, int], int] = {}
    for key in _KEYS:
        seen[key] = seen.get(key, 0) + key[0] * key[1]
    return sum(seen.values())


def _solve() -> float:
    sol, *_ = np.linalg.lstsq(_A, _b, rcond=1e-8)
    return float(sol[0])


def kernel() -> float:
    """Run the kernel once; return its value so no part can be skipped."""
    total = 0.0
    for _ in range(15):
        total += _projection() + _interpreted() + _solve()
    return total


def seconds() -> float:
    """Wall seconds of one kernel run."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
