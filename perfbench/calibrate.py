"""A fixed piece of interpreter work that measures how fast the machine runs right now.

On a small shared host the speed of the same Python code drifts by up to
two times, over seconds and over minutes, and each core drifts on its own.
So the worker runs a short fixed slice of work every PERIOD_S while a check
runs (Sampler), in the same process and so on the same core, and leaves
the slices' time out of the check's. run.py then scales the run's check
and set-up times by REFERENCE_S over the mean slice time of the run: the
result is the time at the speed where a slice takes REFERENCE_S. A change
to hyperbmc does not change the slices, so it moves the scaled time as
much as the raw one; a slower machine slows both, and the ratio holds.

A slice resembles the checker's inner loop: it hash-conses a small arena of
AND/OR gates and runs memoised cofactor traversals over it. It uses no
hyperbmc code, keeps nothing between slices and runs with the cyclic
collector off, so the heap the check builds cannot change its cost.
"""

import gc
import signal
import time

REFERENCE_S = 0.03  # about a slice's median time on a 2-core x86 VM
PERIOD_S = 0.25  # so the slices take about a tenth of a check's time
VARS = 16
GATES = 400
ROUNDS = 24


def _arena():
    kinds, kids, masks, intern = [0] * VARS, [(v,) for v in range(VARS)], [1 << v for v in range(VARS)], {}
    x = 12345
    for _ in range(GATES):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = x % len(kinds), (x >> 8) % len(kinds)
        key = (1 + (x >> 20) % 2, min(a, b), max(a, b))
        if a != b and key not in intern:
            intern[key] = len(kinds)
            kinds.append(key[0])
            kids.append(key[1:])
            masks.append(masks[a] | masks[b])
    return kinds, kids, masks, intern


def _cofactors(arena, root, var):
    kinds, kids, masks, intern = arena
    made = dict(intern)  # hash-conses the cofactors' new gates, like Circuit._mk
    bit = 1 << var
    memo = {}
    stack = [root]
    while stack:
        n = stack[-1]
        if n in memo or not masks[n] & bit:
            memo.setdefault(n, (n, n))
            stack.pop()
            continue
        if kinds[n] == 0:
            memo[n] = (-1, -2)
            stack.pop()
            continue
        todo = [c for c in kids[n] if c not in memo]
        if todo:
            stack.extend(todo)
            continue
        pairs = [memo[c] for c in kids[n]]
        memo[n] = tuple(made.setdefault((kinds[n], *side), len(made)) for side in zip(*pairs))
        stack.pop()
    return memo[root]


def _slice():
    arena = _arena()
    top = len(arena[0]) - 1
    total = 0
    for _ in range(ROUNDS):
        for var in range(VARS):
            total += sum(_cofactors(arena, top, var))
    return total


def _timed_slice():
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _slice()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Runs a timed slice every PERIOD_S of wall time, from a SIGALRM handler."""

    def __init__(self):
        self.slices = []
        self._old = None

    def _on_alarm(self, signum, frame):
        self.slices.append(_timed_slice())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False


if __name__ == "__main__":
    print("slice times:", [round(_timed_slice(), 5) for _ in range(10)])
