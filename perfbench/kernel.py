"""Scalar-kernel microbenchmark over two operand pools.

``small`` holds the coefficients the gl(n) factory workloads run on (0,
+-1, +-1/2, +-sqrt2/2, +-i*sqrt2/2); ``dense`` holds coefficient texts taken
from the run's generated dense_files pairs.  Operands are made with the
program's own parser before timing, so the pools stay valid across changes
to the scalar representation.
"""

from __future__ import annotations

import re
import statistics
import time

SMALL = ("0", "1", "-1", "1/2", "-1/2", "1/2*sqrt2", "-1/2*sqrt2", "1/2*i*sqrt2", "-1/2*i*sqrt2")
DENSE_SIZE = 24
REPEATS = 5
# About this many operations per timed sample, in whole sweeps of the pool
# (at least one); one sample of the slowest operation then takes tens of
# milliseconds on a 2-core x86-64 VM.
SAMPLE_OPS = 400

_COEFF = re.compile(r"\(([^()]*)\)\*")


def dense_texts(pairs, size: int = DENSE_SIZE) -> list[str]:
    """Coefficient texts from the densest generated pairs, largest first."""
    texts = []
    for pair in sorted(pairs, key=lambda p: -p.max_bits):
        for text in (pair.plus_text, pair.minus_text):
            texts.extend(_COEFF.findall(text))
    unique = sorted(set(texts), key=lambda t: (-len(t), t))
    return unique[:size]


def _per_op_ns(fn, args, repeats: int) -> float:
    """Median over `repeats` samples of the time per call, in ns."""
    rounds = max(1, SAMPLE_OPS // len(args))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(rounds):
            for arg in args:
                fn(arg)
        samples.append((time.perf_counter_ns() - start) / (rounds * len(args)))
    return statistics.median(samples)


def run(scalar_parse, dense: list[str], repeats: int = REPEATS) -> dict[str, float]:
    """``scalars.<op>_ns.<pool>`` metrics, nanoseconds per operation."""
    pools = {
        "small": [scalar_parse(t) for t in SMALL],
        "dense": [scalar_parse(t) for t in dense],
    }
    out = {}
    for pool_name, pool in pools.items():
        pairs = [(x, y) for x in pool for y in pool]
        out[f"scalars.mul_ns.{pool_name}"] = _per_op_ns(lambda xy: xy[0] * xy[1], pairs, repeats)
        out[f"scalars.add_ns.{pool_name}"] = _per_op_ns(lambda xy: xy[0] + xy[1], pairs, repeats)
    nonzero = [x for x in pools["dense"] if x]
    out["scalars.inverse_ns.dense"] = _per_op_ns(lambda x: x.inverse(), nonzero, repeats)
    out["scalars.str_ns.dense"] = _per_op_ns(str, pools["dense"], repeats)
    out["scalars.parse_ns.dense"] = _per_op_ns(scalar_parse, dense, repeats)
    return out
