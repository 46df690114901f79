"""The per-value stdlib draws that `tcpsbench.transport._Draws` replaced,
kept as its oracle.

`_Draws` draws a stream's values in bulk; these loops call the generator
once per value, as `Jitter.draws` and the drop stream did. Both must give
the same values, bit for bit. `tries` is the scalar pass of the 64-try
rule that `transport._draw_streams` took for a chunk with 64 negatives in
a row, kept as the oracle of the array rule that replaced it.
"""

from random import Random

from tcpsbench.transport import Jitter


def jitter_draws(jitter: Jitter, rng: Random, n: int) -> list[float]:
    """n successive draws; a truncated normal redraws negative values, up
    to 64 times, then gives 0."""
    if jitter.kind == "none":
        return [0.0] * n
    if jitter.kind == "uniform":
        return [rng.uniform(0.0, jitter.a) for _ in range(n)]
    if jitter.kind == "truncnorm":
        gauss, mu, sigma = rng.gauss, jitter.mu, jitter.sigma
        out = []
        for _ in range(n):
            for _ in range(64):
                v = gauss(mu, sigma)
                if v >= 0.0:
                    break
            else:
                v = 0.0
            out.append(v)
        return out
    raise ValueError(f"unknown jitter kind {jitter.kind!r}")


def drop_draws(rng: Random, n: int) -> list[float]:
    """n successive drop uniforms."""
    return [rng.random() for _ in range(n)]


def tries(v: list[float], k: int) -> list[float]:
    """Up to k truncated normal values from the tries v: the first
    non-negative one of each value's tries, or 0 after 64 negative ones."""
    vals, count = [], 0
    for x in v:
        count += 1
        if x >= 0.0 or count == 64:
            vals.append(x if x >= 0.0 else 0.0)
            count = 0
            if len(vals) == k:
                break
    return vals
