"""The per-value stdlib draws that `tcpsbench.transport._Draws` replaced,
kept as its oracle.

`_Draws` draws a stream's values in bulk; these loops call the generator
once per value, as `Jitter.draws` and the drop stream did. Both must give
the same values, bit for bit.
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
