"""Bulk random draws against the per-value stdlib loops.

`tcpsbench.transport._read` draws each seeded stream in bulk: drop
uniforms and uniform jitter from one getrandbits call, truncated-normal
jitter by Box-Muller in Random.gauss's operation order. `tests/draws_oracle.py`
keeps the loops that call the generator once per value; both must give the
same values bit for bit, whatever the sizes of the reads.
"""

import cmath
import contextlib
import glob
import math
import os
import shutil
import subprocess
from collections import Counter
from random import Random
from typing import Iterator

import numpy as np
import pytest

from draws_oracle import drop_draws, jitter_draws, tries
from test_skeleton import _record
from tcpsbench import transport
from tcpsbench.loopsim import LoopConfig, run_step_batch
from tcpsbench.transport import (
    FORWARD,
    ChannelModel,
    ChannelRows,
    Jitter,
    LinkParams,
    _read,
    shared_draws,
)

TRUNCNORMS = ((0.1, 0.3), (0.0, 1.0), (0.5, 0.01), (-1.0, 1.0), (1.0, 0.0), (-1.0, 0.0),
              (0.0, 0.0))


def _reads(rng: Random) -> list[int]:
    """Read sizes: odd ones split a Box-Muller pair between reads."""
    return [rng.choice((1, 2, 3, 5, 17, 64, 101)) for _ in range(rng.randint(1, 8))]


class _Stream:
    """One stream read in order through _read, as an impaired block's row
    reads it: its values kept in the open shared_draws() block, else here."""

    def __init__(self, seed: int, jitter: Jitter | None) -> None:
        self.seed, self.jitter, self.pos, self.streams = seed, jitter, 0, {}

    def take(self, n: int) -> np.ndarray:
        """The next n values."""
        out = _read(self.streams, [self.seed], np.zeros(1, dtype=np.intp), self.jitter,
                    np.array([self.pos]), n)[0]
        self.pos += n
        return out


def _taken(draws: _Stream, sizes: list[int]) -> list[float]:
    return [v for n in sizes for v in draws.take(n).tolist()]


def test_drop_uniforms_match_random():
    rng = Random(1)
    for seed in range(300):
        sizes = _reads(rng)
        assert _taken(_Stream(seed, None), sizes) == drop_draws(Random(seed), sum(sizes)), seed


def test_uniform_jitter_matches_random_uniform():
    rng = Random(2)
    for seed in range(300):
        jitter = Jitter.uniform(rng.choice((0.0, 1.0, 2.5, rng.uniform(0.0, 9.0))))
        sizes = _reads(rng)
        want = jitter_draws(jitter, Random(seed), sum(sizes))
        assert _taken(_Stream(seed, jitter), sizes) == want, seed


def test_truncnorm_jitter_matches_the_redraw_loop():
    """Reads of any size, odd ones included, continue the stdlib stream:
    gauss keeps the second normal of a pair for its next call, and the bulk
    draw keeps the normals past its last value for its next read."""
    rng = Random(3)
    for seed in range(400):
        jitter = Jitter.truncnorm(*TRUNCNORMS[seed % len(TRUNCNORMS)])
        sizes = _reads(rng)
        oracle = Random(seed)
        want = [v for n in sizes for v in jitter_draws(jitter, oracle, n)]
        assert _taken(_Stream(seed, jitter), sizes) == want, (seed, jitter, sizes)


def _count_cut_offs(monkeypatch) -> Counter:
    """Count the truncated-normal streams drawn with a value cut off to 0
    by the 64-try rule, and the chunks drawn again, with those whose chunk
    ends inside a run of negatives. A chunk is drawn again exactly when the
    scalar pass (draws_oracle.tries) over its normals falls short."""
    seen, drawing = Counter(), []
    draw_streams, uniforms = transport._draw_streams, transport._uniforms

    def counted_draws(seeds, jitter, size):
        drawing.append({"jitter": jitter, "size": size, "calls": 0, "short": 0})
        out = draw_streams(seeds, jitter, size)
        call = drawing.pop()
        assert call["short"] == max(0, call["calls"] - len(seeds)), call
        if jitter is not None and jitter.kind == "truncnorm" and jitter.sigma > 0.0:
            seen["streams cut off"] += sum(bool(np.any(v == 0.0)) for v in out)
        return out

    def counted_uniforms(rngs, n):
        u = uniforms(rngs, n)
        call = drawing[-1]
        call["calls"] += len(rngs)
        jitter, size = call["jitter"], call["size"]
        if jitter is not None and jitter.kind == "truncnorm":
            for v in (jitter.mu + transport._box_muller(u) * jitter.sigma).tolist():
                short = len(tries(v, size)) < size
                call["short"] += short
                seen["redrawn"] += short
                seen["run cut by the chunk end"] += short and v[-1] < 0.0
        return u

    monkeypatch.setattr(transport, "_draw_streams", counted_draws)
    monkeypatch.setattr(transport, "_uniforms", counted_uniforms)
    return seen


def test_truncnorm_far_below_zero_takes_the_64_try_rule(monkeypatch):
    """With mu far below zero most values are 0 after 64 negative tries.
    With the first chunk sized for one try per value, chunks end inside
    runs of negatives and are drawn again, longer; reads of odd sizes draw
    the stream again as it grows. The values still equal the loop's."""
    seen = _count_cut_offs(monkeypatch)
    monkeypatch.setattr(transport, "_tries_per_value", lambda mu, sigma: 1.0)
    rng = Random(4)
    zeros = 0
    for seed in range(30):
        jitter = Jitter.truncnorm(rng.choice((-2.0, -2.5, -9.0)), 1.0)
        draws, oracle = _Stream(seed, jitter), Random(seed)
        for n in _reads(rng):
            want = jitter_draws(jitter, oracle, n)
            assert draws.take(n).tolist() == want, (seed, n)
            zeros += want.count(0.0)
    assert zeros >= 100 and seen["run cut by the chunk end"] >= 20, (zeros, seen)


def test_shared_stream_extends_a_shorter_cached_array():
    """In a shared_draws block a stream that needs more than the cached
    values redraws from its seed, and the longer array replaces the cache."""
    jitter = Jitter.truncnorm(0.1, 0.3)
    want = jitter_draws(jitter, Random(9), 300)
    with shared_draws():
        assert _Stream(9, jitter).take(20).tolist() == want[:20]
        longer = _Stream(9, jitter)
        assert _taken(longer, [7, 250]) == want[:257]
        cached, held = _Stream(9, jitter), transport._SHARED_DRAWS.get()[jitter][9]
        assert cached.take(257).tolist() == want[:257]
        assert cached.streams == {} and transport._SHARED_DRAWS.get()[jitter][9] is held
        assert cached.take(43).tolist() == want[257:]


def test_nested_shared_draws_blocks_share_one_dict():
    """A shared_draws block opened inside an open one uses it: what the
    inner block draws stays kept when it closes, until the outer one does."""
    assert transport._SHARED_DRAWS.get() is None
    with shared_draws():
        outer = transport._SHARED_DRAWS.get()
        with shared_draws():
            assert transport._SHARED_DRAWS.get() is outer
            inner = _Stream(9, None)
            assert inner.take(5).tolist() == drop_draws(Random(9), 5)
        assert transport._SHARED_DRAWS.get() is outer and inner.streams == {}
        assert outer[None][9][:5].tolist() == drop_draws(Random(9), 5)
    assert transport._SHARED_DRAWS.get() is None


def test_streams_drawn_together_match_each_alone(monkeypatch):
    """_draw_streams draws many seeds' streams as one block. Every stream
    equals its loop's values, including those with values cut off to 0 by
    the 64-try rule or drawn again after a short chunk."""
    seen = _count_cut_offs(monkeypatch)
    rng = Random(8)
    for case in range(40):
        jitter = rng.choice((None, Jitter.uniform(rng.uniform(0.0, 3.0)),
                             Jitter.truncnorm(0.1, 0.3), Jitter.truncnorm(-2.0, 1.0),
                             Jitter.truncnorm(-2.5, 1.0), Jitter.truncnorm(0.0, 0.0)))
        seeds = rng.sample(range(10_000), rng.randint(1, 25))
        size = rng.choice((16, 100, 137))
        got = transport._draw_streams(seeds, jitter, size)
        for s, values in zip(seeds, got, strict=True):
            want = drop_draws(Random(s), size) if jitter is None else jitter_draws(
                jitter, Random(s), size)
            assert values.tolist() == want, (case, s)
    assert seen["streams cut off"] >= 10 and seen["run cut by the chunk end"] >= 1, seen


RUNS = (0, 63, 64, 65, 127, 128, 129)


def _planted(rng: Random, length: int) -> list[float]:
    """length tries of planted signs: runs of negatives, of a length in
    RUNS or of 0-3, each ended by a non-negative try, -0.0 (kept as it is)
    or a positive one."""
    v = []
    while len(v) < length:
        run = rng.choice(RUNS) if rng.random() < 0.5 else rng.randint(0, 3)
        v += [-rng.uniform(1e-9, 3.0) for _ in range(run)]
        v.append(rng.choice((-0.0, rng.uniform(1e-9, 3.0))))
    return v[:length]


def test_cut_off_rule_matches_the_scalar_pass_on_planted_tries(monkeypatch):
    """_draw_streams' array rule on planted tries (its generators and
    Box-Muller replaced, truncnorm(-0.0, 1.0) so each try passes through as
    it is) equals the scalar pass of the 64-try rule, signs of zeros
    included, with runs of every length in RUNS and chunks that end inside
    a run and are drawn again."""
    planted: dict[int, list[float]] = {}
    seen = Counter()

    def uniforms(seeds, n):
        for s in seeds:
            inside = planted[s][n - 1] < 0.0 and planted[s][n] < 0.0
            seen["ended inside a run" if inside else "ended outside a run"] += 1
        return np.array([planted[s][:n] for s in seeds])

    monkeypatch.setattr(transport, "Random", lambda seed: seed)
    monkeypatch.setattr(transport, "_uniforms", uniforms)
    monkeypatch.setattr(transport, "_box_muller", lambda u: u)
    monkeypatch.setattr(transport, "_tries_per_value", lambda mu, sigma: 1.0)
    rng, jitter = Random(12), Jitter.truncnorm(-0.0, 1.0)
    for case in range(80):
        size = rng.choice((1, 2, 5, 16, 40))
        seeds = [100 * case + k for k in range(rng.randint(1, 6))]
        for s in seeds:
            planted[s] = _planted(rng, 200 * size + 100)
        got = transport._draw_streams(seeds, jitter, size)
        for s, values in zip(seeds, got, strict=True):
            want = tries(planted[s], size)
            assert repr(values.tolist()) == repr(want), (case, s)
            seen["negative zeros"] += repr(want).count("-0.0")
            seen["cut-off zeros"] += sum(str(x) == "0.0" for x in want)
    assert seen["ended inside a run"] >= 20 and seen["ended outside a run"] >= 20, seen
    assert seen["negative zeros"] >= 20 and seen["cut-off zeros"] >= 100, seen


def test_batch_draws_each_stream_once(monkeypatch):
    """In a shared_draws block, a batch of impaired channels seeds each of
    its streams once, over batches at two loop times, and the runs equal
    those without."""
    seeded = Counter()

    class CountedRandom(transport.Random):
        def __init__(self, seed):
            seeded[seed] += 1
            super().__init__(seed)

    model = ChannelModel(forward=LinkParams(drop_prob=0.05, jitter=Jitter.truncnorm(0.1, 0.3)),
                         backward=LinkParams(drop_prob=0.05, jitter=Jitter.uniform(0.4)))
    seeds = [3, 8, 21, 40, 77]
    want = [run_step_batch(LoopConfig(delta_ms=d), ChannelRows([model.build(s) for s in seeds]))
            for d in (0.6, 1.4)]
    monkeypatch.setattr(transport, "Random", CountedRandom)
    with shared_draws():
        got = [run_step_batch(LoopConfig(delta_ms=d), ChannelRows([model.build(s) for s in seeds]))
               for d in (0.6, 1.4)]
    def exact(rec):
        c = rec.curve
        return repr(([v.tolist() for v in (c.t, c.x, c.y, c.signal)], rec.operator_trace,
                     rec.channel_stats))

    for a, b in zip(got, want):
        for i in range(len(seeds)):
            assert exact(a.record(i)) == exact(b.record(i))
    assert seeded == {4 * s + i: 1 for s in seeds for i in range(4)}


def test_a_batch_across_loop_times_seeds_each_stream_once(monkeypatch):
    """A batch that holds each seed at two loop times, as a wave of a curve
    search does, seeds each of its streams once, in or out of a
    shared_draws block, and its rows equal the batches at one loop time."""
    seeded = Counter()

    class CountedRandom(transport.Random):
        def __init__(self, seed):
            seeded[seed] += 1
            super().__init__(seed)

    model = ChannelModel(forward=LinkParams(drop_prob=0.05, jitter=Jitter.truncnorm(0.1, 0.3)),
                         backward=LinkParams(drop_prob=0.05, jitter=Jitter.uniform(0.4)))
    seeds, deltas = [3, 8, 21, 40, 77], (0.6, 1.4)
    want = [run_step_batch(LoopConfig(delta_ms=d),
                           ChannelRows([model.build(s) for s in seeds])).record(i)
            for d in deltas for i in range(len(seeds))]
    monkeypatch.setattr(transport, "Random", CountedRandom)
    for shared in (False, True):
        seeded.clear()
        with shared_draws() if shared else contextlib.nullcontext():
            got = run_step_batch(LoopConfig(),
                                 ChannelRows([model.build(s) for _ in deltas for s in seeds]),
                                 [d for d in deltas for _ in seeds])
        assert seeded == {4 * s + i: 1 for s in seeds for i in range(4)}, shared
        for i, rec in enumerate(want):
            assert _record(got.record(i)) == _record(rec), (shared, i)


def test_no_jitter_draws_nothing():
    """Jitter 'none' has no stream: every packet takes the latency alone,
    as the oracle's zeros give."""
    chan = ChannelModel(forward=LinkParams(latency_ms=0.7)).build(5)
    sends = 0.5 * np.arange(40)
    got = chan.round_trip(sends, 32, 19.5)[0].tolist()
    assert chan.block.streams == {}  # outside shared_draws a block keeps its streams here
    zeros = jitter_draws(Jitter.none(), Random(21), 40)
    assert got == [s + (0.7 + z) for s, z in zip(sends.tolist(), zeros)]


_INTERPRETER_CHECK = """
import _random, cmath, math, random
n = 400
seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 * 1_000_003 + 7, 3**90]
reseeded = _random.Random(seeds[0])
for seed in seeds:
    reseeded.seed(seed)
    want = random.Random(seed).random()
    assert _random.Random(seed).random() == want and reseeded.random() == want, "_random seed"
bits = random.Random(12345).getrandbits(64 * n).to_bytes(8 * n, "little")
w = [int.from_bytes(bits[4 * i:4 * i + 4], "little") for i in range(2 * n)]
u = [((w[2 * i] >> 5) * 67108864.0 + (w[2 * i + 1] >> 6)) / 9007199254740992.0 for i in range(n)]
ref = random.Random(12345)
assert u == [ref.random() for _ in range(n)], "getrandbits word order"
src, ref = random.Random(3), random.Random(3)
assert [2.5 * src.random() for _ in range(n)] == [ref.uniform(0.0, 2.5) for _ in range(n)], "uniform"
src, ref = random.Random(7), random.Random(7)
u = [src.random() for _ in range(2 * n)]
z = []
for i in range(n):
    x2pi = u[2 * i] * (2.0 * math.pi)
    g2rad = math.sqrt(-2.0 * math.log(1.0 - u[2 * i + 1]))
    z += [math.cos(x2pi) * g2rad, math.sin(x2pi) * g2rad]
assert [0.1 + v * 0.3 for v in z] == [ref.gauss(0.1, 0.3) for _ in range(2 * n)], "gauss"
for a in [u[2 * i] * (2.0 * math.pi) for i in range(n)] + [0.0, 5e-324, math.pi]:
    z = cmath.exp(complex(0.0, a))
    assert repr((z.real, z.imag)) == repr((math.cos(a), math.sin(a))), "cmath.exp"
print("ok")
"""


def _interpreters(version: str, env: dict) -> Iterator[str]:
    """python<version> on PATH, then each $(pyenv root)/versions/<version>.*/bin/python."""
    exe = shutil.which(f"python{version}")
    if exe is not None:
        yield exe
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True, env=env).stdout
        root = root.strip()
        if root:
            yield from sorted(glob.glob(os.path.join(glob.escape(root), "versions", f"{version}.*",
                                                     "bin", "python")))


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_other_interpreters_share_the_generator_formulas(version):
    """The bulk draws rely on getrandbits returning MT19937's words least
    significant first, on random()'s formula of two words, on gauss's
    Box-Muller order, and on cmath.exp(complex(0.0, x)) giving libm's
    cos(x) and sin(x); netsim's flow phases rely on random.Random(seed)
    seeding an int as its C base class _random.Random does, built from
    the seed or reseeded, seeds past 2**64 included. Each interpreter
    found on PATH must agree; an absent
    one is skipped. A pyenv shim on PATH that cannot start its version is
    passed over for the interpreters under pyenv's root."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    exe = next((exe for exe in _interpreters(version, env)
                if subprocess.run([exe, "-c", "pass"], capture_output=True,
                                  env=env).returncode == 0), None)
    if exe is None:
        pytest.skip(f"python{version} is not available")
    proc = subprocess.run([exe, "-c", _INTERPRETER_CHECK], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def _bits(values) -> np.ndarray:
    """The float64 bit patterns of values (so -0.0 differs from 0.0)."""
    return np.asarray(values, dtype=float).view(np.int64)


def _libm(f, angles: list[float]) -> np.ndarray:
    return np.fromiter(map(f, angles), float, len(angles))


def test_one_complex_exp_gives_libms_cosine_and_sine():
    """_box_muller takes a pair's cosine and sine as the two parts of one
    cmath.exp(complex(0.0, angle)). That equals (math.cos(angle),
    math.sin(angle)) bit for bit only if exp(0.0) is exactly 1 and the
    interpreter's cmath reaches the same libm cos and sin as math (or a
    sincos with their values), which this interpreter must do: over 10**6
    seeded angles in [0, 2 pi) and the edges of that range. Box-Muller
    itself must then give Random.gauss's product of each part and the
    radius, over the same angles."""
    u = np.random.default_rng(35).random((500, 4000))
    angles = (u[:, 0::2] * transport._TWOPI).ravel().tolist()
    edges = [0.0, 5e-324, 1e-300, 2.0 ** -26, 0.5 * math.pi, math.pi, 1.5 * math.pi,
             transport._TWOPI - 1.0, math.nextafter(transport._TWOPI, 0.0)]
    assert len(angles) >= 10 ** 6
    for at in (edges, angles):  # cos and sin stay the seeded angles'
        cos, sin = _libm(math.cos, at), _libm(math.sin, at)
        turns = np.fromiter(map(cmath.exp, [complex(0.0, a) for a in at]), complex, len(at))
        assert np.array_equal(_bits(turns.real), _bits(cos))
        assert np.array_equal(_bits(turns.imag), _bits(sin))
    g2rad = np.sqrt(-2.0 * _libm(math.log, (1.0 - u[:, 1::2]).ravel().tolist()))
    z = transport._box_muller(u)
    assert np.array_equal(_bits(z[:, 0::2].ravel()), _bits(cos * g2rad))
    assert np.array_equal(_bits(z[:, 1::2].ravel()), _bits(sin * g2rad))
