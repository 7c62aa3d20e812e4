"""Deterministic randomness for run-to-run noise.

The paper averages every measurement over five runs. Our simulator is
deterministic, so we inject small multiplicative lognormal noise — seeded
from the (kernel, machine, config) identity — and average exactly like the
paper does. Everything is reproducible: the same experiment always returns
the same numbers.

:func:`noise_factors` is the reference: one ``np.random.default_rng(seed)``
per seed. :func:`noise_means` averages a whole suite's factors in one
pass with the same bits. NumPy seeds a ``default_rng`` in two steps: a
``SeedSequence`` hashes the seed into four 64-bit words, and those words
become a PCG64 start state. :func:`_seed_words` replays the hash for
every seed at once in ``uint32`` array arithmetic (mod 2**32, as NumPy
computes it), and :func:`noise_means` turns each result into a PCG64
state with one 128-bit multiply-add and installs it in a single
generator, so the draws are the ones ``default_rng(seed)`` makes.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from typing import Callable, Iterable

import numpy as np

from repro.util.errors import ConfigError, as_int

#: Standard deviation (in log space) of simulated run-to-run noise. Real
#: measurements on the SG2042 host show low single-digit-percent jitter.
DEFAULT_NOISE_SIGMA = 0.02

#: :func:`noise_means` seeds lie below this bound: the range
#: :func:`derive_seed` produces.
_SEED_BOUND = 2**63


def _encode(parts: tuple) -> bytes:
    """The hashed form of seed parts: each ``repr`` in UTF-8, then a
    unit separator."""
    return b"".join(repr(part).encode("utf-8") + b"\x1f" for part in parts)


def _seed(encoded: bytes) -> int:
    digest = hashlib.blake2b(encoded, digest_size=8).digest()
    return int.from_bytes(digest, "little") & (2**63 - 1)


def derive_seed(*parts: object) -> int:
    """Derive a stable 63-bit seed from arbitrary hashable parts.

    Uses BLAKE2 over the ``repr`` of each part, so seeds are stable across
    processes and Python versions (unlike ``hash``).
    """
    if not parts:
        raise ConfigError("derive_seed requires at least one part")
    return _seed(_encode(parts))


def seed_deriver(prefix: tuple, suffix: tuple) -> Callable[[object], int]:
    """``derive_seed(*prefix, part, *suffix)`` as a function of ``part``.

    The fixed parts are encoded once, so a suite seeds each of its
    kernels by hashing only the kernel name between them.
    """
    head = _encode(prefix)
    tail = _encode(suffix)

    def seed(part: object) -> int:
        return _seed(head + _encode((part,)) + tail)

    return seed


def _noise_args(
    seeds: Iterable[int], count: int, sigma: float
) -> tuple[list[int], int]:
    """The seeds and count of a noise draw as Python ints.

    Raises :class:`ConfigError` unless ``sigma`` is finite and >= 0,
    ``count`` is a positive int (not a bool) and every seed is a
    non-negative int.
    """
    count = as_int("count", count)
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    # ``nan < 0`` is false, so finiteness needs its own check.
    if (
        not isinstance(sigma, numbers.Real)
        or not math.isfinite(sigma)
        or sigma < 0
    ):
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma!r}")
    seeds = [
        seed if type(seed) is int else as_int("seed", seed)
        for seed in seeds
    ]
    if seeds and min(seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {min(seeds)}")
    return seeds, count


def noise_factors(
    seed: int, count: int, sigma: float = DEFAULT_NOISE_SIGMA
) -> np.ndarray:
    """Return ``count`` multiplicative noise factors with geometric mean 1.

    Lognormal with median 1: ``exp(N(0, sigma))``. ``sigma=0`` returns
    exactly ones, which the tests use for noise-free model checks.
    """
    (seed,), count = _noise_args((seed,), count, sigma)
    if sigma == 0:
        return np.ones(count)
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(loc=0.0, scale=sigma, size=count))


_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: ``SeedSequence``'s xorshift and mixing multipliers.
_SHIFT = np.uint32(16)
_MIX_LEFT = np.uint32(0xCA01F9DD)
_MIX_RIGHT = np.uint32(0x4973F715)


def _hash_constants(start: int, mult: int, n: int) -> np.ndarray:
    """The (xor, multiply) constants of ``n`` successive hashes.

    A ``SeedSequence`` hash of ``v`` is ``v ^= hc; hc *= mult;
    v *= hc; v ^= v >> 16`` with one ``hc`` running through a whole
    stage. ``hc`` never depends on the seed, so row 0 holds each hash's
    xor constant and row 1 its multiplier.
    """
    out = np.empty((2, n), np.uint32)
    hc = start
    for i in range(n):
        out[0, i] = hc
        hc = hc * mult & _MASK32
        out[1, i] = hc
    return out


#: The mixing stage's 16 hashes: 4 that fill the pool, then 3 per
#: source word (one per destination).
_POOL_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)


def _mix_constants() -> list[tuple[np.ndarray, np.ndarray]]:
    """Per source pool word, the (xor, multiply) constants of the hash
    that mixes it into each destination word.

    Source ``src`` mixes into every other word in order, taking the
    next three mixing-stage hashes. Its own column is never used and
    stays zero.
    """
    out = []
    for src in range(4):
        dsts = [dst for dst in range(4) if dst != src]
        consts = np.zeros((2, 4), np.uint32)
        consts[:, dsts] = _POOL_HASHES[:, 4 + 3 * src:7 + 3 * src]
        out.append((consts[0], consts[1]))
    return out


_MIX_HASH = _mix_constants()
#: The output stage's 8 hashes, one per ``uint32`` word generated,
#: reading pool word ``i % 4``.
_OUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _seed_words(seeds: list[int]) -> np.ndarray:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` of
    every seed, as one ``(len(seeds), 4)`` array.

    A seed below 2**64 fills the 4-word pool with its low and high
    32-bit words and two zeros. NumPy stores a seed below 2**32 as one
    word, which mixes the same because a missing word hashes as 0.
    """
    pool = np.zeros((len(seeds), 4), np.uint32)
    pool[:, :2] = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2)
    pool ^= _POOL_HASHES[0, :4]
    pool *= _POOL_HASHES[1, :4]
    pool ^= pool >> _SHIFT
    # Each source word mixes into the three others, in order; the three
    # destinations of one source are independent, so they update as one
    # (seed, word) operation and the source column is then restored.
    for src, (xor, mult) in enumerate(_MIX_HASH):
        hashed = pool[:, src, None] ^ xor
        hashed *= mult
        hashed ^= hashed >> _SHIFT
        hashed *= _MIX_RIGHT
        mixed = pool * _MIX_LEFT
        mixed -= hashed
        mixed ^= mixed >> _SHIFT
        mixed[:, src] = pool[:, src]
        pool = mixed
    words = np.concatenate((pool, pool), axis=1)
    words ^= _OUT_HASH[0]
    words *= _OUT_HASH[1]
    words ^= words >> _SHIFT
    # uint64 word j is words 2j (low) and 2j + 1 (high), little-endian.
    return words.astype("<u4", copy=False).view("<u8")


def noise_means(
    seeds: Iterable[int], runs: int, sigma: float = DEFAULT_NOISE_SIGMA
) -> np.ndarray:
    """Each seed's mean of ``runs`` noise factors, for a whole suite.

    Bit for bit ``np.add.reduce(noise_factors(seed, runs, sigma)) /
    runs`` (which is what ``np.mean`` computes) for every seed, without
    one ``default_rng`` per seed. Each seed's ``SeedSequence`` words
    come from :func:`_seed_words`; PCG64 turns words ``w0..w3`` into
    ``inc = (w2 << 64 | w3) << 1 | 1`` and ``state = (inc + (w0 << 64 |
    w1)) * M + inc`` (mod 2**128), which is installed in one generator
    that then draws that seed's ``standard_normal`` row. ``exp(z *
    sigma)`` has the bits of ``exp(normal(0, sigma))``. The generator
    is local to the call, so concurrent calls share no state. Seeds
    must lie below 2**63, the range of :func:`derive_seed`.
    """
    seeds, runs = _noise_args(seeds, runs, sigma)
    if seeds and max(seeds) >= _SEED_BOUND:
        raise ConfigError(
            f"seeds must be < {_SEED_BOUND}, got {max(seeds)}"
        )
    if sigma == 0:
        return np.ones(len(seeds))
    draws = np.empty((len(seeds), runs))
    if seeds:
        bits = np.random.PCG64(0)
        normal = np.random.Generator(bits).standard_normal
        pcg = {"state": 0, "inc": 0}
        state = {
            "bit_generator": "PCG64", "state": pcg,
            "has_uint32": 0, "uinteger": 0,
        }
        for row, (w0, w1, w2, w3) in zip(
            draws, _seed_words(seeds).tolist()
        ):
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            pcg["state"] = (
                (inc + (w0 << 64 | w1)) * _PCG_MULT + inc
            ) & _MASK128
            pcg["inc"] = inc
            bits.state = state
            normal(out=row)
    return np.add.reduce(np.exp(draws * sigma), axis=1) / runs
