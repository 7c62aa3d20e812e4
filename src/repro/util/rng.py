"""Deterministic randomness for run-to-run noise.

The paper averages every measurement over five runs. Our simulator is
deterministic, so we inject small multiplicative lognormal noise — seeded
from the (kernel, machine, config) identity — and average exactly like the
paper does. Everything is reproducible: the same experiment always returns
the same numbers.

:func:`noise_factors` is the reference: one ``np.random.default_rng(seed)``
per seed. :func:`noise_means` averages the factors of many seeds at once,
with the same bits, in array arithmetic:

- **Seeding.** NumPy seeds a ``default_rng`` in two steps: a
  ``SeedSequence`` hashes the seed into four 64-bit words, and those
  words become a PCG64 start state. :func:`_seed_words` replays the hash
  for every seed at once in ``uint32`` array arithmetic (mod 2**32, as
  NumPy computes it).
- **PCG64.** Each output word is XSL-RR of the state one more LCG step
  on, and any number of steps is one affine map of the state.
  :func:`_pcg_outputs` computes every seed's first ``runs`` words at
  once, from its two 128-bit seeding terms and constants made once per
  ``runs``, in ``uint64`` arithmetic on 32-bit limbs.
- **Ziggurat.** ``standard_normal`` turns a word ``w`` into ``±rabs *
  wi[w & 0xff]`` (``rabs = (w >> 9) & (2**52 - 1)``, sign bit 8)
  whenever ``rabs < ki[w & 0xff]``, and takes more words otherwise.
  NumPy does not export ``wi`` and ``ki``; :func:`_read_ziggurat` reads
  them back from ``standard_normal`` through crafted PCG64 states, once
  per process at the first noisy draw, and checks every fast-path
  threshold it derives with one crafted word.

A seed's row whose every word takes the fast path is replayed in arrays.
Any other row (about 7% at five runs) is drawn by a generator set to
that seed's start state, and so is every row if the tables fail their
check, with one warning: no number depends on the replay.
"""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
import threading
import warnings
from typing import Iterable

import numpy as np

from repro.util.errors import ConfigError, as_int

#: Standard deviation (in log space) of simulated run-to-run noise. Real
#: measurements on the SG2042 host show low single-digit-percent jitter.
DEFAULT_NOISE_SIGMA = 0.02

#: :func:`noise_means` seeds lie below this bound: the range
#: :func:`derive_seed` produces.
_SEED_BOUND = 2**63

#: Constants as 0-d arrays: NumPy applies those faster than scalars.
_SEED_MASK = np.array(_SEED_BOUND - 1, np.uint64)


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


@functools.lru_cache(maxsize=1024)
def _encoded_name(name: str) -> bytes:
    """``_encode((name,))``, kept per process: a suite's kernel names
    never change."""
    return _encode((name,))


class SeedDeriver:
    """``derive_seed(*prefix, part, *suffix)`` as a function of ``part``.

    The fixed parts are encoded once, and a ``str`` part's encoding once
    per process, so a suite seeds its kernels by hashing their names
    between them. :meth:`seeds` gives many parts' seeds as one array;
    calling the deriver gives one part's as an int.
    """

    __slots__ = ("_head", "_tail")

    def __init__(self, prefix: tuple, suffix: tuple) -> None:
        self._head = _encode(prefix)
        self._tail = _encode(suffix)

    def __call__(self, part: object) -> int:
        return int(self.seeds((part,))[0])

    def seeds(self, parts: Iterable[object]) -> np.ndarray:
        """Each part's seed, as one ``uint64`` array."""
        head, tail, blake2b = self._head, self._tail, hashlib.blake2b
        digests = b"".join([
            blake2b(
                head
                + (
                    _encoded_name(part) if part.__class__ is str
                    else _encode((part,))
                )
                + tail,
                digest_size=8,
            ).digest()
            for part in parts
        ])
        return np.frombuffer(digests, "<u8") & _SEED_MASK


def seed_deriver(prefix: tuple, suffix: tuple) -> SeedDeriver:
    """The :class:`SeedDeriver` of ``prefix`` and ``suffix``."""
    return SeedDeriver(prefix, suffix)


def _noise_args(
    seeds: Iterable[int], count: int, sigma: float
) -> tuple[list[int] | np.ndarray, int]:
    """The seeds and count of a noise draw: the seeds as Python ints,
    or as given if they are a 1-D NumPy integer array.

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
    if (
        isinstance(seeds, np.ndarray) and seeds.ndim == 1
        and seeds.dtype.kind in "iu"
    ):
        if seeds.dtype.kind == "i" and seeds.size and seeds.min() < 0:
            raise ConfigError(f"seeds must be >= 0, got {seeds.min()}")
        return seeds, count
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
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1
#: PCG64's 128-bit LCG multiplier, and its inverse mod 2**128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 2**128)
#: ``SeedSequence``'s xorshift and mixing multipliers.
_SHIFT = np.array(16, np.uint32)
_MIX_LEFT = np.array(0xCA01F9DD, np.uint32)
_MIX_RIGHT = np.array(0x4973F715, np.uint32)


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
    next three mixing-stage hashes. Each constant is a ``(4, 1)``
    column, one row per destination; the source's own row is never
    used and stays zero.
    """
    out = []
    for src in range(4):
        dsts = [dst for dst in range(4) if dst != src]
        consts = np.zeros((2, 4), np.uint32)
        consts[:, dsts] = _POOL_HASHES[:, 4 + 3 * src:7 + 3 * src]
        out.append((consts[0, :, None], consts[1, :, None]))
    return out


_MIX_HASH = _mix_constants()
#: The output stage's 8 hashes, one per ``uint32`` word generated,
#: reading pool word ``i % 4``.
_OUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)[:, :, None]


def _seed_words(seeds: Iterable[int] | np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` of
    every seed, as one ``(len(seeds), 4)`` array (a transposed view:
    each of the four words is contiguous across the seeds).

    A seed below 2**64 fills the 4-word pool with its low and high
    32-bit words and two zeros. NumPy stores a seed below 2**32 as one
    word, which mixes the same because a missing word hashes as 0. The
    seeds run along the last axis, so every operation is one long loop.
    """
    seeds = np.ascontiguousarray(seeds, dtype="<u8")
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[:2] = seeds.view("<u4").reshape(-1, 2).T
    pool ^= _POOL_HASHES[0, :4, None]
    pool *= _POOL_HASHES[1, :4, None]
    pool ^= pool >> _SHIFT
    # Each source word mixes into the three others, in order; the three
    # destinations of one source are independent, so they update as one
    # (word, seed) operation and the source row is then restored.
    for src, (xor, mult) in enumerate(_MIX_HASH):
        hashed = pool[src] ^ xor
        hashed *= mult
        hashed ^= hashed >> _SHIFT
        hashed *= _MIX_RIGHT
        mixed = pool * _MIX_LEFT
        mixed -= hashed
        mixed ^= mixed >> _SHIFT
        mixed[src] = pool[src]
        pool = mixed
    halves = np.concatenate((pool, pool))
    halves ^= _OUT_HASH[0]
    halves *= _OUT_HASH[1]
    halves ^= halves >> _SHIFT
    # uint64 word j is uint32 words 2j (low) and 2j + 1 (high).
    words = halves[1::2].astype(np.uint64)
    words <<= _BITS32
    words |= halves[0::2]
    return words.T


_ONE = np.array(1, np.uint64)
_LOW32 = np.array(_MASK32, np.uint64)
_BITS32 = np.array(32, np.uint64)
_BITS58 = np.array(58, np.uint64)
_BITS63 = np.array(63, np.uint64)


@functools.lru_cache(maxsize=16)
def _jump_constants(runs: int) -> tuple[np.ndarray, ...]:
    """The constants that jump a seeded state to each of ``runs``
    outputs.

    Output ``k`` of PCG64 seeded with ``A = inc + init`` is XSL-RR of
    ``A * M**(k + 2) + inc * (1 + M + ... + M**(k + 1))`` (mod 2**128).
    Returns the two multipliers' high words, low words and the low
    words' low and high 32-bit halves, each ``(2, runs, 1)``: row 0
    multiplies ``A``, row 1 ``inc``.
    """
    powers, totals = [], []
    power, total = _PCG_MULT, 1
    for _ in range(runs):
        total = (total + power) & _MASK128
        power = power * _PCG_MULT & _MASK128
        powers.append(power)
        totals.append(total)
    jumps = np.array([powers, totals], object)
    high, low = jumps >> 64, jumps & _MASK64
    out = tuple(
        np.array(part, np.uint64)[:, :, None]
        for part in (high, low, low & _MASK32, low >> 32)
    )
    for part in out:
        part.setflags(write=False)
    return out


def _pcg_outputs(words: np.ndarray, runs: int) -> np.ndarray:
    """The first ``runs`` output words of PCG64 seeded with each row of
    ``words`` (:func:`_seed_words`), as one ``(runs, len(words))``
    ``uint64`` array.

    PCG64 makes ``w0..w3`` into ``inc = (w2 << 64 | w3) << 1 | 1`` and
    ``init = w0 << 64 | w1``; output ``k`` is ``A * P_k + inc * Q_k``
    with ``A = inc + init`` and the constants of :func:`_jump_constants`,
    put through XSL-RR. Each 128-bit value is a high and a low ``uint64``
    word, and axis 0 holds the two terms. A low-by-low product is
    assembled from four 32-bit products (each exact in 64 bits); the
    products that land in the high word wrap mod 2**64, as they should.
    """
    w0, w1, w2, w3 = words.T
    # (high, low) x (A, inc) x 1 x seed, to broadcast against
    # (term, run, 1): the seeds run along the last axis.
    terms = np.empty((2, 2, 1, len(words)), np.uint64)
    (a_high, inc_high), (a_low, inc_low) = terms[:, :, 0]
    np.left_shift(w3, _ONE, out=inc_low)
    inc_low |= _ONE
    np.left_shift(w2, _ONE, out=inc_high)
    inc_high |= w3 >> _BITS63
    np.add(inc_low, w1, out=a_low)
    np.add(inc_high, w0, out=a_high)
    a_high += a_low < inc_low
    high, low = terms
    c_high, c_low, c_00, c_01 = _jump_constants(runs)
    v_0 = low & _LOW32
    v_1 = low >> _BITS32
    p_00 = v_0 * c_00
    p_01 = v_0 * c_01
    p_10 = v_1 * c_00
    out_high = v_1 * c_01
    mid = p_00 >> _BITS32
    mid += p_01 & _LOW32
    mid += p_10 & _LOW32
    out_high += p_01 >> _BITS32
    out_high += p_10 >> _BITS32
    out_high += mid >> _BITS32
    out_high += high * c_low
    out_high += low * c_high
    out_low = p_00 & _LOW32
    out_low |= mid << _BITS32
    # The sum of the two terms, then XSL-RR: (high ^ low) rotated right
    # by the state's top 6 bits.
    state_low = out_low[0] + out_low[1]
    state_high = out_high[0] + out_high[1]
    state_high += state_low < out_low[0]
    rot = state_high >> _BITS58
    state_low ^= state_high
    state_high = state_low << (-rot & _BITS63)
    state_low >>= rot
    state_low |= state_high
    return state_low


def _xsl_rr(state: int) -> int:
    """PCG64's output word for a 128-bit state."""
    word = (state >> 64 ^ state) & _MASK64
    rot = state >> 122
    return (word >> rot | word << (-rot & 63)) & _MASK64


def _thresholds(wi: np.ndarray) -> np.ndarray:
    """The fast-path thresholds :func:`_read_ziggurat` checks, as
    floats, derived from ``wi``."""
    with np.errstate(all="ignore"):
        ratios = np.concatenate(([wi[255] / wi[0], 0.0], wi[1:-1] / wi[2:]))
        return np.floor(ratios * 2.0**52)


def _read_ziggurat() -> tuple[np.ndarray, np.ndarray] | None:
    """NumPy's ziggurat tables for :func:`noise_means`, or ``None``
    (with a warning) if they fail their check.

    A PCG64 state whose high 64 bits are zero outputs its low word, so
    stepping back one step from ``word`` (``inc = 1``) crafts a
    generator whose next word is ``word``. ``wi[i]`` is the draw of word
    ``i | 1 << 9`` (``rabs`` 1). The fast-path thresholds are
    ``floor(wi[i - 1] / wi[i] * 2**52)`` on layers 2-255 and
    ``floor(wi[255] / wi[0] * 2**52)`` on layer 0; layer 1 gets 0, never
    fast. Each threshold ``t > 0`` is confirmed by drawing the word of
    ``rabs = t - 1``: the draw must be ``(t - 1) * wi[i]``, taken in
    exactly one word. Since the fast test is ``rabs < ki[i]``, that
    proves every ``rabs`` below ``t`` fast; a threshold below NumPy's
    only sends more rows to the generator.

    Returns ``wi`` and the thresholds for the 9-bit index ``w & 0x1ff``:
    index ``i + 256`` (sign bit set) holds ``-wi[i]``, whose product with
    ``rabs`` is the negated draw, bit for bit.
    """
    bits = np.random.PCG64(0)
    normal = np.random.Generator(bits).standard_normal
    next_word = bits.random_raw
    pcg = {"state": 0, "inc": 1}
    state = {
        "bit_generator": "PCG64", "state": pcg,
        "has_uint32": 0, "uinteger": 0,
    }

    def draw(word: int) -> float:
        pcg["state"] = (word - 1) * _PCG_MULT_INV & _MASK128
        bits.state = state
        return normal()

    wi = np.array([draw(layer | 1 << 9) for layer in range(256)])
    ki = _thresholds(wi)
    valid = bool(
        np.isfinite(wi).all() and ((ki >= 0) & (ki <= 2.0**52)).all()
    )
    for layer, threshold in enumerate(ki.tolist() if valid else ()):
        rabs = int(threshold) - 1
        if rabs < 0:
            continue
        word = layer | rabs << 9
        if (
            draw(word) != rabs * wi[layer]
            or next_word() != _xsl_rr(word * _PCG_MULT + 1 & _MASK128)
        ):
            valid = False
            break
    if not valid:
        warnings.warn(
            "NumPy's standard_normal does not match its ziggurat tables "
            "as read back; every noise row is drawn by its own "
            "generator",
            RuntimeWarning, stacklevel=4,
        )
        return None
    return (
        np.concatenate((wi, -wi)),
        np.concatenate((ki, ki)).astype(np.uint64),
    )


_UNREAD = object()
#: :func:`_read_ziggurat`'s result once read, else ``_UNREAD``.
_ziggurat = _UNREAD
_ZIGGURAT_LOCK = threading.Lock()


def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray] | None:
    """:func:`_read_ziggurat`, read once per process."""
    global _ziggurat
    tables = _ziggurat
    if tables is _UNREAD:
        with _ZIGGURAT_LOCK:
            if _ziggurat is _UNREAD:
                _ziggurat = _read_ziggurat()
            tables = _ziggurat
    return tables


_LOW9 = np.array(0x1FF, np.uint64)
_BITS9 = np.array(9, np.uint64)
_RABS_MASK = np.array(2**52 - 1, np.uint64)


def _fast_draws(
    outputs: np.ndarray, wi: np.ndarray, ki: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``standard_normal``'s draws from the ``(runs, seeds)`` output
    words on the ziggurat's fast path, as a ``(seeds, runs)`` array, and
    the seeds with a word off it (whose rows are not draws)."""
    index = (outputs & _LOW9).view(np.intp)
    rabs = outputs >> _BITS9
    rabs &= _RABS_MASK
    slow = (rabs >= ki[index]).any(axis=0).nonzero()[0]
    draws = np.empty(outputs.shape[::-1])
    np.multiply(rabs.T, wi[index].T, out=draws)
    return draws, slow


def _generator_draws(
    words: np.ndarray, rows: np.ndarray, draws: np.ndarray
) -> None:
    """Fill ``draws[rows]`` by ``standard_normal`` from PCG64 seeded
    with those rows of ``words``: the bits of ``default_rng(seed)``.

    PCG64 turns ``w0..w3`` into ``inc = (w2 << 64 | w3) << 1 | 1`` and
    ``state = (inc + (w0 << 64 | w1)) * M + inc`` (mod 2**128), which is
    installed in one generator, local to the call, before each row.
    """
    if not len(rows):
        return
    bits = np.random.PCG64(0)
    normal = np.random.Generator(bits).standard_normal
    pcg = {"state": 0, "inc": 0}
    state = {
        "bit_generator": "PCG64", "state": pcg,
        "has_uint32": 0, "uinteger": 0,
    }
    for row, (w0, w1, w2, w3) in zip(rows, words[rows].tolist()):
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        pcg["state"] = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
        pcg["inc"] = inc
        bits.state = state
        normal(out=draws[row])


def noise_means(
    seeds: Iterable[int] | np.ndarray,
    runs: int,
    sigma: float = DEFAULT_NOISE_SIGMA,
) -> np.ndarray:
    """Each seed's mean of ``runs`` noise factors, for a whole suite.

    Bit for bit ``np.add.reduce(noise_factors(seed, runs, sigma)) /
    runs`` (which is what ``np.mean`` computes) for every seed, without
    one ``default_rng`` per seed: see the module docstring. ``exp(z *
    sigma)`` has the bits of ``exp(normal(0, sigma))``. Seeds are ints
    or a 1-D NumPy integer array (:meth:`SeedDeriver.seeds`), below
    2**63, the range of :func:`derive_seed`. Concurrent calls share
    only the ziggurat tables, read once and never written: the
    generator of the rows off the fast path is local to the call.
    """
    seeds, runs = _noise_args(seeds, runs, sigma)
    if not len(seeds):
        return np.ones(0)
    top = seeds.max() if isinstance(seeds, np.ndarray) else max(seeds)
    if top >= _SEED_BOUND:
        raise ConfigError(f"seeds must be < {_SEED_BOUND}, got {top}")
    if sigma == 0:
        return np.ones(len(seeds))
    words = _seed_words(seeds)
    tables = _ziggurat_tables()
    if tables is None:
        draws = np.empty((len(words), runs))
        slow = np.arange(len(words))
    else:
        draws, slow = _fast_draws(_pcg_outputs(words, runs), *tables)
    _generator_draws(words, slow, draws)
    return np.add.reduce(np.exp(draws * sigma), axis=1) / runs
