"""Deterministic randomness for run-to-run noise.

The paper averages every measurement over five runs. Our simulator is
deterministic, so we inject small multiplicative lognormal noise — seeded
from the (kernel, machine, config) identity — and average exactly like the
paper does. Everything is reproducible: the same experiment always returns
the same numbers.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from repro.util.errors import ConfigError

#: Standard deviation (in log space) of simulated run-to-run noise. Real
#: measurements on the SG2042 host show low single-digit-percent jitter.
DEFAULT_NOISE_SIGMA = 0.02


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


def noise_factors(
    seed: int, count: int, sigma: float = DEFAULT_NOISE_SIGMA
) -> np.ndarray:
    """Return ``count`` multiplicative noise factors with geometric mean 1.

    Lognormal with median 1: ``exp(N(0, sigma))``. ``sigma=0`` returns
    exactly ones, which the tests use for noise-free model checks.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if sigma < 0:
        raise ConfigError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return np.ones(count)
    rng = np.random.default_rng(seed)
    return np.exp(rng.normal(loc=0.0, scale=sigma, size=count))
