"""Deterministic RNG tests."""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.registry import kernel_names
from repro.util import rng
from repro.util.errors import ConfigError
from repro.util.rng import (
    _seed_words,
    derive_seed,
    noise_factors,
    noise_means,
    seed_deriver,
)

#: A machine name whose ``repr`` escapes quotes and whose UTF-8 form is
#: multi-byte.
ODD_MACHINE = "Sophon \"SG2042\" \u2014 C920 'v0.7.1' \u00fcn\u00ef"
#: The per-kernel tail of a suite's noise seed (see ``run_suite``).
SUITE_SUFFIX = (8, "block", "fp32", True, "xuantie-gcc-8.4", "vls")
#: The 64 noise seeds of one SG2042 suite.
SUITE_SEEDS = [
    seed_deriver(("sg2042",), SUITE_SUFFIX)(name) for name in kernel_names()
]
#: Seeds at the edges of the 32-bit words NumPy splits a seed into.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
#: Arguments both noise functions reject: (seed, count, sigma).
BAD_NOISE_ARGS = [
    (1, 0, 0.02),
    (1, -3, 0.02),
    (1, 2.5, 0.02),
    (1, 5.0, 0.02),
    (1, True, 0.02),
    (1, "5", 0.02),
    (1, 5, -0.1),
    (1, 5, float("nan")),
    (1, 5, float("inf")),
    (1, 5, float("-inf")),
    (1, 5, "0.02"),
    (-1, 5, 0.02),
    (True, 5, 0.02),
    (1.0, 5, 0.02),
    ("1", 5, 0.02),
]


def mean_of_factors(seed, runs, sigma):
    """The reference mean: ``np.mean`` over ``noise_factors``."""
    return np.add.reduce(noise_factors(seed, runs, sigma)) / runs


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)

    def test_order_sensitive(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_parts_are_delimited(self):
        # ("ab", "c") must differ from ("a", "bc").
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            derive_seed()

    def test_fits_63_bits(self):
        for salt in range(50):
            assert 0 <= derive_seed("x", salt) < 2**63

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_stable_across_calls(self, a, b):
        assert derive_seed(a, b) == derive_seed(a, b)

    def test_pinned_values(self):
        # Every noisy number the reproduction publishes is seeded here.
        assert derive_seed("sg2042", "TRIAD", *SUITE_SUFFIX) == (
            784464402647363208
        )
        assert derive_seed("machine-digest", "x") == 533404020715210178
        assert derive_seed(ODD_MACHINE, "TRIAD", *SUITE_SUFFIX) == (
            5535162052157841142
        )


class TestSeedDeriver:
    @pytest.mark.parametrize("machine", ["sg2042", ODD_MACHINE])
    def test_matches_derive_seed_for_every_kernel(self, machine):
        seed = seed_deriver((machine,), SUITE_SUFFIX)
        for name in kernel_names():
            assert seed(name) == derive_seed(machine, name, *SUITE_SUFFIX)

    def test_empty_prefix_and_suffix(self):
        assert seed_deriver((), ())("TRIAD") == derive_seed("TRIAD")
        assert seed_deriver(("a",), ())("b") == derive_seed("a", "b")
        assert seed_deriver((), ("b",))("a") == derive_seed("a", "b")

    @given(st.text(max_size=20), st.text(max_size=20),
           st.integers() | st.text(max_size=5))
    def test_matches_derive_seed(self, head, part, tail):
        assert seed_deriver((head,), (tail, True))(part) == derive_seed(
            head, part, tail, True
        )


class TestNoiseFactors:
    def test_zero_sigma_is_exact(self):
        assert np.array_equal(noise_factors(1, 5, sigma=0.0), np.ones(5))

    def test_deterministic_per_seed(self):
        assert np.array_equal(
            noise_factors(42, 10), noise_factors(42, 10)
        )

    def test_different_seeds_differ(self):
        assert not np.array_equal(
            noise_factors(1, 10), noise_factors(2, 10)
        )

    def test_positive(self):
        assert (noise_factors(7, 1000) > 0).all()

    def test_median_near_one(self):
        factors = noise_factors(3, 20_000, sigma=0.02)
        assert np.median(factors) == pytest.approx(1.0, abs=0.01)

    def test_count_validation(self):
        with pytest.raises(ConfigError):
            noise_factors(1, 0)

    def test_sigma_validation(self):
        with pytest.raises(ConfigError):
            noise_factors(1, 5, sigma=-0.1)

    @pytest.mark.parametrize("seed, count, sigma", BAD_NOISE_ARGS)
    def test_bad_arguments_rejected(self, seed, count, sigma):
        with pytest.raises(ConfigError):
            noise_factors(seed, count, sigma)

    def test_numpy_ints_accepted(self):
        assert np.array_equal(
            noise_factors(np.uint64(7), np.int32(5)), noise_factors(7, 5)
        )

    def test_seed_above_63_bits_accepted(self):
        assert noise_factors(2**70, 3).shape == (3,)

    def test_calls_default_rng(self, monkeypatch):
        calls = []
        real = np.random.default_rng

        def spy(seed):
            calls.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        noise_factors(42, 5)
        assert calls == [42]


class TestSeedWords:
    @given(st.lists(st.integers(0, 2**63 - 1), max_size=8))
    def test_match_seed_sequence(self, seeds):
        words = _seed_words(seeds)
        assert words.shape == (len(seeds), 4)
        for seed, row in zip(seeds, words):
            want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert row.tolist() == want.tolist(), seed

    def test_edge_and_suite_seeds(self):
        want = [
            np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
            for seed in EDGE_SEEDS + SUITE_SEEDS
        ]
        assert _seed_words(EDGE_SEEDS + SUITE_SEEDS).tolist() == want


class TestNoiseMeans:
    @pytest.mark.parametrize(
        "seeds",
        [SUITE_SEEDS[:1], SUITE_SEEDS[:13], SUITE_SEEDS, EDGE_SEEDS,
         [7, 7, 3, 7]],
        ids=["suite1", "suite13", "suite64", "edges", "repeats"],
    )
    @pytest.mark.parametrize("sigma", [0.02, 0.5, 3.0])
    @pytest.mark.parametrize("runs", [1, 5, 8, 9, 17])
    def test_bit_identical_to_noise_factors(self, seeds, sigma, runs):
        want = np.array([mean_of_factors(s, runs, sigma) for s in seeds])
        got = noise_means(seeds, runs, sigma)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    def test_empty_suite(self, sigma):
        means = noise_means([], 5, sigma)
        assert means.shape == (0,)
        assert means.dtype == np.float64

    def test_zero_sigma_is_exactly_one(self):
        assert noise_means(SUITE_SEEDS[:3], 5, 0.0).tolist() == [1.0] * 3

    @pytest.mark.parametrize("seed, count, sigma", BAD_NOISE_ARGS)
    def test_bad_arguments_rejected(self, seed, count, sigma):
        with pytest.raises(ConfigError):
            noise_means([3, seed], count, sigma)

    @pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**70])
    def test_seeds_above_derive_seed_range_rejected(self, seed):
        with pytest.raises(ConfigError, match="seeds"):
            noise_means([3, seed], 5)

    def test_numpy_int_seeds(self):
        seeds = np.array(SUITE_SEEDS[:4], dtype=np.int64)
        assert noise_means(seeds, 5).tobytes() == (
            noise_means(SUITE_SEEDS[:4], 5).tobytes()
        )

    def test_concurrent_calls_match_serial(self):
        # Each call owns its generator: interleaving calls from several
        # threads, switching as often as the interpreter allows, must
        # not let one call's state leak into another's draws.
        jobs = [
            (SUITE_SEEDS[i % 64:i % 64 + 13], 1 + i % 9)
            for i in range(200)
        ]
        want = [noise_means(seeds, runs).tobytes() for seeds, runs in jobs]
        got = [None] * len(jobs)

        def work(offset):
            for i in range(offset, len(jobs), 4):
                seeds, runs = jobs[i]
                got[i] = noise_means(seeds, runs).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(offset,))
                for offset in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want


def craft_word(bits, word):
    """Set ``bits`` (a PCG64) so its next output is ``word``.

    PCG64 steps its LCG, then outputs XSL-RR of the new state, which is
    the state's low word when its high 64 bits are zero; so the state
    one step (``inc = 1``) before ``word`` is crafted by the inverse
    multiplier."""
    mult = 0x2360ED051FC65DA44385DF649FCCF645
    bits.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": (word - 1) * pow(mult, -1, 2**128) % 2**128,
            "inc": 1,
        },
        "has_uint32": 0,
        "uinteger": 0,
    }


class TestArrayReplay:
    """``noise_means`` replays PCG64 and the ziggurat's fast path in
    arrays; rows off the fast path go through a per-seed generator.
    Either way the bytes are ``noise_factors``'s."""

    def test_matches_noise_factors(self, monkeypatch):
        rows = {"all": 0, "generator": 0}
        real = rng._generator_draws

        def counting(words, slow, draws):
            rows["all"] += len(draws)
            rows["generator"] += len(slow)
            real(words, slow, draws)

        monkeypatch.setattr(rng, "_generator_draws", counting)

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(
            st.lists(
                st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**63 - 1),
                min_size=1, max_size=12,
            ),
            st.integers(1, 20),
            st.floats(0, 3, exclude_min=True),
        )
        def check(seeds, runs, sigma):
            want = np.array([mean_of_factors(s, runs, sigma) for s in seeds])
            assert noise_means(seeds, runs, sigma).tobytes() == (
                want.tobytes()
            )
            assert noise_means(np.array(seeds, np.uint64), runs,
                               sigma).tobytes() == want.tobytes()

        assert rng._ziggurat_tables() is not None
        check()
        # Both paths ran: rows replayed in arrays, and rows off the
        # fast path drawn by the generator.
        assert 0 < rows["generator"] < rows["all"]

    @pytest.mark.parametrize("layout", ["strided", "big-endian"])
    def test_array_seeds_in_any_layout(self, layout):
        seeds = np.array(EDGE_SEEDS + SUITE_SEEDS, np.uint64)
        arrays = {
            "strided": np.repeat(seeds, 2)[::2],
            "big-endian": seeds.astype(">u8"),
        }
        assert noise_means(arrays[layout], 5).tobytes() == (
            noise_means(seeds.tolist(), 5).tobytes()
        )

    def test_tables(self):
        tables = rng._ziggurat_tables()
        assert tables is not None
        wi, ki = tables
        assert wi.shape == ki.shape == (512,)
        # Index 256 + i is layer i with the sign bit set.
        assert (wi[256:] == -wi[:256]).all()
        assert (ki[256:] == ki[:256]).all()
        assert (wi[:256] > 0).all()
        assert [layer for layer in range(256) if ki[layer] == 0] == [1]
        assert (ki[:256] <= 2**52).all()
        bits = np.random.PCG64(0)
        normal = np.random.Generator(bits).standard_normal
        for layer in range(256):
            threshold = int(ki[layer])
            if threshold == 0:
                continue
            word = layer | (threshold - 1) << 9
            craft_word(bits, word)
            assert normal() == (threshold - 1) * wi[layer], layer
            # One word drawn: the state is the one that output ``word``.
            assert bits.state["state"]["state"] == word, layer
        assert (ki[:256] / 2**52).mean() >= 0.98

    @pytest.mark.parametrize("corrupt", ["thresholds", "craft"])
    def test_corrupt_tables_warn_and_match(self, monkeypatch, corrupt):
        monkeypatch.setattr(rng, "_ziggurat", rng._UNREAD)
        if corrupt == "thresholds":
            # One above NumPy's on every layer whose floor is exact.
            real = rng._thresholds
            monkeypatch.setattr(rng, "_thresholds", lambda wi: real(wi) + 1)
        else:
            # Crafted states no longer output the words they should.
            monkeypatch.setattr(rng, "_PCG_MULT_INV", rng._PCG_MULT_INV + 2)
        seeds = EDGE_SEEDS + SUITE_SEEDS
        want = np.array([mean_of_factors(s, 5, 0.02) for s in seeds])
        with pytest.warns(RuntimeWarning, match="ziggurat"):
            got = noise_means(seeds, 5, 0.02)
        assert got.tobytes() == want.tobytes()
        assert rng._ziggurat is None
        # One warning: later draws take the generator silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert noise_means(seeds, 5, 0.02).tobytes() == want.tobytes()

    def test_threads_racing_the_first_draw(self, monkeypatch):
        monkeypatch.setattr(rng, "_ziggurat", rng._UNREAD)
        reads = []
        real = rng._read_ziggurat

        def counting():
            reads.append(threading.get_ident())
            return real()

        monkeypatch.setattr(rng, "_read_ziggurat", counting)
        jobs = [(SUITE_SEEDS[8 * i:8 * i + 13], 1 + i) for i in range(8)]
        # The serial bytes, from the reference (a serial noise_means
        # call would read the tables before the race).
        want = [
            np.array([mean_of_factors(s, runs, 0.02) for s in seeds])
            .tobytes()
            for seeds, runs in jobs
        ]
        got = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def work(i):
            barrier.wait()
            got[i] = noise_means(*jobs[i]).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(len(jobs))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == want
        assert len(reads) == 1
