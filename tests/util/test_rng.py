"""Deterministic RNG tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.kernels.registry import kernel_names
from repro.util.errors import ConfigError
from repro.util.rng import derive_seed, noise_factors, seed_deriver

#: A machine name whose ``repr`` escapes quotes and whose UTF-8 form is
#: multi-byte.
ODD_MACHINE = "Sophon \"SG2042\" \u2014 C920 'v0.7.1' \u00fcn\u00ef"
#: The per-kernel tail of a suite's noise seed (see ``run_suite``).
SUITE_SUFFIX = (8, "block", "fp32", True, "xuantie-gcc-8.4", "vls")


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
