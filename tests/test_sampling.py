import numpy as np
import pytest

from mbproj.sampling import Sampler


class TestDeterminism:
    @pytest.mark.parametrize("make", [
        lambda s: Sampler("iid-uniform", 7, np.random.default_rng(s)),
        lambda s: Sampler("without-replacement", 7, np.random.default_rng(s)),
    ])
    def test_same_seed_same_stream(self, make):
        a, b = make(42), make(42)
        n = 3
        for _ in range(50):
            np.testing.assert_array_equal(a.draw(n), b.draw(n))

    def test_different_seed_differs(self):
        a = Sampler("iid-uniform", 1000, np.random.default_rng(1))
        b = Sampler("iid-uniform", 1000, np.random.default_rng(2))
        assert any(not np.array_equal(a.draw(4), b.draw(4)) for _ in range(5))


class TestVariantLaws:
    def test_single_index_space(self):
        s = Sampler("iid-uniform", 1, np.random.default_rng(0))
        np.testing.assert_array_equal(s.draw(3), [0, 0, 0])

    def test_exhaustive_without_replacement_is_permutation(self):
        s = Sampler("without-replacement", 3, np.random.default_rng(5))
        for _ in range(20):
            batch = s.draw(3)
            assert sorted(batch.tolist()) == [0, 1, 2]

    def test_without_replacement_never_duplicates(self):
        s = Sampler("without-replacement", 10, np.random.default_rng(3))
        for _ in range(2000):
            batch = s.draw(4)
            assert len(set(batch.tolist())) == 4


class TestBlockDraws:
    @pytest.mark.parametrize("variant", Sampler.VARIANTS)
    # the last two cases sit on either side of the population size and batch
    # size at which numpy's choice leaves Floyd's algorithm for a tail shuffle
    @pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 2), (3, 3), (20, 4),
                                      (200, 8), (10001, 200), (10001, 201)])
    def test_block_matches_per_draw_numpy_calls(self, variant, m, n):
        count = 7
        for seed in range(3):
            block_rng = np.random.default_rng(seed)
            block = Sampler(variant, m, block_rng).draw(n, count)
            rng = np.random.default_rng(seed)
            if variant == "iid-uniform":
                draws = [rng.integers(0, m, size=n) for _ in range(count)]
            else:
                draws = [rng.choice(m, size=n, replace=False) for _ in range(count)]
            assert block.shape == (count * n,)
            np.testing.assert_array_equal(block, np.concatenate(draws))
            assert block_rng.bit_generator.state == rng.bit_generator.state


class TestMarginals:
    def test_iid_uniform_marginal_within_3_sigma(self):
        m, n_batches, batch = 5, 100_000, 2
        s = Sampler("iid-uniform", m, np.random.default_rng(7))
        counts = np.bincount(s.draw(batch, n_batches), minlength=m)
        total = n_batches * batch
        p = 1.0 / m
        sigma = np.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts - total * p) <= 3.0 * sigma)
