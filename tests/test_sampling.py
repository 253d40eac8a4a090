import numpy as np
import pytest

from mbproj.sampling import Sampler, SamplerConfigError


class TestDeterminism:
    @pytest.mark.parametrize("make", [
        lambda s: Sampler.iid_uniform(7, seed=s),
        lambda s: Sampler.without_replacement(7, seed=s),
        lambda s: Sampler.partition([[0, 1, 2], [3, 4], [5, 6]], seed=s),
    ])
    def test_same_seed_same_stream(self, make):
        a, b = make(42), make(42)
        n = 3
        for _ in range(50):
            np.testing.assert_array_equal(a.draw(n), b.draw(n))

    def test_different_seed_differs(self):
        a = Sampler.iid_uniform(1000, seed=1)
        b = Sampler.iid_uniform(1000, seed=2)
        assert any(not np.array_equal(a.draw(4), b.draw(4)) for _ in range(5))


class TestVariantLaws:
    def test_single_index_space(self):
        s = Sampler.iid_uniform(1, seed=0)
        np.testing.assert_array_equal(s.draw(3), [0, 0, 0])

    def test_exhaustive_without_replacement_is_permutation(self):
        s = Sampler.without_replacement(3, seed=5)
        for _ in range(20):
            batch = s.draw(3)
            assert sorted(batch.tolist()) == [0, 1, 2]

    def test_without_replacement_never_duplicates(self):
        s = Sampler.without_replacement(10, seed=3)
        for _ in range(2000):
            batch = s.draw(4)
            assert len(set(batch.tolist())) == 4

    def test_partition_respects_blocks(self):
        blocks = [[0, 1], [2, 3]]
        s = Sampler.partition(blocks, seed=1)
        for _ in range(200):
            i, j = s.draw(2)
            assert i in (0, 1) and j in (2, 3)

    def test_without_replacement_batch_too_large(self):
        s = Sampler.without_replacement(3, seed=0)
        with pytest.raises(SamplerConfigError):
            s.draw(4)

    def test_partition_batch_size_must_match(self):
        s = Sampler.partition([[0], [1]], seed=0)
        with pytest.raises(SamplerConfigError):
            s.draw(3)

    def test_partition_blocks_must_cover_disjointly(self):
        with pytest.raises(SamplerConfigError):
            Sampler("partition", 4, blocks=[[0, 1], [1, 2]])
        with pytest.raises(SamplerConfigError):
            Sampler("partition", 4, blocks=[[0, 1], [2]])


class TestMarginals:
    def test_iid_uniform_marginal_within_3_sigma(self):
        m, n_batches, batch = 5, 100_000, 2
        s = Sampler.iid_uniform(m, seed=7)
        counts = np.zeros(m)
        for _ in range(n_batches):
            for w in s.draw(batch):
                counts[w] += 1
        total = n_batches * batch
        p = 1.0 / m
        sigma = np.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts - total * p) <= 3.0 * sigma)

    def test_first_draw_weights(self):
        np.testing.assert_allclose(Sampler.iid_uniform(4, seed=0).first_draw_weights(),
                                   [0.25] * 4)
        np.testing.assert_allclose(
            Sampler.without_replacement(4, seed=0).first_draw_weights(), [0.25] * 4)
        w = Sampler.partition([[1, 2], [0, 3]], seed=0).first_draw_weights()
        np.testing.assert_allclose(w, [0.0, 0.5, 0.5, 0.0])
