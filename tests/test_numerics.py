import math
import warnings

import numpy as np
import pytest

from aeromon.errors import DataError, DomainError, NumericError, ShapeError
from aeromon.numerics import (
    Rng,
    _splitmix64_block,
    cholesky,
    covariance,
    derive_seed,
    order_statistic,
    solve_spd,
)

REFERENCE_SEED = 20240901
_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x):
    """One scalar SplitMix64 step in Python ints: (advanced state, output).
    The oracle of `_splitmix64_block` and of `derive_seed`."""
    x = (x + _GOLDEN) & _MASK
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return x, (z ^ (z >> 31)) & _MASK


def _reference_stream(seed, draw, count):
    """Independent re-derivation of draw `draw` of `Rng(seed)`, written without
    reusing library code: the key is the first SplitMix64 output of state
    seed ^ (draw+1)*golden, and the draw is the SplitMix64 loop started at it."""
    _, x = _splitmix64((seed ^ ((draw + 1) * _GOLDEN)) & _MASK)
    out = []
    for _ in range(count):
        x, value = _splitmix64(x)
        out.append(value)
    return out


class TestRng:
    def test_reference_seed_first_outputs_pinned(self):
        rng = Rng(REFERENCE_SEED)
        expected = [(v >> 11) * 2.0**-53 for v in _reference_stream(REFERENCE_SEED, 0, 4)]
        assert rng.uniform(0.0, 1.0, 4).tolist() == expected
        # n = 2**63 rejects nothing: each value is an output's low 63 bits
        expected = [v & (2**63 - 1) for v in _reference_stream(REFERENCE_SEED, 1, 4)]
        assert rng.randrange(2**63, 4).tolist() == expected
        assert rng.draws == 2

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, -3, 2**70 + 5, REFERENCE_SEED])
    def test_derive_seed_matches_scalar_splitmix(self, seed):
        for index in (0, 1, 90, 2**40):
            _, expected = _splitmix64((seed ^ ((index + 1) * _GOLDEN)) & _MASK)
            assert derive_seed(seed, index) == expected

    @pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1, REFERENCE_SEED])
    def test_derive_seed_of_index_array_is_elementwise(self, seed):
        # uint64 arithmetic wraps where the scalar form masks, without an overflow warning
        index = np.array([0, 1, 90, 2**40, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            keys = derive_seed(seed, index)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [derive_seed(seed, int(i)) for i in index]

    @pytest.mark.invariant
    def test_equal_seeds_bit_identical_streams(self):
        for seed in (0, 1, 7, 2**63, REFERENCE_SEED):
            a, b = Rng(seed), Rng(seed)
            assert np.array_equal(a.uniform(0.0, 1.0, 64), b.uniform(0.0, 1.0, 64))
            assert np.array_equal(a.normal(0.0, 1.0, 16), b.normal(0.0, 1.0, 16))
            assert np.array_equal(a.randrange(7, 16), b.randrange(7, 16))
            assert np.array_equal(a.uniform(-2.0, 3.0, 16), b.uniform(-2.0, 3.0, 16))

    def test_random_in_unit_interval(self):
        vals = Rng(3).uniform(0.0, 1.0, 2000)
        assert vals.shape == (2000,)
        assert ((0.0 <= vals) & (vals < 1.0)).all()
        assert 0.45 < vals.mean() < 0.55

    def test_normal_moments(self):
        vals = Rng(11).normal(0.0, 1.0, 20000)
        assert vals.shape == (20000,)
        assert abs(vals.mean()) < 0.03
        assert abs(vals.std() - 1.0) < 0.03
        scaled = Rng(11).normal(5.0, 2.0, 20000)
        assert np.allclose(scaled, 5.0 + 2.0 * vals, rtol=0.0, atol=1e-12)

    def test_normal_is_polar_method_over_reference_blocks(self):
        # math.log may differ from numpy's log in the last place, hence the tolerance
        size, draws_used = 3, set()
        for seed in range(REFERENCE_SEED, REFERENCE_SEED + 20):
            rng = Rng(seed)
            got = rng.normal(0.0, 1.0, size)
            expected, draw = [], 0
            while len(expected) < size:
                block = _reference_stream(seed, draw, 2 * (size - len(expected)))
                u = [2.0 * ((v >> 11) * 2.0**-53) - 1.0 for v in block]
                pairs = [(v1, v2, v1 * v1 + v2 * v2) for v1, v2 in zip(u[0::2], u[1::2])]
                pairs = [(v1, v2, math.sqrt(-2.0 * math.log(s) / s)) for v1, v2, s in pairs if 0.0 < s < 1.0]
                normals = [v1 * f for v1, _, f in pairs] + [v2 * f for _, v2, f in pairs]
                expected += normals[: size - len(expected)]
                draw += 1
            assert rng.draws == draw
            assert np.allclose(got, expected, rtol=1e-14, atol=0.0)
            draws_used.add(draw)
        assert max(draws_used) > 1  # some seed's first block fell short and was topped up

    def test_randrange_bounds_and_coverage(self):
        vals = Rng(5).randrange(7, 500)
        assert set(vals.tolist()) == set(range(7))
        with pytest.raises(DomainError):
            Rng(5).randrange(0, 4)

    def test_randrange_rejection_redraws_the_shortfall(self):
        # n = 5 keeps an output's low 3 bits when they are below 5, so blocks reject
        size = 40
        rng = Rng(REFERENCE_SEED)
        got = rng.randrange(5, size).tolist()
        expected, draw = [], 0
        while len(expected) < size:
            expected += [v & 7 for v in _reference_stream(REFERENCE_SEED, draw, size - len(expected)) if v & 7 < 5]
            draw += 1
        assert draw > 1
        assert rng.draws == draw
        assert got == expected

    def test_shuffle_is_permutation_and_deterministic(self):
        a = list(range(50))
        b = list(range(50))
        Rng(9).shuffle(a)
        Rng(9).shuffle(b)
        assert a == b
        assert sorted(a) == list(range(50))
        assert a != list(range(50))

    def test_shuffle_array_in_place(self):
        a = np.arange(200, dtype=np.int64) * 3
        b = a.copy()
        Rng(9).shuffle(a)
        Rng(9).shuffle(b)
        assert a.dtype == np.int64
        assert np.array_equal(a, b)
        assert np.array_equal(np.sort(a), np.arange(200) * 3)
        assert not np.array_equal(a, np.arange(200) * 3)

    def test_sample_indices_distinct(self):
        rng = Rng(13)
        picked = rng.sample_indices(7, 3, 50)
        assert picked.shape == (50, 3) and picked.dtype == np.int64
        for row in picked.tolist():
            assert row == sorted(set(row))
            assert 0 <= row[0] and row[-1] < 7
        assert rng.sample_indices(7, 7, 2).tolist() == [list(range(7))] * 2
        assert rng.sample_indices(7, 3, 0).shape == (0, 3)
        with pytest.raises(DomainError):
            rng.sample_indices(3, 4, 1)

    @pytest.mark.invariant
    @pytest.mark.parametrize("seed", [0, 7, 2**63, 2**64 - 1])
    def test_sample_indices_rows_equal_sequential_permutations(self, seed):
        """Row i of a chunk is the sorted first k of the permutation that draw
        `draws + i` gives, so chunks of any size continue one stream."""
        rng, twin = Rng(seed), Rng(seed)
        rng.randrange(150, 150)  # a forest tree's bootstrap draw comes first
        twin.randrange(150, 150)
        got = np.vstack([rng.sample_indices(7, 3, rows) for rows in (1, 256, 0, 5, 1000, 3)])
        want = [np.sort(twin.permutation(7)[:3]).tolist() for _ in range(len(got))]
        assert got.tolist() == want
        assert rng.draws == twin.draws

    def test_derive_seed_deterministic_and_decorrelated(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)
        assert Rng(derive_seed(42, 3)).uniform(0.0, 1.0, 1) != Rng(derive_seed(42, 4)).uniform(0.0, 1.0, 1)
        assert derive_seed(42, 3) != derive_seed(42, 4)
        assert derive_seed(42, 3) != derive_seed(43, 3)


class TestBlockRng:
    @pytest.mark.parametrize("key", [0, 1, 7, 2**63, 2**64 - 1, REFERENCE_SEED])
    def test_block_equals_scalar_splitmix_loop(self, key):
        x, expected = key, []
        for _ in range(257):
            x, out = _splitmix64(x)
            expected.append(out)
        block = _splitmix64_block(key, 257)
        assert block.dtype == np.uint64
        assert block.tolist() == expected
        assert _splitmix64_block(key, 0).size == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 1000])
    def test_permutation_is_permutation(self, n):
        perm = Rng(3).permutation(n)
        assert perm.dtype == np.int64
        assert np.array_equal(np.sort(perm), np.arange(n))

    @pytest.mark.invariant
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 1000, 20000])
    def test_permutation_keys_are_distinct(self, n):
        """`permutation` argsorts one block with numpy's default, unstable sort.
        That gives the stable order only because no two values of a block tie."""
        for key in (0, 1, 7, 2**63, 2**64 - 1, REFERENCE_SEED):
            assert np.unique(_splitmix64_block(key, n)).size == n
        for seed in (0, 7, 2**64 - 1):
            rng = Rng(seed)
            for draw in range(3):
                block = _splitmix64_block(derive_seed(seed, draw), n)
                assert np.array_equal(rng.permutation(n), np.argsort(block, kind="stable"))

    def test_permutation_deterministic_per_seed(self):
        assert np.array_equal(Rng(21).permutation(500), Rng(21).permutation(500))
        assert not np.array_equal(Rng(21).permutation(500), Rng(22).permutation(500))
        rng = Rng(21)
        assert not np.array_equal(rng.permutation(500), rng.permutation(500))

    @pytest.mark.parametrize(
        "call", ["permutation", "shuffle_list", "shuffle_array", "integers", "random", "normal", "sample_indices"]
    )
    def test_each_call_advances_stream_by_one_draw(self, call):
        rng, twin = Rng(44), Rng(44)
        for _ in range(3):
            if call == "permutation":
                rng.permutation(1000)
            elif call == "shuffle_list":
                rng.shuffle(list(range(1000)))
            elif call == "shuffle_array":
                rng.shuffle(np.arange(1000))
            elif call == "random":
                rng.uniform(-1.0, 1.0, 1000)
            elif call == "normal":
                rng.normal(0.0, 1.0, 1000)  # 1000 candidate pairs: one block suffices here
            elif call == "sample_indices":
                rng.sample_indices(1000, 10, 1)
            else:
                rng.randrange(2**20, 1000)  # a power of two: no rejections
        assert rng.draws == 3
        twin.draws = 3
        assert np.array_equal(rng.uniform(0.0, 1.0, 8), twin.uniform(0.0, 1.0, 8))

    def test_large_shuffle_is_one_draw(self):
        rng = Rng(5)
        seq = np.arange(100_000, dtype=np.int64)
        rng.shuffle(seq)
        assert rng.draws == 1
        assert np.array_equal(np.sort(seq), np.arange(100_000))

    def test_shuffle_matches_permutation(self):
        perm = Rng(8).permutation(64)
        items = [f"x{i}" for i in range(64)]
        Rng(8).shuffle(items)
        assert items == [f"x{i}" for i in perm]

    @pytest.mark.parametrize("n", [1, 2, 64, 7, 1000, 2**63])
    def test_integers_in_range(self, n):
        vals = Rng(17).randrange(n, 5000)
        assert vals.dtype == np.int64 and vals.shape == (5000,)
        assert vals.min() >= 0 and vals.max() < n
        if n == 1:
            assert not vals.any()

    @pytest.mark.parametrize("n", [7, 16, 100])
    def test_integers_balanced(self, n):
        size = 20_000
        counts = np.bincount(Rng(29).randrange(n, size), minlength=n)
        expected = size / n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # loose bound: about 4 standard deviations above the mean of chi2(n-1)
        assert chi2 < (n - 1) + 4.0 * (2.0 * (n - 1)) ** 0.5

    def test_integers_deterministic_and_empty(self):
        assert np.array_equal(Rng(3).randrange(11, 300), Rng(3).randrange(11, 300))
        assert Rng(3).randrange(11, 0).size == 0

    @pytest.mark.parametrize("n", [0, -1, 2**63 + 1])
    def test_integers_rejects_bad_n(self, n):
        with pytest.raises(DomainError):
            Rng(1).randrange(n, 4)


def _brute_force_covariance(rows):
    rows = [list(map(float, r)) for r in rows]
    n, d = len(rows), len(rows[0])
    mean = [sum(r[j] for r in rows) / n for j in range(d)]
    cov = [[0.0] * d for _ in range(d)]
    for r in rows:
        for i in range(d):
            for j in range(d):
                cov[i][j] += (r[i] - mean[i]) * (r[j] - mean[j])
    for i in range(d):
        for j in range(d):
            cov[i][j] /= n - 1
    return np.array(mean), np.array(cov)


class TestCovariance:
    def test_two_point_case(self):
        mean, cov = covariance([(0.0, 0.0), (2.0, 2.0)])
        assert np.array_equal(mean, [1.0, 1.0])
        assert np.array_equal(cov, [[2.0, 2.0], [2.0, 2.0]])

    def test_constant_rows_zero_covariance(self):
        mean, cov = covariance([(3.0, -1.0, 5.0)] * 6)
        assert np.array_equal(mean, [3.0, -1.0, 5.0])
        assert np.array_equal(cov, np.zeros((3, 3)))

    def test_matches_brute_force_double_loop(self):
        rng = np.random.default_rng(101)
        rows = [[rng.normal(2.0, 3.0) for _ in range(4)] for _ in range(50)]
        mean, cov = covariance(rows)
        ref_mean, ref_cov = _brute_force_covariance(rows)
        assert np.abs(mean - ref_mean).max() < 1e-12
        assert np.abs(cov - ref_cov).max() < 1e-12

    @pytest.mark.invariant
    def test_exactly_symmetric_nonnegative_diagonal(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rows = [[rng.normal() for _ in range(5)] for _ in range(30)]
            _, cov = covariance(rows)
            assert np.array_equal(cov, cov.T)
            assert (np.diag(cov) >= 0.0).all()

    def test_errors(self):
        with pytest.raises(DataError, match="covariance needs >= 2 rows, got 1"):
            covariance([(1.0, 2.0)])
        with pytest.raises(ShapeError):
            covariance([(1.0, 2.0), (1.0, 2.0, 3.0)])
        with pytest.raises(DomainError):
            covariance([(1.0, float("nan")), (2.0, 3.0)])


def _random_spd(rng, d):
    b = np.array([[rng.normal() for _ in range(d)] for _ in range(d)])
    a = b.T @ b + np.eye(d)
    return (a + a.T) / 2.0


class TestCholesky:
    def test_identity(self):
        factor = cholesky(np.eye(3))
        assert np.array_equal(factor.lower, np.eye(3))
        assert factor.jitter == 0.0

    def test_diagonal(self):
        factor = cholesky(np.array([[4.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(factor.lower, np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_reconstructs_random_spd(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5, 7):
            a = _random_spd(rng, d)
            factor = cholesky(a)
            assert np.abs(factor.lower @ factor.lower.T - a).max() < 1e-10
            assert np.array_equal(np.triu(factor.lower, k=1), np.zeros((d, d)))
            assert (np.diag(factor.lower) > 0).all()

    def test_jitter_rescues_semidefinite(self):
        # rank-1 matrix: singular, only factorizable with diagonal loading
        v = np.array([1.0, 2.0, 3.0])
        a = np.outer(v, v)
        factor = cholesky(a)
        assert factor.jitter > 0.0
        target = a + factor.jitter * np.eye(3)
        assert np.abs(factor.lower @ factor.lower.T - target).max() < 1e-8

    def test_not_positive_definite_at_cap(self):
        not_pd = "^covariance is not positive definite: its trace is not positive$"
        with pytest.raises(NumericError, match=not_pd):
            cholesky(np.array([[-1.0, 0.0], [0.0, -2.0]]))
        with pytest.raises(NumericError, match=not_pd):
            cholesky(np.zeros((3, 3)))
        # eigenvalues 3 and -1: no jitter up to the cap 1e-3 * trace/d makes it positive definite
        at_cap = "^covariance is not positive definite: factorization failed at jitter cap 0.001$"
        with pytest.raises(NumericError, match=at_cap):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric_and_nonsquare(self):
        with pytest.raises(ShapeError):
            cholesky(np.array([[1.0, 0.5], [0.1, 1.0]]))
        with pytest.raises(ShapeError):
            cholesky(np.ones((2, 3)))


class TestSolveSpd:
    def test_identity(self):
        factor = cholesky(np.eye(2))
        assert np.array_equal(solve_spd(factor, np.array([3.0, -1.0])), [3.0, -1.0])

    def test_diagonal_division(self):
        factor = cholesky(np.array([[4.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(solve_spd(factor, np.array([4.0, 1.0])), [1.0, 1.0])

    def test_residual_of_random_system(self):
        rng = np.random.default_rng(23)
        for d in (2, 4, 7):
            a = _random_spd(rng, d)
            b = np.array([rng.normal() for _ in range(d)])
            x = solve_spd(cholesky(a), b)
            assert np.abs(a @ x - b).max() < 1e-9

    @pytest.mark.invariant
    def test_each_column_solves_as_alone(self):
        # B (d, n) holds one right-hand side per column, as in np.linalg.solve
        rng = np.random.default_rng(37)
        for d in (1, 3, 7):
            a = _random_spd(rng, d)
            b = rng.normal(size=(d, 40))
            kept = b.copy()
            x = solve_spd(cholesky(a), b)
            assert x.shape == (d, 40) and np.array_equal(b, kept)
            for j in range(40):
                assert solve_spd(cholesky(a), b[:, j]).tobytes() == x[:, j].tobytes()
            assert solve_spd(cholesky(a), b[:, ::3]).tobytes() == x[:, ::3].tobytes()  # a strided B
            assert np.abs(a @ x - b).max() < 1e-9

    @pytest.mark.invariant
    def test_round_trip_recovers_solution(self):
        # solve_spd(cholesky(A, 0), A @ x0) == x0 for seeded SPD systems, d <= 10
        rng = np.random.default_rng(31)
        for trial in range(40):
            d = 1 + trial % 10
            a = _random_spd(rng, d)
            x0 = np.array([rng.normal() for _ in range(d)])
            x = solve_spd(cholesky(a), a @ x0)
            denom = max(1e-12, float(np.abs(x0).max()))
            assert np.abs(x - x0).max() / denom < 1e-9


class TestPercentile:
    """`order_statistic`: the sorted value at rank ceil(p/100 * (n-1))."""

    def test_singleton(self):
        for p in (0.0, 37.5, 85.0, 100.0):
            assert order_statistic([7.0], p) == 7.0

    def test_hand_evaluated_ranks(self):
        # rank = ceil(0.85 * 99) = ceil(84.15) = 85 over 1..100
        assert order_statistic(list(range(1, 101)), 85.0) == 86.0
        # rank = ceil(0.5 * 3) = 2 over {1,2,3,4}
        assert order_statistic([1.0, 2.0, 3.0, 4.0], 50.0) == 3.0

    def test_endpoints(self):
        vals = [5.0, -2.0, 9.0, 0.5]
        assert order_statistic(vals, 0.0) == -2.0
        assert order_statistic(vals, 100.0) == 9.0

    @pytest.mark.invariant
    def test_monotone_in_p_and_permutation_invariant(self):
        rng = np.random.default_rng(77)
        vals = [rng.normal() for _ in range(41)]
        ps = [0.0, 10.0, 25.0, 50.0, 75.0, 85.0, 95.0, 100.0]
        results = [order_statistic(vals, p) for p in ps]
        assert results == sorted(results)
        shuffled = list(vals)
        rng.shuffle(shuffled)
        for p in ps:
            assert order_statistic(shuffled, p) == order_statistic(vals, p)

    def test_errors(self):
        with pytest.raises(DataError, match="order statistic of an empty list"):
            order_statistic([], 50.0)
        with pytest.raises(DomainError, match="outside"):
            order_statistic([1.0], -0.1)
        with pytest.raises(DomainError, match="outside"):
            order_statistic([1.0], 100.5)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="non-finite"):
                order_statistic([1.0, bad, 2.0], 85.0)

    def test_agrees_with_numpy_higher(self):
        rng = np.random.default_rng(123)
        vals = [rng.uniform(-10, 10) for _ in range(37)] + [1.5] * 5  # with ties
        for p in (0.0, 1.0, 12.3, 50.0, 85.0, 99.9, 100.0):
            assert order_statistic(vals, p) == float(np.percentile(vals, p, method="higher"))
