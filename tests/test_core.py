import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlts import (
    AggregationError,
    ConfigError,
    DegenerateSeriesError,
    NonFiniteError,
    PointForecast,
    SamplePaths,
    SplitSpec,
    TimeSeries,
    aggregate_samples,
    split_series,
)
from nlts.core import read_block


class TestTimeSeries:
    def test_basic(self):
        s = TimeSeries(np.array([1.0, 2.0, 3.0]), name="abc")
        assert len(s) == 3
        assert s.name == "abc"

    def test_values_read_only(self):
        s = TimeSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_rejects_empty(self):
        with pytest.raises(DegenerateSeriesError):
            TimeSeries(np.array([]))

    def test_rejects_2d(self):
        with pytest.raises(DegenerateSeriesError):
            TimeSeries(np.zeros((2, 2)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteError):
            TimeSeries(np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteError):
            TimeSeries(np.array([np.inf, 1.0]))

    def test_copies_input(self):
        raw = np.array([1.0, 2.0])
        s = TimeSeries(raw)
        raw[0] = 99.0
        assert s.values[0] == 1.0


class TestSplitSpec:
    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                SplitSpec.by_fraction(bad)

    def test_horizon_bounds(self):
        with pytest.raises(ConfigError):
            SplitSpec.by_horizon(0)

    @pytest.mark.parametrize("horizon", ["abc", 5.7, "2.5", [5], float("inf")])
    def test_horizon_must_be_whole(self, horizon):
        with pytest.raises(ConfigError, match="split.horizon must be a"):
            read_block(SplitSpec, {"horizon": horizon}, "split.")

    def test_numbers_are_coerced(self):
        assert read_block(SplitSpec, {"horizon": "5"}, "split.").horizon == 5
        assert type(read_block(SplitSpec, {"horizon": 5.0}, "split.").horizon) is int
        assert read_block(SplitSpec, {"mode": "fraction", "fraction": "0.5"}, "split.").fraction == 0.5

    def test_mutually_exclusive(self):
        with pytest.raises(ConfigError):
            SplitSpec("fraction", fraction=0.5, horizon=3)
        with pytest.raises(ConfigError):
            SplitSpec("weird")


class TestSplitSeries:
    def test_fraction_takes_ceil(self):
        s = TimeSeries(np.arange(10, dtype=float))
        hist, tgt = split_series(s, SplitSpec.by_fraction(0.8))
        assert len(hist) == 8 and len(tgt) == 2
        npt.assert_array_equal(np.concatenate([hist.values, tgt.values]), s.values)

    def test_fraction_float_noise(self):
        # 0.7 * 10 evaluates to 7.000000000000001; ceil must still give 7
        s = TimeSeries(np.arange(10, dtype=float))
        hist, _ = split_series(s, SplitSpec.by_fraction(0.7))
        assert len(hist) == 7

    def test_fraction_odd_length(self):
        s = TimeSeries(np.arange(7, dtype=float))
        hist, tgt = split_series(s, SplitSpec.by_fraction(0.8))
        assert len(hist) == 6 and len(tgt) == 1  # ceil(5.6)

    def test_horizon(self):
        s = TimeSeries(np.arange(40, dtype=float))
        hist, tgt = split_series(s, SplitSpec.by_horizon(30))
        assert len(hist) == 10 and len(tgt) == 30

    def test_too_short(self):
        s = TimeSeries(np.arange(3, dtype=float))
        with pytest.raises(ConfigError):
            split_series(s, SplitSpec.by_horizon(3))
        with pytest.raises(ConfigError):
            split_series(TimeSeries(np.array([1.0])), SplitSpec.by_fraction(0.5))

    def test_preserves_metadata(self):
        s = TimeSeries(np.arange(10, dtype=float), name="x")
        hist, tgt = split_series(s, SplitSpec.by_horizon(2))
        assert hist.name == tgt.name == "x"


class TestSamplePaths:
    def test_shape(self):
        sp = SamplePaths(np.zeros((3, 5)))
        assert sp.num_samples == 3 and sp.horizon == 5

    def test_ragged(self):
        with pytest.raises(AggregationError):
            SamplePaths([[1.0, 2.0], [1.0]])

    def test_non_finite(self):
        with pytest.raises(AggregationError):
            SamplePaths(np.array([[1.0, np.nan]]))

    def test_wrong_rank(self):
        with pytest.raises(AggregationError):
            SamplePaths(np.zeros(4))
        with pytest.raises(AggregationError):
            SamplePaths(np.zeros((0, 3)))


def _brute_force(paths: np.ndarray, levels):
    """Independent sort-based oracle for median/quantiles/variance."""
    m, h = paths.shape
    med = np.empty(h)
    var = np.empty(h)
    qs = {q: np.empty(h) for q in levels}
    for j in range(h):
        col = np.sort(paths[:, j])
        if m % 2:
            med[j] = col[m // 2]
        else:
            med[j] = (col[m // 2 - 1] + col[m // 2]) / 2.0
        mean = col.sum() / m
        var[j] = ((col - mean) ** 2).sum() / m
        for q in levels:
            pos = q * (m - 1)
            lo = int(np.floor(pos))
            frac = pos - lo
            hi = min(lo + 1, m - 1)
            qs[q][j] = col[lo] + frac * (col[hi] - col[lo])
    return med, var, qs


class TestAggregateSamples:
    def test_single_sample(self):
        f = aggregate_samples(SamplePaths(np.array([[1.0, 2.0, 3.0]])))
        npt.assert_array_equal(f.median, [1.0, 2.0, 3.0])
        npt.assert_array_equal(f.variance, [0.0, 0.0, 0.0])

    def test_odd_median_is_element(self):
        paths = np.array([[1.0], [5.0], [2.0]])
        f = aggregate_samples(SamplePaths(paths))
        assert f.median[0] == 2.0

    def test_even_median_averages_central_pair(self):
        paths = np.array([[1.0], [2.0], [10.0], [20.0]])
        f = aggregate_samples(SamplePaths(paths))
        assert f.median[0] == 6.0

    def test_variance_is_population(self):
        paths = np.array([[1.0], [3.0]])
        f = aggregate_samples(SamplePaths(paths))
        assert f.variance[0] == 1.0  # ddof=0; sample variance would be 2

    def test_half_quantile_is_median(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(1, 12))
            h = int(rng.integers(1, 9))
            f = aggregate_samples(SamplePaths(rng.normal(size=(m, h))))
            npt.assert_array_equal(f.quantiles[0.5], f.median)

    def test_quantiles_monotone_across_levels(self):
        rng = np.random.default_rng(8)
        levels = (0.05, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 0.95)
        for _ in range(100):
            m = int(rng.integers(1, 20))
            f = aggregate_samples(
                SamplePaths(rng.normal(size=(m, 6)) * 100), quantile_levels=levels
            )
            keys = sorted(f.quantiles)
            for lo, hi in zip(keys, keys[1:]):
                assert np.all(f.quantiles[lo] <= f.quantiles[hi])

    def test_level_outside_unit_interval(self):
        sp = SamplePaths(np.zeros((2, 2)))
        for bad in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(AggregationError):
                aggregate_samples(sp, quantile_levels=(bad,))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1234)
        levels = (0.05, 0.25, 0.75, 0.95)
        for _ in range(300):
            m = int(rng.integers(1, 26))
            h = int(rng.integers(1, 65))
            # scale capped so the 1e-12 absolute tolerance stays above ulp size
            paths = rng.normal(0.0, 1.0, size=(m, h)) * rng.uniform(0.1, 10.0)
            f = aggregate_samples(SamplePaths(paths), quantile_levels=levels)
            med, var, qs = _brute_force(paths, levels)
            npt.assert_array_equal(f.median, med)
            npt.assert_allclose(f.variance, var, atol=1e-12, rtol=0)
            for q in levels:
                npt.assert_allclose(f.quantiles[q], qs[q], atol=1e-12, rtol=0)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        paths = rng.normal(size=(9, 12))
        f1 = aggregate_samples(SamplePaths(paths))
        f2 = aggregate_samples(SamplePaths(paths[rng.permutation(9)]))
        npt.assert_array_equal(f1.median, f2.median)
        npt.assert_allclose(f1.variance, f2.variance, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 15),
        h=st.integers(1, 10),
        shift=st.floats(-1e3, 1e3, allow_nan=False),
        seed=st.integers(0, 10_000),
    )
    def test_median_shift_equivariance(self, m, h, shift, seed):
        paths = np.random.default_rng(seed).normal(size=(m, h))
        base = aggregate_samples(SamplePaths(paths)).median
        shifted = aggregate_samples(SamplePaths(paths + shift)).median
        npt.assert_allclose(shifted, base + shift, rtol=0, atol=1e-9)

    def test_adding_high_path_never_lowers_median(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 10))
            paths = rng.normal(size=(m, 5))
            base = aggregate_samples(SamplePaths(paths)).median
            top = paths.max() + 10.0
            grown = aggregate_samples(
                SamplePaths(np.vstack([paths, np.full((1, 5), top)]))
            ).median
            assert np.all(grown >= base)

    def test_forecast_metadata(self):
        f = aggregate_samples(SamplePaths(np.zeros((2, 7))))
        assert isinstance(f, PointForecast)
        assert f.horizon == 7
        assert set(f.quantiles) == {0.05, 0.25, 0.5, 0.75, 0.95}


def _reference_aggregate(samples, quantile_levels):
    """aggregate_samples as first written, one np.quantile call per level,
    with each curve's signed zeros made +0.0; the batched implementation must
    match it bitwise."""
    levels = sorted({float(q) for q in quantile_levels} | {0.5})
    arr = samples.paths
    median = np.median(arr, axis=0) + 0.0
    variance = arr.var(axis=0, ddof=0)
    quantiles = {}
    running = np.full(arr.shape[1], -np.inf)
    for q in levels:
        if q < 0.5:
            curve = np.minimum(np.quantile(arr, q, axis=0) + 0.0, median)
        elif q == 0.5:
            curve = median
        else:
            curve = np.maximum(np.quantile(arr, q, axis=0) + 0.0, median)
        running = np.maximum(running, curve)
        quantiles[q] = running
    return PointForecast(median=median, variance=variance, quantiles=quantiles)


def _bits(forecast):
    return (
        forecast.median.tobytes(),
        forecast.variance.tobytes(),
        [(q, v.tobytes()) for q, v in forecast.quantiles.items()],
    )


class TestAggregateMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 12),
        h=st.integers(1, 6),
        data=st.data(),
        levels=st.lists(
            st.one_of(
                st.sampled_from([0.05, 0.25, 0.5, 0.75, 0.95, 1 / 3]),
                st.floats(0.001, 0.999),
            ),
            max_size=8,
        ),
    )
    def test_bit_identical(self, m, h, data, levels):
        value = st.one_of(st.floats(-1e9, 1e9), st.sampled_from([0.0, -0.0, 1.5, 1e-300]))
        paths = np.array(data.draw(st.lists(
            st.lists(value, min_size=h, max_size=h), min_size=m, max_size=m,
        )))
        levels = levels + levels[:2]  # duplicates collapse to one curve
        sp = SamplePaths(paths)
        assert _bits(aggregate_samples(sp, tuple(levels))) == _bits(
            _reference_aggregate(sp, levels)
        )

    @pytest.mark.parametrize("levels", [(0.25, 0.75), (0.75,)])
    def test_signed_zero_ties(self, levels):
        # np.quantile at (0.25, 0.75) gives this column's 0.75 quantile as 0.0,
        # and at 0.75 alone as -0.0: the partition orders equal zeros by kth
        column = [-1.0, -1.0, -1.0, 0.0, -0.0, -0.0, 0.0, 1.0, -1.0, -1.0]
        sp = SamplePaths(np.array(column)[:, None])
        got = aggregate_samples(sp, levels)
        assert _bits(got) == _bits(_reference_aggregate(sp, levels))
        assert got.quantiles[0.75].tolist() == [0.0]
        assert not np.signbit(got.quantiles[0.75]).any()

    def test_median_only(self):
        sp = SamplePaths(np.array([[1.0, 4.0], [2.0, 8.0]]))
        assert _bits(aggregate_samples(sp, (0.5, 0.5))) == _bits(_reference_aggregate(sp, ()))
