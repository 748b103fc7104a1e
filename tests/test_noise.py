import numpy as np
import numpy.testing as npt
import pytest

from nlts import (
    DegenerateSeriesError,
    NoiseSpec,
    ParamError,
    TimeSeries,
    inject_noise,
    standardized_draw,
    substream,
)
from nlts.noise import NOISE_KINDS

SAMPLED_KINDS = [k for k in NOISE_KINDS if k != "none"]


class TestNoiseSpec:
    def test_defaults_fill_in(self):
        spec = NoiseSpec(kind="gamma")
        assert spec.params == {"k": 2.0, "theta": 1.0}

    def test_partial_override(self):
        spec = NoiseSpec(kind="gaussian", params={"sigma": 3.0})
        assert spec.params == {"mu": 0.0, "sigma": 3.0}

    def test_unknown_kind(self):
        with pytest.raises(ParamError):
            NoiseSpec(kind="cauchy")

    def test_unknown_param(self):
        with pytest.raises(ParamError):
            NoiseSpec(kind="gaussian", params={"rate": 1.0})

    def test_negative_alpha(self):
        with pytest.raises(ParamError):
            NoiseSpec(kind="gaussian", alpha=-0.1)

    def test_non_finite_param(self):
        with pytest.raises(ParamError):
            NoiseSpec(kind="gaussian", params={"sigma": np.inf})

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("gaussian", {"sigma": 0.0}),
            ("uniform", {"a": 2.0, "b": 1.0}),
            ("uniform", {"a": 1.0, "b": 1.0}),
            ("laplace", {"b": -1.0}),
            ("gamma", {"k": 0.0}),
            ("gamma", {"theta": -2.0}),
            ("beta", {"a": 0.0}),
            ("geometric", {"p": 0.0}),
            ("geometric", {"p": 1.5}),
        ],
    )
    def test_invalid_family_params(self, kind, params):
        with pytest.raises(ParamError):
            NoiseSpec(kind=kind, params=params)

    def test_geometric_p_one_allowed(self):
        NoiseSpec(kind="geometric", params={"p": 1.0})


class TestStandardizedDraw:
    @pytest.mark.parametrize("kind", SAMPLED_KINDS)
    def test_zero_mean_unit_std(self, kind):
        spec = NoiseSpec(kind=kind)
        z = standardized_draw(spec, 200_000, substream(11, 0))
        assert abs(z.mean()) < 4.0 / np.sqrt(z.size) * 3.0
        assert abs(z.std(ddof=0) - 1.0) < 0.02

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("gaussian", {"mu": 5.0, "sigma": 0.3}),
            ("uniform", {"a": 2.0, "b": 9.0}),
            ("laplace", {"mu": -4.0, "b": 2.5}),
            ("gamma", {"k": 0.7, "theta": 3.0}),
            ("beta", {"a": 0.5, "b": 4.0}),
            ("geometric", {"p": 0.2}),
        ],
    )
    def test_nondefault_params_still_standardized(self, kind, params):
        spec = NoiseSpec(kind=kind, params=params)
        z = standardized_draw(spec, 400_000, substream(12, 0))
        assert abs(z.mean()) < 0.02
        assert abs(z.std(ddof=0) - 1.0) < 0.02

    def test_none_is_zeros(self):
        z = standardized_draw(NoiseSpec(kind="none"), 100, substream(0, 0))
        npt.assert_array_equal(z, np.zeros(100))

    def test_geometric_p_one_is_zeros(self):
        spec = NoiseSpec(kind="geometric", params={"p": 1.0})
        z = standardized_draw(spec, 64, substream(0, 0))
        npt.assert_array_equal(z, np.zeros(64))

    def test_geometric_support_starts_at_one(self):
        spec = NoiseSpec(kind="geometric", params={"p": 0.5})
        z = standardized_draw(spec, 50_000, substream(3, 0))
        # raw draws live on {1, 2, ...}; smallest standardized value is (1 - 2) / sqrt(2)
        assert z.min() == pytest.approx((1 - 2.0) / np.sqrt(2.0))

    def test_deterministic_given_substream(self):
        spec = NoiseSpec(kind="laplace")
        a = standardized_draw(spec, 1000, substream(42, 3))
        b = standardized_draw(spec, 1000, substream(42, 3))
        npt.assert_array_equal(a, b)

    def test_substreams_differ(self):
        spec = NoiseSpec(kind="gaussian")
        a = standardized_draw(spec, 1000, substream(42, 0))
        b = standardized_draw(spec, 1000, substream(42, 1))
        assert not np.array_equal(a, b)

    def test_adjacent_substreams_uncorrelated(self):
        n = 100_000
        a = substream(9, 0).standard_normal(n)
        b = substream(9, 1).standard_normal(n)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.01

    def test_finite(self):
        for kind in SAMPLED_KINDS:
            z = standardized_draw(NoiseSpec(kind=kind), 10_000, substream(1, 0))
            assert np.isfinite(z).all()

    def test_zero_count(self):
        z = standardized_draw(NoiseSpec(kind="gaussian"), 0, substream(0, 0))
        assert z.size == 0


class TestInjectNoise:
    def make_series(self, n=500, seed=0):
        vals = substream(seed, 99).normal(50.0, 4.0, n)
        return TimeSeries(vals, name="s")

    def test_alpha_zero_verbatim(self):
        s = self.make_series()
        out = inject_noise(s, NoiseSpec(kind="gaussian", alpha=0.0), substream(0, 0))
        assert out is s

    def test_kind_none_verbatim(self):
        s = self.make_series()
        out = inject_noise(s, NoiseSpec(kind="none", alpha=0.5), substream(0, 0))
        assert out is s

    def test_perturbation_scale(self):
        s = self.make_series(n=200_000)
        sigma_x = s.values.std(ddof=0)
        spec = NoiseSpec(kind="gaussian", alpha=0.05)
        out = inject_noise(s, spec, substream(21, 0))
        eps = out.values - s.values
        assert abs(eps.mean()) < 4 * 0.05 * sigma_x / np.sqrt(eps.size)
        assert abs(eps.std(ddof=0) - 0.05 * sigma_x) / (0.05 * sigma_x) < 0.02

    @pytest.mark.parametrize("kind", SAMPLED_KINDS)
    def test_all_kinds_zero_mean(self, kind):
        s = self.make_series(n=300_000, seed=SAMPLED_KINDS.index(kind))
        spec = NoiseSpec(kind=kind, alpha=0.02)
        out = inject_noise(s, spec, substream(5, 0))
        eps = out.values - s.values
        sigma = 0.02 * s.values.std(ddof=0)
        assert abs(eps.mean()) < 4 * sigma / np.sqrt(eps.size)

    def test_constant_series_raises(self):
        s = TimeSeries(np.full(10, 3.0))
        with pytest.raises(DegenerateSeriesError):
            inject_noise(s, NoiseSpec(kind="gaussian", alpha=0.01), substream(0, 0))

    def test_preserves_name(self):
        s = self.make_series()
        out = inject_noise(s, NoiseSpec(kind="uniform", alpha=0.1), substream(0, 0))
        assert out.name == "s"
