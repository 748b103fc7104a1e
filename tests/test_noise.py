import hashlib

import numpy as np
import numpy.testing as npt
import pytest

from nlts import (
    DegenerateSeriesError,
    NoiseSpec,
    NonFiniteError,
    ParamError,
    TimeSeries,
    inject_noise,
    standardized_draw,
    substream,
)
from nlts.noise import NOISE_KINDS, inject_noise_rows

SAMPLED_KINDS = [k for k in NOISE_KINDS if k != "none"]


class TestNoiseSpec:
    def test_defaults_fill_in(self):
        assert vars(NoiseSpec()) == {"kind": "gaussian", "alpha": 0.0}
        assert vars(NoiseSpec(kind="gamma")) == {"kind": "gamma", "alpha": 0.0}

    def test_unknown_kind(self):
        with pytest.raises(ParamError):
            NoiseSpec(kind="cauchy")

    def test_unknown_param(self):
        # each family has one fixed shape, so no family parameter is taken
        with pytest.raises(TypeError):
            NoiseSpec(kind="gaussian", params={"sigma": 3.0})

    def test_negative_alpha(self):
        with pytest.raises(ParamError):
            NoiseSpec(kind="gaussian", alpha=-0.1)


class TestStandardizedDraw:
    @pytest.mark.parametrize("kind", SAMPLED_KINDS)
    def test_zero_mean_unit_std(self, kind):
        spec = NoiseSpec(kind=kind)
        z = standardized_draw(spec, 200_000, substream(11, 0))
        assert abs(z.mean()) < 4.0 / np.sqrt(z.size) * 3.0
        assert abs(z.std(ddof=0) - 1.0) < 0.02

    def test_none_is_zeros(self):
        z = standardized_draw(NoiseSpec(kind="none"), 100, substream(0, 0))
        npt.assert_array_equal(z, np.zeros(100))

    def test_geometric_support_starts_at_one(self):
        z = standardized_draw(NoiseSpec(kind="geometric"), 50_000, substream(3, 0))
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

    # sha256 of every kind's draws at five sizes on two substreams. They rest
    # on numpy's Generator methods, whose streams numpy keeps stable within
    # its compatibility policy; a numpy that changes one needs new digests.
    PINNED_DIGESTS = {
        "gaussian": "65ef50c770360af8c153414ba05388869fd3ca7716e89dc60c4c5da40068b54e",
        "uniform": "35713995259a67c67bc16e1f3e22ec0ff059d45af9f4a10c34c8aefa676711b3",
        "laplace": "9a10f44bc967578e71b5f0b631b817d634dac3a697961c02d875b63cdfcaaca2",
        "gamma": "f7381d246f7274fa2e46e2c887d4f9e89eedcb9637d23108b619cd4cbf9a3924",
        "beta": "521ce3091651889eb567a25327593efd167b49464be832cee4bffc4667e5451f",
        "geometric": "bf4edc95600f06932b0339ace392cd8c203013261973f77670bfb6d26073b051",
        "none": "39c7e7a92605a094ab18bd03a36508a30b4431180ed07fe37c495eaaff46249d",
    }

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_draws_are_pinned_bitwise(self, kind):
        digest = hashlib.sha256()
        for n in (0, 1, 12, 132, 10_000):
            for i in (0, 3):
                digest.update(standardized_draw(NoiseSpec(kind=kind), n, substream(5, i)).tobytes())
        assert digest.hexdigest() == self.PINNED_DIGESTS[kind]

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


class TestInjectNoiseRows:
    @pytest.mark.parametrize("kind", SAMPLED_KINDS)
    @pytest.mark.parametrize("seed", [0, 91])
    @pytest.mark.parametrize("n", [12, 132])
    def test_row_i_is_inject_noise_on_substream_i(self, kind, seed, n):
        history = TimeSeries(substream(seed, 99).normal(50.0, 4.0, n) + np.arange(n), name="h")
        spec = NoiseSpec(kind=kind, alpha=0.07)
        rows = inject_noise_rows(history, spec, [substream(seed, i) for i in range(5)])
        assert rows.shape == (5, n)
        sigma_x = float(history.values.std(ddof=0))
        for i, row in enumerate(rows):
            single = inject_noise(history, spec, substream(seed, i)).values
            assert row.tobytes() == single.tobytes()
            z = standardized_draw(spec, n, substream(seed, i))
            assert row.tobytes() == (history.values + spec.alpha * sigma_x * z).tobytes()

    def test_constant_history_raises_the_inject_noise_message(self):
        history = TimeSeries(np.full(10, 3.0), name="flat")
        spec = NoiseSpec(kind="gaussian", alpha=0.01)
        with pytest.raises(DegenerateSeriesError) as single:
            inject_noise(history, spec, substream(0, 0))
        with pytest.raises(DegenerateSeriesError) as rows:
            inject_noise_rows(history, spec, [substream(0, i) for i in range(4)])
        assert str(rows.value) == str(single.value)
        assert "'flat' is constant" in str(rows.value)

    def test_overflow_raises_the_time_series_message(self):
        history = TimeSeries(np.array([0.0, 2e150]), name="huge")
        spec = NoiseSpec(kind="gaussian", alpha=1e200)  # alpha * sigma_x is inf
        with pytest.raises(NonFiniteError) as single:
            inject_noise(history, spec, substream(0, 0))
        with pytest.raises(NonFiniteError) as rows:
            inject_noise_rows(history, spec, [substream(0, i) for i in range(3)])
        assert str(rows.value) == str(single.value) == "series 'huge' contains NaN or infinity"

    @pytest.mark.parametrize("spec", [NoiseSpec("gaussian", 0.0), NoiseSpec("none", 0.5)])
    def test_adds_noise(self, spec):
        assert not spec.adds_noise
        assert NoiseSpec("beta", 0.1).adds_noise
