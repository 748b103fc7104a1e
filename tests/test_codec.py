import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlts import (
    CodecConfig,
    ConfigError,
    DegenerateSeriesError,
    DigitOverflowError,
    NonFiniteError,
    ParseError,
    Scaler,
    TimeSeries,
    deserialize,
    fit_scaler,
    serialize,
)
from nlts.codec import (
    DIGIT_SEPARATOR,
    STEP_SEPARATOR,
    ParseReport,
    _fragment_bins,
    _whole_text_bins,
    decode_rows,
    fit_scalers,
    parse_bins,
    quantize,
    serialize_rows,
)


class TestCodecConfig:
    def test_defaults(self):
        cfg = CodecConfig()
        assert cfg.precision_k == 3
        assert cfg.scale_quantile == 0.95
        assert cfg.offset_beta == 0.3
        assert cfg.half_bin_correction

    def test_rejects_bad_precision(self):
        with pytest.raises(ConfigError):
            CodecConfig(precision_k=-1)
        with pytest.raises(ConfigError):
            CodecConfig(precision_k=11)

    def test_rejects_tight_digit_budget(self):
        with pytest.raises(ConfigError):
            CodecConfig(precision_k=5, max_digits_per_value=5)

    def test_digit_budget_stops_at_the_widest_bin(self):
        with pytest.raises(ConfigError, match=r"^codec\.max_digits_per_value must be <= 19, got 20$"):
            CodecConfig(max_digits_per_value=20)
        cfg = CodecConfig(precision_k=0, half_bin_correction=False, max_digits_per_value=19)
        values, report = deserialize("9" * 19 + ", 1", Scaler(), cfg, 2)
        assert values.tolist() == [float("9" * 19), 1.0]
        assert report.parsed_steps == 2

    def test_rejects_bad_quantile(self):
        with pytest.raises(ConfigError):
            CodecConfig(scale_quantile=0.0)
        with pytest.raises(ConfigError):
            CodecConfig(scale_quantile=1.2)


class TestScaler:
    def test_round_trip(self):
        sc = Scaler(offset=3.0, scale=7.0)
        x = np.array([-5.0, 0.0, 3.0, 100.0])
        npt.assert_allclose(sc.inverse(sc.forward(x)), x, rtol=1e-15)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ConfigError):
            Scaler(scale=0.0)
        with pytest.raises(ConfigError):
            Scaler(scale=-1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        offset=st.floats(-1e6, 1e6),
        scale=st.floats(1e-6, 1e6),
        x=st.floats(-1e9, 1e9),
    )
    def test_forward_inverse_close(self, offset, scale, x):
        sc = Scaler(offset=offset, scale=scale)
        back = float(sc.inverse(sc.forward(np.array([x])))[0])
        assert back == pytest.approx(x, rel=1e-9, abs=1e-6)


class TestFitScaler:
    def test_unsigned_offset_and_quantile(self):
        vals = np.arange(101, dtype=float)  # 0..100
        cfg = CodecConfig(signed=False, offset_beta=0.0, scale_quantile=0.95)
        sc = fit_scaler(vals, cfg)
        assert sc.offset == 0.0
        assert sc.scale == pytest.approx(95.0)

    def test_unsigned_beta_offset(self):
        vals = np.array([10.0, 20.0, 30.0])
        cfg = CodecConfig(signed=False, offset_beta=0.3)
        sc = fit_scaler(vals, cfg)
        assert sc.offset == pytest.approx(10.0 - 0.3 * 20.0)

    def test_signed_keeps_zero_offset(self):
        vals = np.array([-50.0, 0.0, 50.0])
        sc = fit_scaler(vals, CodecConfig(signed=True))
        assert sc.offset == 0.0
        assert sc.scale > 0

    def test_constant_series_scale_one(self):
        vals = np.full(10, 4.0)
        sc = fit_scaler(vals, CodecConfig(signed=False))
        assert sc.offset == 4.0
        assert sc.scale == 1.0

    def test_signed_scaler_is_sign_symmetric(self):
        cfg = CodecConfig(signed=True)
        assert fit_scaler([-30.0, -20.0, -10.0], cfg) == fit_scaler([30.0, 20.0, 10.0], cfg)
        x = 1e7 + np.arange(5.0)
        assert fit_scaler(-x, cfg) == fit_scaler(x, cfg)
        for vals in (x, -x):
            scaler = fit_scaler(vals, cfg)
            dec, _ = deserialize(serialize(vals, scaler, cfg), scaler, cfg, horizon=5)
            npt.assert_allclose(dec, vals, atol=scaler.scale * 10.0**-cfg.precision_k)

    def test_unsigned_values_nonnegative_after_shift(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            vals = rng.normal(rng.uniform(-100, 100), rng.uniform(0.1, 50), 40)
            sc = fit_scaler(vals, CodecConfig(signed=False))
            assert np.all(sc.forward(vals) >= 0)

    def test_empty_history(self):
        with pytest.raises(DegenerateSeriesError):
            fit_scaler(np.array([]), CodecConfig())

    def test_non_finite_history(self):
        with pytest.raises(NonFiniteError):
            fit_scaler(np.array([1.0, np.nan]), CodecConfig())


def _reference_fit_scaler(history, config):
    """fit_scaler as first written, one history at a time; fit_scalers must
    give the same scaler for every nonnegative row."""
    vals = np.asarray(history, dtype=float)
    if config.signed:
        offset = 0.0
    else:
        lo = float(vals.min())
        hi = float(vals.max())
        offset = lo - config.offset_beta * (hi - lo)
    scale = float(np.quantile(vals - offset, config.scale_quantile))
    if scale <= 0.0:
        scale = 1.0
    return offset.hex(), scale.hex()


class TestFitScalersMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 30),
        data=st.data(),
        signed=st.booleans(),
        q=st.sampled_from([0.95, 0.5, 1.0, 0.01, 0.3333]),
        beta=st.sampled_from([0.3, 0.0, 1.7]),
    )
    def test_rows_bit_identical(self, m, n, data, signed, q, beta):
        value = st.one_of(st.floats(0.0, 1e12), st.sampled_from([0.0, 5e-324, 40.5]))
        rows = np.array(data.draw(st.lists(
            st.lists(value, min_size=n, max_size=n), min_size=m, max_size=m,
        )))
        cfg = CodecConfig(signed=signed, scale_quantile=q, offset_beta=beta)
        got = fit_scalers(rows, cfg)
        assert len(got) == m
        for row, scaler in zip(rows, got):
            assert (scaler.offset.hex(), scaler.scale.hex()) == _reference_fit_scaler(row, cfg)
            assert fit_scaler(row, cfg) == scaler

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(1, 5),
        n=st.integers(1, 40),
        data=st.data(),
        signed=st.booleans(),
        q=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    )
    @example(m=1, n=1, data=None, signed=False, q=1.0)
    @example(m=2, n=2, data=None, signed=True, q=0.5)
    def test_scale_is_np_quantile_of_the_rows(self, m, n, data, signed, q):
        """fit_scalers reads the scale from one partition; it must be the old
        np.quantile(shifted, q, axis=1) bit for bit, with ties and signed
        zeros among the values."""
        if data is None:
            rows = np.array([-0.0, 0.0, 3.0, 3.0])[: m * n].reshape(m, n)
        else:
            pool = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3))
            value = st.one_of(st.sampled_from(pool + [0.0, -0.0]), st.floats(-1e12, 1e12))
            rows = np.array(data.draw(st.lists(
                st.lists(value, min_size=n, max_size=n), min_size=m, max_size=m,
            )))
        cfg = CodecConfig(signed=signed, scale_quantile=q)
        if signed:
            offsets, shifted = np.zeros(m), np.abs(rows)
        else:
            lo = rows.min(axis=1)
            offsets = lo - cfg.offset_beta * (rows.max(axis=1) - lo)
            shifted = rows - offsets[:, None]
        scales = np.quantile(shifted, q, axis=1)
        scales[scales <= 0.0] = 1.0
        got = [(s.offset.hex(), s.scale.hex()) for s in fit_scalers(rows, cfg)]
        assert got == [(o.hex(), s.hex()) for o, s in zip(offsets.tolist(), scales.tolist())]

    def test_constant_and_zero_rows_fall_back(self):
        rows = np.array([[4.0, 4.0, 4.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        for cfg in (CodecConfig(signed=False), CodecConfig(signed=True)):
            for row, scaler in zip(rows, fit_scalers(rows, cfg)):
                assert (scaler.offset.hex(), scaler.scale.hex()) == _reference_fit_scaler(row, cfg)

    def test_zero_rows(self):
        assert fit_scalers(np.zeros((0, 5)), CodecConfig()) == []

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_zero_columns(self, m):
        with pytest.raises(DegenerateSeriesError):
            fit_scalers(np.zeros((m, 0)), CodecConfig())

    @pytest.mark.parametrize("row", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_any_row(self, row, bad):
        rows = np.ones((3, 4))
        rows[row, 2] = bad
        with pytest.raises(NonFiniteError):
            fit_scalers(rows, CodecConfig())

    def test_needs_two_dimensions(self):
        with pytest.raises(ConfigError):
            fit_scalers(np.ones(4), CodecConfig())


class TestWorkedExamples:
    """Hand-computed encodings frozen as regression anchors."""

    def test_spaced_k2(self):
        enc = serialize([0.314, 3.14, 31.4, 314.0], Scaler(), CodecConfig(precision_k=2))
        assert enc == "3 1, 3 1 4, 3 1 4 0, 3 1 4 0 0"

    def test_spaced_k0(self):
        enc = serialize([22.0, 25.0, 28.0], Scaler(), CodecConfig(precision_k=0))
        assert enc == "2 2, 2 5, 2 8"

    def test_precision_scaling_k3(self):
        assert serialize([2.718], Scaler(), CodecConfig(precision_k=3)) == "2 7 1 8"

    def test_basic_mode_concatenates(self):
        cfg = CodecConfig(precision_k=2, basic_mode=True)
        assert serialize([0.314, 3.14], Scaler(), cfg) == "31, 314"

    def test_negative_signed(self):
        cfg = CodecConfig(precision_k=1, signed=True)
        enc = serialize([-2.5], Scaler(), cfg)
        assert enc == "-2 5"

    def test_zero(self):
        assert serialize([0.0], Scaler(), CodecConfig(precision_k=0)) == "0"

    def test_floor_not_round(self):
        # 2.9999 at k=0 floors to 2; only float noise snaps, not real distance
        assert serialize([2.9999], Scaler(), CodecConfig(precision_k=0)) == "2"
        assert serialize([2.9999], Scaler(), CodecConfig(precision_k=3)) == "2 9 9 9"

    def test_float_noise_snaps(self):
        # 270573.97 * 100 = 27057396.999999996 in float; must encode as ...97
        cfg = CodecConfig(precision_k=2, max_digits_per_value=12)
        enc = serialize([270573.97], Scaler(), cfg)
        assert enc.replace(" ", "") == "27057397"

    def test_scaler_applied_before_digits(self):
        sc = Scaler(offset=0.0, scale=10.0)
        assert serialize([25.0], sc, CodecConfig(precision_k=1)) == "2 5"


class TestSerializeErrors:
    def test_negative_unsigned(self):
        with pytest.raises(DigitOverflowError):
            serialize([-1.0], Scaler(), CodecConfig(signed=False, precision_k=0))

    def test_negative_basic_mode(self):
        with pytest.raises(DigitOverflowError):
            serialize([-1.0], Scaler(), CodecConfig(basic_mode=True, precision_k=0))

    def test_too_many_digits(self):
        cfg = CodecConfig(precision_k=0, max_digits_per_value=3)
        with pytest.raises(DigitOverflowError):
            serialize([12345.0], Scaler(), cfg)

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            serialize(np.array([np.inf]), Scaler(), CodecConfig())


class TestDeserialize:
    def test_half_bin_correction(self):
        cfg = CodecConfig(precision_k=3, half_bin_correction=True)
        vals, _ = deserialize("2 7 1 8", Scaler(), cfg, horizon=1)
        assert vals[0] == pytest.approx(2.7185)

    def test_no_half_bin(self):
        cfg = CodecConfig(precision_k=3, half_bin_correction=False)
        vals, _ = deserialize("2 7 1 8", Scaler(), cfg, horizon=1)
        assert vals[0] == pytest.approx(2.718)

    def test_inverts_scaler(self):
        sc = Scaler(offset=100.0, scale=2.0)
        cfg = CodecConfig(precision_k=0, half_bin_correction=False)
        vals, _ = deserialize("5", sc, cfg, horizon=1)
        assert vals[0] == pytest.approx(110.0)

    def test_junk_inside_fragment_is_stripped(self):
        cfg = CodecConfig(precision_k=0, half_bin_correction=False)
        vals, rep = deserialize("answer: 4 2, then 1 7", Scaler(), cfg, horizon=2)
        npt.assert_allclose(vals, [42.0, 17.0])
        assert rep.discarded_fragments == 0

    def test_digit_free_fragment_discarded(self):
        cfg = CodecConfig(precision_k=0, half_bin_correction=False)
        vals, rep = deserialize("1, not sure, 3", Scaler(), cfg, horizon=3)
        npt.assert_allclose(vals, [1.0, 3.0])
        assert rep.discarded_fragments == 1
        assert rep.truncated  # only 2 of 3 requested steps parsed

    def test_trailing_separator_not_discarded(self):
        cfg = CodecConfig(precision_k=0, half_bin_correction=False)
        vals, rep = deserialize("1, 2, ", Scaler(), cfg, horizon=4)
        assert rep.parsed_steps == 2
        assert rep.discarded_fragments == 0

    def test_truncates_at_horizon(self):
        cfg = CodecConfig(precision_k=0, half_bin_correction=False)
        vals, rep = deserialize("1, 2, 3, 4, 5", Scaler(), cfg, horizon=3)
        assert list(vals) == [1.0, 2.0, 3.0]
        assert rep.parsed_steps == 3
        assert not rep.truncated

    def test_negative_value(self):
        cfg = CodecConfig(precision_k=1, half_bin_correction=False)
        vals, _ = deserialize("-2 5", Scaler(), cfg, horizon=1)
        assert vals[0] == pytest.approx(-2.5)

    def test_nothing_parses(self):
        cfg = CodecConfig(precision_k=0)
        with pytest.raises(ParseError) as err:
            deserialize("no numbers here at all", Scaler(), cfg, horizon=2)
        assert err.value.report is not None
        assert err.value.report.parsed_steps == 0
        assert err.value.report.discarded_fragments >= 1

    def test_report_counts(self):
        cfg = CodecConfig(precision_k=0, half_bin_correction=False)
        text = "7, 8"
        _, rep = deserialize(text, Scaler(), cfg, horizon=5)
        assert rep.requested_steps == 5
        assert rep.parsed_steps == 2
        assert rep.truncated
        assert rep.raw_text_length == len(text)

    def test_bad_horizon(self):
        with pytest.raises(ConfigError):
            deserialize("1", Scaler(), CodecConfig(), horizon=0)


def _grammar_regex(cfg: CodecConfig) -> re.Pattern:
    d_sep = re.escape(DIGIT_SEPARATOR)
    s_sep = re.escape(STEP_SEPARATOR)
    if cfg.basic_mode:
        step = r"\d+"
    else:
        sign = r"-?" if cfg.signed else ""
        step = sign + r"\d(?:" + d_sep + r"\d)*"
    return re.compile(rf"^{step}(?:{s_sep}{step})*$")


class TestRoundTripProperty:
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("basic", [True, False])
    @pytest.mark.parametrize("half_bin", [True, False])
    def test_round_trip_bound(self, signed, basic, half_bin):
        rng = np.random.default_rng(hash((signed, basic, half_bin)) % 2**31)
        for trial in range(40):
            k = int(rng.integers(0, 6))
            cfg = CodecConfig(
                precision_k=k,
                signed=signed,
                basic_mode=basic,
                half_bin_correction=half_bin,
                max_digits_per_value=19,
            )
            n = int(rng.integers(1, 64))
            magnitude = 10.0 ** rng.uniform(-3, 4)
            vals = rng.normal(rng.uniform(-1, 1) * magnitude, magnitude, n)
            if basic or not signed:
                vals = np.abs(vals)
            series = TimeSeries(vals)
            scaler = fit_scaler(series, cfg)
            enc = serialize(series, scaler, cfg)
            assert _grammar_regex(cfg).match(enc), enc
            dec, rep = deserialize(enc, scaler, cfg, horizon=n)
            assert rep.parsed_steps == n
            assert rep.discarded_fragments == 0
            bound = (0.5 if half_bin else 1.0) * scaler.scale * 10.0 ** (-k)
            max_err = float(np.max(np.abs(dec - vals)))
            assert max_err <= bound * (1 + 1e-12), (max_err, bound)

    def test_quantize_matches_exact_decimal_grid(self):
        # values that are exact multiples of the bin must land in their own bin
        rng = np.random.default_rng(99)
        for k in range(6):
            bins = rng.integers(0, 10**6, 200)
            vals = bins / 10.0**k
            got = quantize(vals, Scaler(), CodecConfig(precision_k=k, max_digits_per_value=19))
            npt.assert_array_equal(got, bins)

    @settings(max_examples=120, deadline=None)
    @given(
        value=st.floats(min_value=-1e8, max_value=1e8, allow_nan=False),
        k=st.integers(0, 5),
    )
    def test_single_value_round_trip(self, value, k):
        cfg = CodecConfig(precision_k=k, half_bin_correction=True, max_digits_per_value=19)
        scaler = Scaler(offset=0.0, scale=max(1.0, abs(value)))
        enc = serialize([value], scaler, cfg)
        dec, _ = deserialize(enc, scaler, cfg, horizon=1)
        bound = 0.5 * scaler.scale * 10.0 ** (-k)
        # exact bin-edge inputs hit the bound with equality; decode arithmetic
        # then adds a couple of ulps at the value's magnitude
        slack = 4 * np.finfo(float).eps * max(1.0, abs(value))
        assert abs(dec[0] - value) <= bound * (1 + 1e-12) + slack


def _reference_quantize(values, scaler, config):
    """quantize as first written, one numpy pass per step of the formula; the
    faster implementation must give the same bins and raise the same errors."""
    vals = np.asarray(values, dtype=float)
    if not np.isfinite(vals).all():
        raise NonFiniteError("cannot encode non-finite values")
    factor = float(10 ** config.precision_k)
    scaled = scaler.forward(vals) * factor
    mag = (np.abs(vals) + abs(scaler.offset)) / scaler.scale * factor
    tol = 64.0 * np.finfo(float).eps * np.maximum(1.0, np.maximum(mag, np.abs(scaled)))
    nearest = np.rint(scaled)
    snapped = np.where(np.abs(scaled - nearest) <= tol, nearest, np.floor(scaled))
    if np.any(np.abs(snapped) >= 2**62):
        raise DigitOverflowError("scaled values overflow 64-bit integer bins")
    return snapped.astype(np.int64)


def _quantize_outcome(fn, values, scaler, config):
    try:
        bins = fn(values, scaler, config)
    except (NonFiniteError, DigitOverflowError) as err:
        return type(err)
    return bins.dtype, bins.shape, bins.tolist()


@st.composite
def _near_bin_values(draw):
    """Values a few ulps off an exact decimal at some precision, where the
    snap-to-integer guard decides the bin."""
    k = draw(st.integers(0, 6))
    value = draw(st.integers(-(10**12), 10**12)) / 10.0**k
    for _ in range(abs(draw(st.integers(-6, 6)))):
        value = np.nextafter(value, draw(st.sampled_from([np.inf, -np.inf])))
    return float(value)


class TestQuantizeMatchesReference:
    @pytest.mark.parametrize(
        "values, k",
        [
            ([3.14, 0.314, 31.4, 314.0], 2),  # 3.14 * 100 = 313.99999999999994
            ([270573.97, 0.1 + 0.2, 1.1 * 3], 2),
            ([0.5, 1.5, 2.5, -0.5, -1.5, -2.5], 0),  # ties round half to even
            ([2.0**53 + 2, -(2.0**60), 3.5e13 + 0.5], 0),  # tol near half a bin
            ([2.0**62 - 512, -(2.0**62) + 512], 0),  # widest encodable bins
            ([1 - 2.0**-46, -(2.0**-46), 1 - 2.0**-45], 0),  # exactly tol from a bin edge
            ([1e6 + 3 - 2.0**-33, 1e6 - 2.0**-33], 0),  # tol set by the offset, not |scaled|
            ([-0.0, 0.0, 5e-324, -5e-324], 3),
            ([], 3),
        ],
    )
    def test_pinned_cases(self, values, k):
        cfg = CodecConfig(precision_k=k, max_digits_per_value=19)
        for scaler in (Scaler(), Scaler(offset=-1.25, scale=3.0), Scaler(offset=1e6)):
            got = _quantize_outcome(quantize, values, scaler, cfg)
            assert got == _quantize_outcome(_reference_quantize, values, scaler, cfg)
        assert quantize([3.14], Scaler(), CodecConfig(precision_k=2)).tolist() == [314]

    @pytest.mark.parametrize(
        "values, error",
        [
            ([np.nan], NonFiniteError),
            ([1.0, np.inf], NonFiniteError),
            ([-np.inf, 2.0**62], NonFiniteError),  # non-finite wins over overflow
            ([2.0**62, np.nan], NonFiniteError),
            ([2.0**62], DigitOverflowError),
            ([1.0, -(2.0**62)], DigitOverflowError),
            ([1e300], DigitOverflowError),
        ],
    )
    def test_error_order(self, values, error):
        cfg = CodecConfig(precision_k=0, max_digits_per_value=19)
        with pytest.raises(error):
            _reference_quantize(values, Scaler(), cfg)
        with pytest.raises(error):
            quantize(values, Scaler(), cfg)

    def test_shapes(self):
        cfg = CodecConfig(precision_k=1, max_digits_per_value=19)
        for values in (2.25, [[1.25, -2.5], [3.0, 4.75]], np.zeros((0, 2))):
            got = _quantize_outcome(quantize, values, Scaler(), cfg)
            assert got == _quantize_outcome(_reference_quantize, values, Scaler(), cfg)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(_near_bin_values(), st.floats(allow_nan=True, allow_infinity=True)),
            max_size=40,
        ),
        offset=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
        scale=st.one_of(st.just(1.0), st.floats(1e-6, 1e6)),
        k=st.integers(0, 6),
        shifted=st.booleans(),
    )
    def test_bins_bit_identical(self, values, offset, scale, k, shifted):
        cfg = CodecConfig(precision_k=k, max_digits_per_value=19)
        scaler = Scaler(offset=offset, scale=scale)
        if shifted:  # near-bin after scaling, with rounding left by the offset
            values = [v * scale + offset for v in values]
        with np.errstate(all="ignore"):
            expected = _quantize_outcome(_reference_quantize, values, scaler, cfg)
            assert _quantize_outcome(quantize, values, scaler, cfg) == expected


def _reference_digit_text(bins, config):
    """serialize's text as first written: one join per value."""
    values = bins.tolist()
    if config.basic_mode:
        parts = [str(v) for v in values]
    else:
        join = DIGIT_SEPARATOR.join
        parts = [join(str(v)) if v >= 0 else "-" + join(str(-v)) for v in values]
    return STEP_SEPARATOR.join(parts)


class TestSerializeText:
    @settings(max_examples=300, deadline=None)
    @given(
        bins=st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=30),
        basic=st.booleans(),
        signed=st.booleans(),
    )
    def test_matches_per_value_join(self, bins, basic, signed):
        cfg = CodecConfig(precision_k=0, basic_mode=basic, signed=signed, max_digits_per_value=19)
        if basic or not signed:
            bins = [abs(b) for b in bins]
        values = np.array(bins, dtype=float)
        expected = _reference_digit_text(quantize(values, Scaler(), cfg), cfg)
        assert serialize(values, Scaler(), cfg) == expected


def _reference_render(bins, config):
    """serialize's text before the bin table: one character join over the
    whole series, then the spaces before commas and after signs taken out."""
    numbers = map(str, bins.tolist())
    if config.basic_mode:
        return STEP_SEPARATOR.join(numbers)
    text = DIGIT_SEPARATOR.join(",".join(numbers))
    return text.replace(" ,", ",").replace("- ", "-")


@st.composite
def _renderable_bins(draw):
    """Bins serialize encodes, with the config that allows them: every width up
    to max_digits_per_value, zero, and magnitudes at the table's edge."""
    max_digits = draw(st.integers(1, 15))
    basic = draw(st.booleans())
    signed = draw(st.booleans())
    edge = [v for v in (1, 2046, 2047, 2048, 2049) if len(str(v)) <= max_digits]
    magnitude = st.one_of(
        st.integers(1, max_digits).flatmap(lambda w: st.integers(10 ** (w - 1), 10**w - 1)),
        st.just(0),
        st.sampled_from(edge),
    )
    bins = draw(st.lists(magnitude, min_size=1, max_size=30))
    if signed and not basic:
        bins = [b * draw(st.sampled_from([1, -1])) for b in bins]
    cfg = CodecConfig(
        precision_k=0, basic_mode=basic, signed=signed, max_digits_per_value=max_digits
    )
    return bins, cfg


class TestSerializeMatchesReferenceRender:
    @settings(max_examples=500, deadline=None)
    @given(case=_renderable_bins())
    @example(case=([0], CodecConfig(precision_k=0)))
    @example(case=([-7], CodecConfig(precision_k=0)))
    @example(case=([2047, -2047, 0], CodecConfig(precision_k=0)))
    @example(case=([2048], CodecConfig(precision_k=0)))
    @example(case=([-2048, 2047], CodecConfig(precision_k=0)))
    def test_byte_identical(self, case):
        bins, cfg = case
        values = np.array(bins, dtype=float)
        expected = _reference_render(quantize(values, Scaler(), cfg), cfg)
        assert serialize(values, Scaler(), cfg) == expected


def _reference_serialize(values, scaler, config):
    """serialize as a loop of one call per series once was: the reference
    bins, the sign and width checks in their order, the character render."""
    bins = _reference_quantize(values, scaler, config)
    if bins.size == 0:
        return ""
    lo, hi = int(bins.min()), int(bins.max())
    if lo < 0 and config.basic_mode:
        raise DigitOverflowError("negative value but basic mode has no sign token")
    if lo < 0 and not config.signed:
        raise DigitOverflowError(
            "negative value after scaling in unsigned mode; check the scaler offset"
        )
    width = len(str(max(abs(hi), abs(lo))))
    if width > config.max_digits_per_value:
        raise DigitOverflowError(
            f"value needs {width} digits, max_digits_per_value is {config.max_digits_per_value}"
        )
    return _reference_render(bins, config)


def _encode_outcome(fn):
    try:
        return fn()
    except (NonFiniteError, DigitOverflowError) as err:
        return type(err), str(err)


@st.composite
def _row_batches(draw):
    """(m, n) histories with one scaler per row: offsets of 0 mixed with
    nonzero ones, rows a few ulps off their bin edges, at most one row scaled
    so its bins leave the table's range, and up to two planted values that
    can make their row fail to encode."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 16))
    cfg = CodecConfig(
        precision_k=draw(st.integers(0, 4)),
        signed=draw(st.booleans()),
        basic_mode=draw(st.booleans()),
        max_digits_per_value=draw(st.integers(5, 12)),
    )
    value = st.one_of(
        st.floats(-20.0, 20.0),
        st.integers(-2000, 2000).map(lambda v: v / 10.0**cfg.precision_k),
    )
    rows = draw(hnp.arrays(float, (m, n), elements=value))
    signs_ok = cfg.signed and not cfg.basic_mode
    scalers = []
    for row in rows:
        offset = draw(st.sampled_from(["zero", "below", "any"] if signs_ok else ["zero", "below"]))
        if offset == "zero":
            offset = 0.0
            if not signs_ok:
                row[:] = np.abs(row)
        elif offset == "below":  # every shifted value nonnegative
            offset = float(row.min()) - draw(st.floats(0.0, 5.0))
        else:
            offset = draw(st.floats(-30.0, 30.0))
        scalers.append(Scaler(offset=offset, scale=draw(st.floats(0.05, 40.0))))
        if draw(st.booleans()):  # a few ulps off bin edges, where the tolerance decides
            edges = np.array(draw(st.lists(st.integers(0, 2000), min_size=n, max_size=n)))
            ulps = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
            exact = offset + edges / 10.0**cfg.precision_k * scalers[-1].scale
            row[:] = exact + ulps * np.spacing(exact)
    wide = draw(st.none() | st.integers(0, m - 1))
    if wide is not None:
        s = scalers[wide]
        scalers[wide] = Scaler(offset=s.offset, scale=s.scale / draw(st.sampled_from([1e2, 1e4])))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)))
        rows[at] = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1e300, -1e3]))
    return rows, scalers, cfg


class TestSerializeRowsMatchesPerRow:
    @settings(max_examples=250, deadline=None)
    @given(batch=_row_batches())
    def test_byte_identical_with_error_parity(self, batch):
        rows, scalers, cfg = batch
        with np.errstate(all="ignore"):
            got = _encode_outcome(lambda: serialize_rows(rows, scalers, cfg))
            per_row = [_encode_outcome(lambda r=r, s=s: serialize(r, s, cfg))
                       for r, s in zip(rows, scalers)]
            reference = [_encode_outcome(lambda r=r, s=s: _reference_serialize(r, s, cfg))
                         for r, s in zip(rows, scalers)]
        assert per_row == reference
        failures = [o for o in reference if isinstance(o, tuple)]
        assert got == (failures[0] if failures else reference)

    def test_one_row_beyond_the_table(self):
        cfg = CodecConfig(precision_k=0)
        rows = np.array([[5.0, -7.0], [3000.0, -2049.0], [2047.0, -2047.0]])
        scalers = [Scaler(), Scaler(), Scaler(offset=1.0)]
        texts = ["5, -7", "3 0 0 0, -2 0 4 9", "2 0 4 6, -2 0 4 8"]
        assert serialize_rows(rows, scalers, cfg) == texts

    def test_first_failing_row_names_the_error(self):
        cfg = CodecConfig(precision_k=0, signed=False, max_digits_per_value=3)
        rows = np.array([[1.0, 2.0], [1.0, 1e6], [-1.0, 2.0], [np.nan, 1.0]])
        with pytest.raises(DigitOverflowError, match="value needs 7 digits"):
            serialize_rows(rows, [Scaler()] * 4, cfg)
        with pytest.raises(DigitOverflowError, match="unsigned mode"):
            serialize_rows(rows[[0, 2, 1]], [Scaler()] * 3, cfg)
        with pytest.raises(NonFiniteError):
            serialize_rows(rows[[3, 2]], [Scaler()] * 2, cfg)

    def test_shape_checks(self):
        assert serialize_rows(np.zeros((3, 0)), [Scaler()] * 3) == ["", "", ""]
        assert serialize_rows(np.zeros((0, 4)), []) == []
        with pytest.raises(ConfigError):
            serialize_rows(np.zeros((2, 3)), [Scaler()])
        with pytest.raises(ConfigError):
            serialize_rows(np.zeros(3), [Scaler()])


_decode_text = st.one_of(
    st.text(alphabet="0123456789- ,;|_\n\t\rx+.", max_size=60),
    st.builds(
        str.join,
        st.sampled_from([", ", ",", " ", "\n", ";", "|", "||"]),
        st.lists(
            st.one_of(
                st.integers(-(10**6), 10**6).map(str),
                st.sampled_from(["", " ", "x", "1 2", "- 3", "\t4\r", "|5|", "+6", "7_8", "--9"]),
            ),
            max_size=12,
        ),
    ),
)


class TestWholeTextPath:
    @settings(max_examples=400, deadline=None)
    @given(text=_decode_text, horizon=st.integers(1, 8), half_bin=st.booleans())
    @example(text="1| |2", horizon=2, half_bin=False)
    @example(text="1 2", horizon=2, half_bin=False)
    @example(text="1 0\n 2 0\n3 0", horizon=3, half_bin=True)
    @example(text="1 0,2 0 , 3 0,", horizon=3, half_bin=True)
    def test_matches_fragment_parser(self, text, horizon, half_bin):
        cfg = CodecConfig(precision_k=1, half_bin_correction=half_bin)
        scaler = Scaler(offset=2.0, scale=3.0)
        bins, discarded = _fragment_bins(text, horizon, cfg.max_digits_per_value)
        fast = _whole_text_bins(text, horizon, cfg.max_digits_per_value)
        if fast is not None:
            assert (fast, 0) == (bins, discarded)
        expected = ParseReport(
            requested_steps=horizon,
            parsed_steps=len(bins),
            discarded_fragments=discarded,
            truncated=len(bins) < horizon,
            raw_text_length=len(text),
        )
        if not bins:
            with pytest.raises(ParseError) as err:
                deserialize(text, scaler, cfg, horizon)
            assert err.value.report == expected
            return
        values, report = deserialize(text, scaler, cfg, horizon)
        assert report == expected
        half = 0.5 if half_bin else 0.0
        npt.assert_array_equal(values, scaler.inverse((np.array(bins, dtype=float) + half) / 10.0))

    def test_serializer_output_takes_whole_text_path(self):
        assert _whole_text_bins("3 1, -3 1 4, 3 1 4 0", 3, 10) == [31, -314, 3140]
        assert _whole_text_bins("1 0,2 0, ", 5, 10) == [10, 20]
        assert _whole_text_bins("1, 2, junk", 2, 10) == [1, 2]  # junk past the horizon
        assert _whole_text_bins("1, junk, 2", 2, 10) is None


class TestDecodeRowsMatchesDeserialize:
    """run_nlts parses each reply with parse_bins and decodes the replies that
    reach the horizon with one decode_rows call; each row must be bitwise the
    values deserialize gives for that reply."""

    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(_decode_text, min_size=1, max_size=6),
        horizon=st.integers(1, 5),
        half_bin=st.booleans(),
        precision_k=st.integers(0, 4),
        offsets=st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6),
        scales=st.lists(st.floats(1e-6, 1e6), min_size=6, max_size=6),
    )
    @example(texts=["1 2, 3 4, 5", "1 2, 3", "junk", "7, x, 8, 9"], horizon=3, half_bin=True,
             precision_k=1, offsets=[0.0, -2.5, 1.0, 3.0, 0.0, 0.0],
             scales=[1.0, 0.3, 7.0, 1e-3, 1.0, 1.0])
    def test_bitwise_per_row(self, texts, horizon, half_bin, precision_k, offsets, scales):
        cfg = CodecConfig(precision_k=precision_k, half_bin_correction=half_bin)
        scalers = [Scaler(offset=o, scale=s) for o, s in zip(offsets, scales)]
        rows, row_scalers, expected = [], [], []
        for text, scaler in zip(texts, scalers):
            try:
                bins, report = parse_bins(text, cfg, horizon)
            except ParseError as err:
                with pytest.raises(ParseError) as again:
                    deserialize(text, scaler, cfg, horizon)
                assert again.value.report == err.report
                continue
            values, same_report = deserialize(text, scaler, cfg, horizon)
            assert same_report == report and len(bins) == len(values) == report.parsed_steps
            if report.parsed_steps == horizon:
                rows.append(bins)
                row_scalers.append(scaler)
                expected.append(values)
        if not rows:
            return
        decoded = decode_rows(rows, row_scalers, cfg)
        assert decoded.shape == (len(rows), horizon)
        assert decoded.tobytes() == np.stack(expected).tobytes()

    def test_one_row_is_deserialize(self):
        cfg = CodecConfig(precision_k=2)
        scaler = Scaler(offset=1.5, scale=0.25)
        values, _ = deserialize("1 2 5, -3 0, 7", scaler, cfg, horizon=2)
        assert values.tobytes() == decode_rows([[125, -30]], [scaler], cfg)[0].tobytes()
        npt.assert_array_equal(values, [1.5 + 1.255 * 0.25, 1.5 - 0.295 * 0.25])


class TestRunawayDigits:
    """A fragment whose value needs more than max_digits_per_value digits is
    discarded like junk, on both decoding paths, instead of raising."""

    @pytest.mark.parametrize("width", [400, 5000])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_discarded_on_both_paths(self, width, sign):
        text = sign + "9" * width + ", 1, 2"
        assert _whole_text_bins(text, 2, 10) is None
        assert _fragment_bins(text, 2, 10) == ([1, 2], 1)
        vals, rep = deserialize(text, Scaler(), CodecConfig(), 2)
        npt.assert_allclose(vals, [0.0015, 0.0025])
        assert rep.discarded_fragments == 1
        assert rep.parsed_steps == 2

    @pytest.mark.parametrize("width", [400, 5000])
    def test_spaced_runaway_on_fragment_path(self, width):
        # the whole-text path drops the spaces and then refuses the value
        text = " ".join("9" * width) + ", 1"
        assert _whole_text_bins(text, 2, 10) is None
        assert _fragment_bins(text, 2, 10) == ([1], 1)
        _, rep = deserialize(text, Scaler(), CodecConfig(), 2)
        assert rep.discarded_fragments == 1
        assert rep.truncated

    def test_only_runaway_is_parse_error(self):
        with pytest.raises(ParseError) as err:
            deserialize("9" * 5000, Scaler(), CodecConfig(), 3)
        assert err.value.report.discarded_fragments == 1

    def test_limit_is_inclusive_and_counts_value_digits(self):
        cfg = CodecConfig(precision_k=0, half_bin_correction=False)
        vals, rep = deserialize("9" * 10 + ", -" + "9" * 10, Scaler(), cfg, 2)
        npt.assert_array_equal(vals, [9_999_999_999.0, -9_999_999_999.0])
        assert rep.discarded_fragments == 0
        # leading zeros are not digits of the value, on either path
        padded = "0" * 20 + "7"
        assert _whole_text_bins(padded + ", 1", 2, 10) == [7, 1]
        assert _fragment_bins("x" + padded + ", 1", 2, 10) == ([7, 1], 0)
        _, rep = deserialize("1" + "0" * 10 + ", 1", Scaler(), cfg, 2)
        assert rep.discarded_fragments == 1


# digits of other scripts that int() reads: fullwidth, Arabic-Indic,
# Devanagari, NKo and mathematical bold
_OTHER_DIGITS = "０１２３４５６７８９٠١٢٣٤٥٦٧٨٩०१२३߀߁𝟎𝟏𝟐"
_unicode_text = st.one_of(
    st.text(max_size=60),
    st.text(alphabet="0123456789-, |\n\tx　" + _OTHER_DIGITS, max_size=60),
)


class TestAsciiDigitsOnly:
    """Only ASCII digits decode. A digit of another script is junk, on both
    decoding paths, as any other non-digit character is."""

    @pytest.mark.parametrize("text", ["１２, 3", "١٢, 3", "１２x, 3", "߁, 3"])
    def test_other_scripts_are_junk(self, text):
        cfg = CodecConfig(precision_k=0, half_bin_correction=False)
        vals, rep = deserialize(text, Scaler(), cfg, 2)
        npt.assert_array_equal(vals, [3.0])
        assert rep.discarded_fragments == 1
        assert _whole_text_bins(text, 2, 10) is None

    def test_ascii_digits_beside_others_survive(self):
        assert _fragment_bins("1２, 3", 2, 10) == ([1, 3], 0)

    @settings(max_examples=300, deadline=None)
    @given(text=_unicode_text, horizon=st.integers(1, 8))
    @example(text="１２, 3", horizon=2)
    @example(text="١٢", horizon=1)
    def test_any_text_decodes_or_raises_parse_error(self, text, horizon):
        cfg = CodecConfig(precision_k=1)
        limit = cfg.max_digits_per_value
        bins, discarded = _fragment_bins(text, horizon, limit)
        fast = _whole_text_bins(text, horizon, limit)
        if fast is not None:
            assert (fast, 0) == (bins, discarded)
        # non-ASCII characters add no digits: as ASCII junk they give the same bins
        ascii_only = "".join(c if c.isascii() else "x" for c in text)
        assert _fragment_bins(ascii_only, horizon, limit)[0] == bins
        try:
            _, report = deserialize(text, Scaler(), cfg, horizon)
        except ParseError:
            assert not bins
            return
        assert report.parsed_steps == len(bins) > 0
