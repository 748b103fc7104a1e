import csv
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlts import (
    CholeskyError,
    ConfigError,
    KernelSpec,
    SplitSpec,
    cholesky_with_jitter,
    generate_benchmark,
    kernel_matrix,
    load_dataset,
    sample_gp_matrix,
    split_series,
    substream,
)
from nlts.synth import KERNEL_KINDS, write_series_csv


class TestKernelSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            KernelSpec(kind="spectral")

    def test_bad_hyperparameters(self):
        with pytest.raises(ConfigError):
            KernelSpec(kind="rbf", lengthscale=0.0)
        with pytest.raises(ConfigError):
            KernelSpec(kind="matern", smoothness=2.0)
        with pytest.raises(ConfigError):
            KernelSpec(kind="rational_quadratic", mixture=0.0)
        with pytest.raises(ConfigError):
            KernelSpec(kind="polynomial", degree=0)

    def test_resolved_defaults_scale_with_grid(self):
        grid = np.linspace(0.0, 2.0, 5)
        spec = KernelSpec(kind="exp_sine_squared").resolved(grid)
        assert spec.lengthscale == pytest.approx(0.4)
        assert spec.periodicity == pytest.approx(0.5)

    def test_resolved_keeps_explicit_values(self):
        grid = np.linspace(0.0, 1.0, 5)
        spec = KernelSpec(kind="rbf", lengthscale=0.7).resolved(grid)
        assert spec.lengthscale == 0.7


class TestKernelMatrix:
    GRID = np.linspace(0.0, 1.0, 9)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_symmetric(self, kind):
        k = kernel_matrix(KernelSpec(kind=kind), self.GRID)
        npt.assert_array_equal(k, k.T)

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_factorizable_with_jitter(self, kind):
        k = kernel_matrix(KernelSpec(kind=kind), self.GRID)
        chol, jitter = cholesky_with_jitter(k)
        npt.assert_allclose(chol @ chol.T, k + jitter * np.eye(k.shape[0]), atol=1e-10)

    def test_rbf_unit_diagonal(self):
        k = kernel_matrix(KernelSpec(kind="rbf"), self.GRID)
        npt.assert_allclose(np.diag(k), np.ones(9), rtol=1e-15)

    def test_rbf_value(self):
        spec = KernelSpec(kind="rbf", lengthscale=0.5)
        k = kernel_matrix(spec, np.array([0.0, 1.0]))
        assert k[0, 1] == pytest.approx(np.exp(-0.5 * (1.0 / 0.5) ** 2))

    def test_linear_example(self):
        k = kernel_matrix(KernelSpec(kind="linear"), np.array([1.0, 2.0]))
        npt.assert_allclose(k, [[1.0, 2.0], [2.0, 4.0]], rtol=1e-15)

    def test_polynomial_example(self):
        spec = KernelSpec(kind="polynomial", bias=1.0, degree=2)
        k = kernel_matrix(spec, np.array([1.0, 2.0]))
        npt.assert_allclose(k, [[4.0, 9.0], [9.0, 25.0]], rtol=1e-15)

    def test_matern_half_is_exponential(self):
        spec = KernelSpec(kind="matern", smoothness=0.5, lengthscale=0.3)
        k = kernel_matrix(spec, np.array([0.0, 0.6]))
        assert k[0, 1] == pytest.approx(np.exp(-2.0))

    def test_matern_families_order(self):
        # smoother kernels have larger mid-range correlation
        grid = np.array([0.0, 0.25])
        vals = []
        for nu in (0.5, 1.5, 2.5):
            spec = KernelSpec(kind="matern", smoothness=nu, lengthscale=0.25)
            vals.append(kernel_matrix(spec, grid)[0, 1])
        assert vals[0] < vals[1] < vals[2]

    def test_exp_sine_squared_periodic(self):
        spec = KernelSpec(kind="exp_sine_squared", periodicity=0.5, lengthscale=1.0)
        k = kernel_matrix(spec, np.array([0.0, 0.5, 1.0]))
        assert k[0, 1] == pytest.approx(1.0)  # exactly one period apart
        assert k[0, 2] == pytest.approx(1.0)

    def test_rational_quadratic_value(self):
        spec = KernelSpec(kind="rational_quadratic", lengthscale=1.0, mixture=2.0)
        k = kernel_matrix(spec, np.array([0.0, 2.0]))
        assert k[0, 1] == pytest.approx((1.0 + 4.0 / 4.0) ** -2.0)

    @pytest.mark.parametrize("kind", ["rbf", "matern", "rational_quadratic", "exp_sine_squared"])
    def test_stationary_shift_invariance(self, kind):
        spec = KernelSpec(kind=kind, lengthscale=0.37, periodicity=0.21)
        grid = np.linspace(0.0, 1.0, 7)
        k1 = kernel_matrix(spec, grid)
        k2 = kernel_matrix(spec, grid + 13.5)
        npt.assert_allclose(k1, k2, atol=1e-12)

    def test_variance_scales(self):
        base = kernel_matrix(KernelSpec(kind="rbf"), self.GRID)
        scaled = kernel_matrix(KernelSpec(kind="rbf", variance=4.0), self.GRID)
        npt.assert_allclose(scaled, 4.0 * base, rtol=1e-15)

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            kernel_matrix(KernelSpec(kind="rbf"), np.array([]))
        with pytest.raises(ConfigError):
            kernel_matrix(KernelSpec(kind="rbf"), np.array([0.0, np.nan]))

    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_psd_on_random_grids(self, kind):
        rng = np.random.default_rng(4)
        for _ in range(20):
            grid = np.sort(rng.uniform(0, 3, int(rng.integers(2, 12))))
            k = kernel_matrix(KernelSpec(kind=kind), grid)
            eigs = np.linalg.eigvalsh(k)
            assert eigs.min() > -1e-8 * max(1.0, eigs.max())


class TestCholeskyJitter:
    def test_spd_needs_no_jitter(self):
        k = np.array([[2.0, 0.5], [0.5, 1.0]])
        chol, jitter = cholesky_with_jitter(k)
        assert jitter == 0.0
        npt.assert_allclose(chol @ chol.T, k, rtol=1e-12)

    def test_singular_gets_jitter(self):
        k = np.ones((4, 4))  # rank one
        chol, jitter = cholesky_with_jitter(k)
        assert jitter > 0.0
        npt.assert_allclose(chol @ chol.T, k + jitter * np.eye(4), atol=1e-8)

    def test_negative_definite_fails(self):
        with pytest.raises(CholeskyError):
            cholesky_with_jitter(-np.eye(3))


class TestSampleGP:
    def test_deterministic(self):
        spec = KernelSpec(kind="rbf")
        grid = np.linspace(0, 1, 16)
        a = sample_gp_matrix(spec, grid, 5, seed=3)
        b = sample_gp_matrix(spec, grid, 5, seed=3)
        npt.assert_array_equal(a, b)

    def test_per_series_substreams(self):
        spec = KernelSpec(kind="rbf")
        grid = np.linspace(0, 1, 16)
        full = sample_gp_matrix(spec, grid, 4, seed=3)
        # regenerating a prefix leaves earlier rows untouched
        prefix = sample_gp_matrix(spec, grid, 2, seed=3)
        npt.assert_array_equal(full[:2], prefix)

    def test_rows_are_products_of_one_keyed_block(self):
        spec = KernelSpec(kind="matern")
        grid = np.linspace(0, 1, 12)
        chol, _ = cholesky_with_jitter(kernel_matrix(spec, grid))
        z = substream(4, 2).standard_normal((3, grid.size))
        out = sample_gp_matrix(spec, grid, 3, 4, 2)
        for i in range(3):
            assert out[i].tobytes() == (chol @ z[i]).tobytes()

    def test_zero_count(self):
        out = sample_gp_matrix(KernelSpec(kind="rbf"), np.linspace(0, 1, 4), 0, seed=0)
        assert out.shape == (0, 4)

    def test_empirical_covariance_small(self):
        spec = KernelSpec(kind="rbf", lengthscale=0.3)
        grid = np.linspace(0, 1, 5)
        k = kernel_matrix(spec, grid)
        draws = sample_gp_matrix(spec, grid, 40_000, seed=21)
        emp = draws.T @ draws / draws.shape[0]
        rel = np.linalg.norm(emp - k) / np.linalg.norm(k)
        assert rel < 0.05

    def test_linear_kernel_draws_are_lines(self):
        # a linear-kernel GP draw is t * w with w ~ N(0, variance); the rank-1
        # matrix needs jitter, which adds O(sqrt(jitter)) off-line noise
        spec = KernelSpec(kind="linear")
        grid = np.linspace(0.5, 2.0, 6)
        draws = sample_gp_matrix(spec, grid, 50, seed=7)
        for row in draws:
            slope = row / grid
            npt.assert_allclose(slope, slope[0], rtol=0, atol=1e-2)


class TestGenerateBenchmark:
    def test_files_and_manifest(self, tmp_path):
        specs = [KernelSpec(kind=k) for k in KERNEL_KINDS]
        manifest = generate_benchmark(specs, count=2, length=40, holdout=10, seed=5,
                                      out_dir=tmp_path)
        csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert len(csvs) == 12
        assert "rbf_0000.csv" in csvs and "linear_0001.csv" in csvs
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest
        assert manifest["schema"] == "nlts.synth/2"
        assert len(manifest["files"]) == 12
        entry = manifest["files"][0]
        assert set(entry) == {"file", "kernel", "key", "series_index", "length", "holdout"}
        assert [e["key"] for e in manifest["files"]] == [[ki] for ki in range(6) for _ in range(2)]

    def test_round_trip_through_loader(self, tmp_path):
        generate_benchmark([KernelSpec(kind="matern")], count=3, length=50, holdout=12,
                           seed=2, out_dir=tmp_path)
        for i in range(3):
            ds = load_dataset(tmp_path / f"matern_{i:04d}.csv")
            assert ds.holdout == 12
            assert len(ds.series) == 50
            hist, tgt = split_series(ds.series, SplitSpec.by_horizon(ds.holdout))
            assert len(hist) == 38 and len(tgt) == 12

    def test_normalized_values_in_unit_range(self, tmp_path):
        generate_benchmark([KernelSpec(kind="rbf")], count=2, length=30, holdout=5,
                           seed=1, out_dir=tmp_path)
        ds = load_dataset(tmp_path / "rbf_0000.csv")
        assert ds.series.values.min() == pytest.approx(0.0)
        assert ds.series.values.max() == pytest.approx(1.0)

    def test_value_raw_column_preserved(self, tmp_path):
        generate_benchmark([KernelSpec(kind="rbf")], count=1, length=20, holdout=4,
                           seed=9, out_dir=tmp_path)
        ds_raw = load_dataset(tmp_path / "rbf_0000.csv", value_column="value_raw")
        spec = KernelSpec(kind="rbf")
        expected = sample_gp_matrix(spec, np.linspace(0, 1, 20), 1, 9, 0)[0]
        npt.assert_allclose(ds_raw.series.values, expected, rtol=0, atol=1e-15)

    def test_count_zero(self, tmp_path):
        manifest = generate_benchmark([KernelSpec(kind="rbf")], count=0, length=10,
                                      holdout=2, seed=0, out_dir=tmp_path)
        assert manifest["files"] == []
        assert not list(tmp_path.glob("*.csv"))

    def test_holdout_bounds(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_benchmark([KernelSpec(kind="rbf")], count=1, length=10, holdout=10,
                               seed=0, out_dir=tmp_path)
        with pytest.raises(ConfigError):
            generate_benchmark([KernelSpec(kind="rbf")], count=1, length=10, holdout=-1,
                               seed=0, out_dir=tmp_path)

    @pytest.mark.parametrize("name", ["rbf_0001.csv", "manifest.json"])
    def test_unwritable_file_is_config_error(self, tmp_path, name):
        (tmp_path / name).mkdir()
        what = "manifest" if name == "manifest.json" else "series"
        path = re.escape(str(tmp_path / name))
        with pytest.raises(ConfigError, match=rf"^cannot write {what} {path}: Is a directory$"):
            generate_benchmark([KernelSpec(kind="rbf")], count=2, length=10, holdout=2,
                               seed=0, out_dir=tmp_path)

    def test_deterministic_across_calls(self, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            generate_benchmark([KernelSpec(kind="rational_quadratic")], count=2, length=25,
                               holdout=5, seed=31, out_dir=d)
        a = (a_dir / "rational_quadratic_0001.csv").read_text()
        b = (b_dir / "rational_quadratic_0001.csv").read_text()
        assert a == b


# The csv.writer implementation the CSV bytes were first defined by; the
# formatted writer must reproduce it byte for byte.
def _reference_normalize(values):
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def _reference_write_series_csv(path, grid, raw, holdout):
    norm = _reference_normalize(raw)
    n = raw.size
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value", "value_raw", "is_holdout"])
        for i in range(n):
            writer.writerow(
                [repr(float(grid[i])), repr(float(norm[i])), repr(float(raw[i])),
                 1 if i >= n - holdout else 0]
            )


_finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False,
                    allow_infinity=False, allow_subnormal=True)
_special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
                            9.999999999999999e299, 1e-5, 123456789.125])


@st.composite
def _rows_and_holdout(draw):
    values = st.one_of(_finite, _special)
    n = draw(st.integers(min_value=2, max_value=60))
    if draw(st.booleans()):
        raw = [draw(values)] * n  # constant row: normalizes to zeros
    else:
        raw = draw(st.lists(values, min_size=n, max_size=n))
    return np.array(raw, dtype=float), draw(st.integers(min_value=0, max_value=n - 1))


class TestCsvBytes:
    @settings(max_examples=300, deadline=None)
    @given(_rows_and_holdout())
    @example((np.array([1.0, 1.0]), 1))
    @example((np.array([-1e300, 1e300, 5e-324]), 0))
    def test_matches_reference_writer(self, case):
        raw, holdout = case
        n = raw.size
        grid = np.linspace(0.0, 1.0, n)
        heads = [repr(t) + "," for t in grid.tolist()]
        tails = [",1\r\n" if i >= n - holdout else ",0\r\n" for i in range(n)]
        with tempfile.TemporaryDirectory() as d:
            ref, new = Path(d) / "ref.csv", Path(d) / "new.csv"
            _reference_write_series_csv(ref, grid, raw, holdout)
            write_series_csv(new, heads, tails, raw)
            assert new.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("length,holdout", [(430, 30), (40, 0), (2, 1), (57, 56)])
    def test_benchmark_directory_matches_reference(self, tmp_path, length, holdout):
        specs = [KernelSpec(kind=k) for k in KERNEL_KINDS]
        manifest = generate_benchmark(specs, count=2, length=length, holdout=holdout,
                                      seed=7, out_dir=tmp_path / "out")
        grid = np.linspace(0.0, 1.0, length)
        expected = {"manifest.json"}
        for ki, spec in enumerate(specs):
            values = sample_gp_matrix(spec, grid, 2, 7, ki)
            for i in range(2):
                name = f"{spec.kind}_{i:04d}.csv"
                expected.add(name)
                ref = tmp_path / name
                _reference_write_series_csv(ref, grid, values[i], holdout)
                assert (tmp_path / "out" / name).read_bytes() == ref.read_bytes(), name
        assert {p.name for p in (tmp_path / "out").iterdir()} == expected
        head = (tmp_path / "out" / "rbf_0000.csv").read_bytes().split(b"\r\n")[0]
        assert head == b"t,value,value_raw,is_holdout"
        kernels = [entry["kernel"] for entry in manifest["files"]]
        assert all(a is not b for a, b in zip(kernels, kernels[1:]))
        assert kernels[0] == specs[0].resolved(grid).to_dict()
