"""Torus grids, synthesis spectra, dyadic blocks, and Besov norms."""

import numpy as np
import pytest

import levysde as lv
from levysde.besov import DyadicPartition

from conftest import make_mode


class TestTransform:
    # the synthesis coefficients: u(x) = sum_k coeffs[k] e^{i <x, xi_k>}
    def test_constant_concentrates_at_zero(self, grid256):
        u = lv.GridFunction(grid256, np.ones(256, dtype=complex))
        assert u.coeffs[0] == pytest.approx(1.0)  # the mean
        assert np.abs(u.coeffs[1:]).max() <= 1e-12

    def test_single_mode_single_coefficient(self):
        grid = lv.TorusGrid(n=64, dimension=1, length_factor=1.0)
        u = lv.GridFunction.from_callable(grid, lambda x: np.exp(3j * x))
        k3 = int(np.argmin(np.abs(grid.xi - 3.0)))
        mask = np.ones(64, dtype=bool)
        mask[k3] = False
        assert u.coeffs[k3] == pytest.approx(1.0)
        assert np.abs(u.coeffs[mask]).max() <= 1e-12

    def test_round_trip(self, grid256):
        rng = np.random.default_rng(9)
        u = lv.GridFunction(grid256, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        back = lv.GridFunction.from_coeffs(grid256, u.coeffs)
        assert np.abs(back.values - u.values).max() <= 1e-12 * np.abs(u.values).max()

    def test_size_mismatch(self, grid256):
        with pytest.raises(ValueError):
            lv.GridFunction(grid256, np.zeros(100, dtype=complex))


class TestGridFunction:
    def test_norms(self, grid256):
        u = lv.GridFunction(grid256, np.ones(256, dtype=complex))
        assert u.norm_lp(np.inf) == 1.0
        assert u.norm_l2() == pytest.approx(np.sqrt(grid256.period))


class TestDyadicPartition:
    def test_partition_of_unity_everywhere(self, grid1024):
        part = DyadicPartition(grid1024)
        total = sum(part.blocks)
        assert np.abs(total - 1.0).max() <= 1e-12

    def test_block_supports(self, grid1024):
        part = DyadicPartition(grid1024)
        mags = grid1024.xi_norm()
        for j in range(1, len(part)):
            inside = part.blocks[j] > 0
            assert mags[inside].min() >= 2.0 ** (j - 1) - 1e-12
            assert mags[inside].max() <= 2.0 ** (j + 1) + 1e-12

    def test_nyquist_flag(self, grid1024):
        part = DyadicPartition(grid1024)
        assert part.nyquist_block == len(part) - 1
        k_nyq = int(np.argmax(np.abs(grid1024.xi)))
        weights = [part.blocks[j][k_nyq] for j in range(len(part))]
        assert np.argmax(weights) == part.nyquist_block

    def test_single_mode_blocks(self, grid256):
        u = make_mode(grid256, 3.0)
        part = DyadicPartition(grid256)
        k3 = int(np.argmin(np.abs(grid256.xi - 3.0)))
        for j in range(len(part)):
            proj = part.lp_project(u, j)
            expected = part.blocks[j][k3]
            if expected == 0.0:
                assert proj.norm_l2() <= 1e-14
            else:
                assert proj.norm_l2() > 0.0

    def test_blocks_reconstruct(self, grid256):
        rng = np.random.default_rng(5)
        u = lv.GridFunction(grid256, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        part = DyadicPartition(grid256)
        total = sum(
            (part.lp_project(u, j).values for j in range(len(part))),
            np.zeros(256, dtype=complex),
        )
        assert np.abs(total - u.values).max() <= 1e-10 * np.abs(u.values).max()

    def test_projection_is_l2_contraction(self, grid256):
        rng = np.random.default_rng(6)
        u = lv.GridFunction(grid256, rng.standard_normal(256).astype(complex))
        part = DyadicPartition(grid256)
        for j in range(len(part)):
            assert part.lp_project(u, j).norm_l2() <= u.norm_l2() + 1e-12

    def test_real_input_radial_window_closure(self, grid256):
        u = lv.GridFunction(grid256, np.cos(0.75 * grid256.x).astype(complex))
        part = DyadicPartition(grid256)
        for j in range(len(part) - 1):  # Nyquist block excluded by design
            proj = part.lp_project(u, j)
            assert np.abs(proj.values.imag).max() <= 1e-12

    def test_block_index_range(self, grid256):
        u = lv.GridFunction(grid256, np.zeros(256, dtype=complex))
        with pytest.raises(ValueError):
            DyadicPartition(grid256).lp_project(u, 99)


class TestBesovNorm:
    def test_zero_function(self, grid256):
        u = lv.GridFunction(grid256, np.zeros(256, dtype=complex))
        assert DyadicPartition(grid256).besov_norm(u, 1.0, 2.0, 2.0) == 0.0

    def test_homogeneity(self, grid256):
        rng = np.random.default_rng(8)
        u = lv.GridFunction(grid256, rng.standard_normal(256).astype(complex))
        part = DyadicPartition(grid256)
        a = part.besov_norm(2.0 * u, 1.5, 2.0, 2.0)
        b = part.besov_norm(u, 1.5, 2.0, 2.0)
        assert a == pytest.approx(2.0 * b, rel=1e-12)

    def test_mode_eight_sup_norm_oracle(self):
        # u = e^{i 8 x}, s = 1, p = q = inf: direct summation over the
        # (at most two) contributing blocks
        grid = lv.TorusGrid(n=128, dimension=1, length_factor=1.0)
        u = lv.GridFunction.from_callable(grid, lambda x: np.exp(8j * x))
        part = DyadicPartition(grid)
        k8 = int(np.argmin(np.abs(grid.xi - 8.0)))
        oracle = max(2.0**j * part.blocks[j][k8] for j in range(len(part)))
        got = part.besov_norm(u, 1.0, np.inf, np.inf)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_monotone_in_smoothness(self, grid256):
        rng = np.random.default_rng(10)
        u = lv.GridFunction(grid256, rng.standard_normal(256).astype(complex))
        part = DyadicPartition(grid256)
        norms = [part.besov_norm(u, s, 2.0, 2.0) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("pq", [(2.0, 2.0), (np.inf, np.inf), (2.0, np.inf)])
    def test_triangle_inequality(self, grid256, pq):
        p, q = pq
        part = DyadicPartition(grid256)
        rng = np.random.default_rng(12)
        for _ in range(5):
            u = lv.GridFunction(grid256, rng.standard_normal(256) + 1j * rng.standard_normal(256))
            v = lv.GridFunction(grid256, rng.standard_normal(256) + 1j * rng.standard_normal(256))
            lhs = part.besov_norm(u + v, 1.0, p, q)
            rhs = part.besov_norm(u, 1.0, p, q) + part.besov_norm(v, 1.0, p, q)
            assert lhs <= rhs + 1e-12 * max(rhs, 1.0)

    def test_invalid_integrability(self, grid256):
        u = lv.GridFunction(grid256, np.zeros(256, dtype=complex))
        with pytest.raises(ValueError):
            DyadicPartition(grid256).besov_norm(u, 1.0, 0.5, 2.0)


class TestRoughFunction:
    def test_prescribed_modulus_and_real_values(self, grid256):
        u = lv.random_rough_function(grid256, 0.51, seed=11)
        assert np.abs(u.values.imag).max() <= 1e-12
        mags = grid256.xi_norm()
        expected = (1.0 + mags**2) ** (-0.51 / 2.0)
        assert np.allclose(np.abs(u.coeffs), expected, rtol=1e-10)
