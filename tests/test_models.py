"""State symbols, coefficient presets, and sector diagnostics."""

import numpy as np
import pytest

import levysde as lv


class TestStateSymbol:
    def test_constant_sigma_stable(self, constant_model):
        # sigma = 1, b = 0, alpha = 1.5, xi = 2
        assert lv.state_symbol(constant_model, 0.7, 2.0) == pytest.approx(2.0**1.5)

    def test_zero_frequency(self, variable_model):
        assert lv.state_symbol(variable_model, 1.3, 0.0) == 0.0

    def test_two_plus_sin_substitution(self, stable_measure):
        # sigma(pi/2) = 3 -> |3 xi|^{1.5} at xi = 1, checked against quadrature
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("2+sin"),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=stable_measure,
            sigma_lower_bound=0.9,
        )
        got = lv.state_symbol(model, np.pi / 2, 1.0)
        assert got == pytest.approx(3.0**1.5, rel=1e-12)
        # quadrature oracle through a tabulated rendering of the same density
        c = lv.stable_normalizer(1.5)
        r = np.geomspace(1e-7, 400.0, 600)
        tab = lv.TabulatedMeasure(radii=tuple(r), density=tuple(c * r**-2.5))
        assert lv.levy_exponent(tab, 3.0) == pytest.approx(3.0**1.5, rel=2e-3)

    def test_drift_sign_transports(self, stable_measure):
        # pure drift: multiplier e^{-t a} with a = -i b xi moves mass to x + b t
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("constant", value=1e-8),
            drift=lv.coefficient_preset("constant", value=1.0),
            measure=stable_measure,
            sigma_lower_bound=0.0,
        )
        a = lv.state_symbol(model, 0.0, 3.0)
        assert a.imag == pytest.approx(-3.0)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("sigma", [lv.coefficient_preset("2+sin", amplitude=0.2),
                                       lambda x: 2.0], ids=["2+sin", "scalar"])
    @pytest.mark.parametrize(
        "measure",
        [
            lv.StableMeasure.normalized(1.5),
            lv.AtomicMeasure(atoms=(((0.5,), 3.0), ((-0.5,), 3.0), ((2.0,), 1.0))),
            lv.TabulatedMeasure(radii=tuple(np.geomspace(0.01, 10, 30)),
                                density=tuple(np.geomspace(0.01, 10, 30) ** -2.5)),
        ],
        ids=["stable", "atomic", "tabulated"],
    )
    def test_zero_drift_matches_literal_formula(self, measure, sigma, zero):
        # the drift term is skipped when every drift sample is zero; the
        # values, their sign bits and the shape are those of the literal formula
        model = lv.SdeModel(
            sigma=sigma,
            drift=lv.coefficient_preset("constant", value=zero),
            measure=measure,
            sigma_lower_bound=1.0,
        )
        x = np.linspace(0.0, 2 * np.pi, 7)[:, None]
        xi = np.array([-7.0, -1.0, -0.0, 0.0, 0.5, 3.0])[None, :]
        for x_at, xi_at in ((x, xi), (0.3, -2.0), (0.3, 0.0), (x, -0.0)):
            literal = (lv.levy_exponent(measure, model.sigma_at(np.asarray(x_at)) * xi_at)
                       - 1j * model.drift_at(np.asarray(x_at)) * xi_at)
            got = lv.state_symbol(model, x_at, xi_at)
            assert np.shape(got) == np.shape(literal)
            assert np.array_equal(got, literal)
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(got, part)),
                                      np.signbit(getattr(literal, part)))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_drift_matches_literal_formula_2d(self, zero):
        measure = lv.StableMeasure.normalized(1.5, dimension=2)

        def sigma(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape[:-1] + (2, 2))
            out[..., 0, 0] = 2.0 + 0.2 * np.sin(x[..., 0])
            out[..., 0, 1] = 0.1 * np.cos(x[..., 1])
            out[..., 1, 1] = 1.5
            return out

        model = lv.SdeModel(
            sigma=sigma,
            drift=lambda x: np.full(np.shape(x), zero),
            measure=measure,
            sigma_lower_bound=1.0,
            dimension=2,
        )
        axis = np.array([-3.0, -0.0, 0.0, 2.0])
        xi = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        x = np.stack(np.meshgrid(np.linspace(0, 6, 3), np.linspace(0, 6, 3), indexing="ij"),
                     axis=-1).reshape(-1, 1, 2)
        sig = model.sigma_at(x)
        lead = np.broadcast_shapes(sig.shape[:-2], xi.shape[:-1])
        xi_b = np.broadcast_to(xi, lead + (2,))
        eta = np.einsum("...ij,...i->...j", np.broadcast_to(sig, lead + (2, 2)), xi_b)
        drift_b = np.broadcast_to(model.drift_at(x), lead + (2,))
        literal = (lv.levy_exponent(measure, eta)
                   - 1j * np.einsum("...i,...i->...", drift_b, xi_b))
        got = lv.state_symbol(model, x, xi)
        assert np.array_equal(got, literal)
        for part in ("real", "imag"):
            assert np.array_equal(np.signbit(getattr(got, part)),
                                  np.signbit(getattr(literal, part)))

    def test_sigma_lower_bound_enforced(self, stable_measure):
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("2+sin", offset=1.0, amplitude=1.0),
            drift=lv.coefficient_preset("constant", value=0.0),
            measure=stable_measure,
            sigma_lower_bound=0.5,
        )
        with pytest.raises(ValueError):
            model.sigma_at(np.array([3 * np.pi / 2]))  # sigma = 0 there


class TestPresets:
    def test_names(self):
        assert set(lv.models.PRESETS) == {"constant", "2+sin", "1+0.5cos", "affine"}

    def test_values(self):
        x = np.array([0.0, np.pi / 2])
        assert np.allclose(lv.coefficient_preset("constant", value=2.5)(x), 2.5)
        assert np.allclose(lv.coefficient_preset("2+sin")(x), [2.0, 3.0])
        assert np.allclose(lv.coefficient_preset("1+0.5cos")(x), [1.5, 1.0])
        assert np.allclose(
            lv.coefficient_preset("affine", intercept=1.0, slope=2.0)(x), 1.0 + 2.0 * x
        )

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            lv.coefficient_preset("cubic")


class TestSectorReport:
    """The sector decision ``SymbolGrid.sector`` on tabulated state symbols."""

    @staticmethod
    def _table(measure, n, length_factor, drift=0.0):
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("constant", value=1.0),
            drift=lv.coefficient_preset("constant", value=drift),
            measure=measure,
            sigma_lower_bound=0.5,
        )
        return lv.tabulate(model, lv.TorusGrid(n=n, length_factor=length_factor))

    def test_symmetric_stable_is_sectorial(self, stable_measure):
        sym = self._table(stable_measure, 256, 4.0)
        rep = sym.sector
        assert rep.is_sectorial
        assert rep.ratio_sup == 0.0
        assert sym.values[:, sym.grid.xi != 0].real.min() > 0.0

    def test_drift_ratio_on_integer_lattice(self, stable_measure):
        # a = |xi|^{1.5} - i xi: ratio |xi| / |xi|^{1.5} maximal at |xi| = 1;
        # L = 1 puts xi on the integers -64..63
        sym = self._table(stable_measure, 128, 1.0, drift=1.0)
        rep = sym.sector
        oracle = max(abs(xi) / abs(xi) ** 1.5 for xi in sym.grid.xi if xi != 0)
        assert rep.ratio_sup == pytest.approx(oracle, rel=1e-12)
        assert rep.ratio_sup == pytest.approx(1.0)
        assert rep.is_sectorial

    def test_one_sided_atom_violation_witnessed(self):
        # Re psi = 1 - cos 2 xi vanishes at xi = pi while Im is nonzero nearby;
        # this length factor puts xi = pi + 1e-7 at index 3
        spec = lv.AtomicMeasure(atoms=(((2.0,), 1.0),))
        sym = self._table(spec, 16, 3.0 / (np.pi + 1e-7))
        rep = sym.sector
        assert not rep.is_sectorial
        assert rep.witness == (0, 3)  # the lattice point next to the zero
        # closed form: the flagged point has essentially zero real part
        val = 1.0 - np.exp(2j * sym.grid.xi[3])
        assert val.real <= 1e-12 and abs(val.imag) > 1e-12

    def test_theta_from_ratio(self, stable_measure):
        rep = self._table(stable_measure, 128, 1.0, drift=1.0).sector
        assert rep.theta == pytest.approx(np.arctan(1.0 / rep.ratio_sup))
