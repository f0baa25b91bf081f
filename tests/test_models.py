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
    def test_symmetric_stable_is_sectorial(self, stable_measure):
        lattice = np.linspace(0.25, 64.0, 256)
        rep = lv.sector_report(stable_measure, lattice)
        assert rep.is_sectorial
        assert rep.ratio_sup == 0.0
        assert rep.min_real_part > 0.0

    def test_drift_ratio_on_integer_lattice(self, stable_measure):
        # a = |xi|^{1.5} - i xi: ratio |xi| / |xi|^{1.5} maximal at |xi| = 1
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("constant", value=1.0),
            drift=lv.coefficient_preset("constant", value=1.0),
            measure=stable_measure,
            sigma_lower_bound=0.5,
        )
        lattice = np.arange(1.0, 65.0)
        rep = lv.sector_report(model, lattice, x_nodes=np.array([0.0]))
        oracle = max(abs(xi) / abs(xi) ** 1.5 for xi in lattice)
        assert rep.ratio_sup == pytest.approx(oracle, rel=1e-12)
        assert rep.ratio_sup == pytest.approx(1.0)
        assert rep.is_sectorial

    def test_one_sided_atom_violation_witnessed(self):
        # Re psi = 1 - cos 2 xi vanishes at xi = pi while Im is nonzero nearby
        spec = lv.AtomicMeasure(atoms=(((2.0,), 1.0),))
        lattice = np.array([1.0, 2.0, np.pi + 1e-7, 4.0])
        rep = lv.sector_report(spec, lattice)
        assert not rep.is_sectorial
        assert rep.witness[1] == 2  # the lattice point next to the zero
        # closed form: the flagged point has essentially zero real part
        val = 1.0 - np.exp(2j * lattice[2])
        assert val.real <= 1e-12 and abs(val.imag) > 1e-12

    def test_empty_lattice_rejected(self, stable_measure):
        with pytest.raises(ValueError):
            lv.sector_report(stable_measure, np.array([]))

    def test_zero_frequency_rejected(self, stable_measure):
        with pytest.raises(ValueError):
            lv.sector_report(stable_measure, np.array([0.0, 1.0]))

    def test_theta_from_ratio(self, stable_measure):
        model = lv.SdeModel(
            sigma=lv.coefficient_preset("constant", value=1.0),
            drift=lv.coefficient_preset("constant", value=1.0),
            measure=stable_measure,
            sigma_lower_bound=0.5,
        )
        rep = lv.sector_report(model, np.arange(1.0, 65.0), x_nodes=np.array([0.0]))
        assert rep.theta == pytest.approx(np.arctan(1.0 / rep.ratio_sup))
