"""Levy exponents, state symbols, activity index, and sector diagnostics.

Walks through the measure kinds the package supports and the two basic
diagnostics attached to a symbol: the Blumenthal-Getoor index (growth order
at high frequency) and the sector condition |Im a| <= c Re a, decided on the
tabulated symbol whose sector angle later sets the contour-integral
semigroup.
"""

import numpy as np

import levysde as lv

print("=== Levy exponents under the e^{-t psi} convention ===")
stable = lv.StableMeasure.normalized(1.5)
print(f"normalized 1.5-stable:  psi(2) = {lv.levy_exponent(stable, 2.0):.6f}"
      f"   (closed form 2^1.5 = {2**1.5:.6f})")

atom = lv.AtomicMeasure(atoms=(((2.0,), 1.0),))
xi = 0.7
print(f"single atom at z=2:     psi({xi}) = {lv.levy_exponent(atom, xi):.6f}"
      f"   (closed form 1 - e^{{2 i xi}} = {1 - np.exp(2j * xi):.6f})")

r = np.geomspace(1e-6, 100.0, 300)
c = lv.stable_normalizer(1.5)
tabulated = lv.TabulatedMeasure(radii=tuple(r), density=tuple(c * r**-2.5))
print(f"tabulated stable-like:  psi(2) = {lv.levy_exponent(tabulated, 2.0).real:.6f}"
      f"   (quadrature path, same density)")

print("\n=== Blumenthal-Getoor index by log-log regression ===")
for alpha in (1.2, 1.5, 1.8):
    est = lv.bg_index(lv.StableMeasure.normalized(alpha), k=2)
    print(f"alpha = {alpha}:  estimate = {est:.4f}")
print(f"finite atomic measure:  estimate = {lv.bg_index(atom, k=0, fit_range=(1.0, 512.0)):.4f}"
      "   (bounded exponent: index 0)")

print("\n=== State symbols a(x, xi) = psi(sigma(x) xi) - i b(x) xi ===")
model = lv.SdeModel(
    sigma=lv.coefficient_preset("2+sin"),
    drift=lv.coefficient_preset("constant", value=0.0),
    measure=stable,
    sigma_lower_bound=0.9,
)
print(f"sigma(x) = 2 + sin x at x = pi/2, xi = 1:  a = {lv.state_symbol(model, np.pi/2, 1.0):.6f}"
      f"   (|3|^1.5 = {3**1.5:.6f})")

print("\n=== Sector decisions on tabulated symbols ===")


def table(measure, n, length_factor, drift=0.0):
    """a(x_i, xi_k) on the torus of period 2 pi L, sigma = 1, constant drift."""
    unit = lv.SdeModel(
        sigma=lv.coefficient_preset("constant", value=1.0),
        drift=lv.coefficient_preset("constant", value=drift),
        measure=measure,
        sigma_lower_bound=0.5,
    )
    return lv.tabulate(unit, lv.TorusGrid(n=n, length_factor=length_factor))


rep = table(stable, 256, 4.0).sector
print(f"symmetric stable: sectorial = {rep.is_sectorial}, ratio = {rep.ratio_sup:.3f}")

# L = 1 puts xi on the integers
rep2 = table(stable, 128, 1.0, drift=1.0).sector
print(f"stable + unit drift: ratio = {rep2.ratio_sup:.3f} (attained at |xi| = 1), "
      f"half-angle theta = {rep2.theta:.3f}")

# this length factor puts xi = pi + 1e-7 at index 3
one_sided = lv.AtomicMeasure(atoms=(((2.0,), 1.0),))
rep3 = table(one_sided, 16, 3.0 / (np.pi + 1e-7)).sector
print(f"one-sided atom: sectorial = {rep3.is_sectorial} "
      f"(real part of psi vanishes near xi = pi, witness {rep3.witness})")
