"""Evaluating the Markovian semigroup by trapezoid quadrature on a hyperbola.

P_t u is recovered as a weighted sum of resolvent applications
(lambda + a(x,D))^{-1} u at the nodes of the trapezoid rule on the hyperbola
z(s) = mu (1 + sin(i s - alpha)), which opens to the left around the
spectrum; its angle, scale and step follow the symbol's sector, and its node
count the residue tolerance.  That is how semigroup_apply evaluates P_t for
variable coefficients; for constant ones it takes the exact Fourier
multiplier, against which contour_semigroup is checked here.  The analyticity
and smoothing gauges then quantify how strongly P_t regularizes rough data.
"""

import numpy as np

import levysde as lv
from levysde.operators import contour_for_time, contour_semigroup

grid = lv.TorusGrid(n=1024, dimension=1, length_factor=4.0)
model = lv.SdeModel(
    sigma=lv.coefficient_preset("constant", value=1.0),
    drift=lv.coefficient_preset("constant", value=0.0),
    measure=lv.StableMeasure.normalized(1.5),
    sigma_lower_bound=0.5,
)
sym = lv.tabulate(model, grid)

contour = contour_for_time(1.0, sym.sector_angle)
residue = contour.quadrature(lambda lam: np.exp(lam) / (lam + 1.0))
print(f"hyperbola alpha = {contour.alpha:.4f}, mu = {contour.mu:.2f}, h = {contour.h:.4f}: "
      f"{contour.nodes.size} nodes")
print(f"contour self-test: |quad - e^-1| = {abs(residue - np.exp(-1)):.2e} "
      f"(recorded {contour.residue_error:.2e})")

u = lv.random_rough_function(grid, 0.51, seed=3)
for t in (0.1, 1.0):
    pt = contour_semigroup(t, sym, u)
    exact = lv.semigroup_apply(t, sym, u)  # the exact multiplier exp(-t a(xi))
    print(f"t = {t}: contour vs exact multiplier, relative error = "
          f"{(pt - exact).norm_l2() / exact.norm_l2():.2e}")

print("\nsmoothing gauge (rough input, gamma = delta = 1.5, p = q = 2):")
times = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
rep = lv.smoothing_gauge(sym, u, 1.5, 1.5, times)
doubled = lv.smoothing_gauge(sym, u, 3.0, 1.5, times)
print(f"  |P_t u|_B^1.5 blow-up slope: {rep.slope:.3f}  (one power of 1/t caps it)")
print(f"  doubled-order gauge slope:   {doubled.slope:.3f}  (two applications, 1/t^2)")

print("\nanalyticity gauge |t A P_t u| / |u| over three decades of t:")
grid_v = lv.TorusGrid(n=256, dimension=1, length_factor=4.0)
model_v = lv.SdeModel(
    sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2),
    drift=lv.coefficient_preset("constant", value=0.0),
    measure=lv.StableMeasure.normalized(1.5),
    sigma_lower_bound=1.5,
)
sym_v = lv.tabulate(model_v, grid_v)
u_v = lv.random_rough_function(grid_v, 0.5, seed=4)
rows = lv.analyticity_gauge(sym_v, u_v, [1.0, 0.1, 0.01, 0.001])
for t, val in rows:
    print(f"  t = {t:7.3f}: gauge = {val:.4f}")
vals = [v for _, v in rows]
print(f"  max/min = {max(vals) / min(vals):.3f}  (uniform boundedness = analyticity)")
