"""Regularization probes: strong-Feller profiles, transition densities, and
the big/small-jump decomposition.

For t > 0 the semigroup maps the discontinuous indicator payoff to a smooth
profile (strong Feller); the transition density sharpens like a power of 1/t
as t decreases; and splitting the driver at jump size one leaves every
payoff mean unchanged in law.
"""

import numpy as np

import levysde as lv

model = lv.SdeModel(
    sigma=lv.coefficient_preset("constant", value=1.0),
    drift=lv.coefficient_preset("constant", value=0.0),
    measure=lv.StableMeasure.normalized(1.5),
    sigma_lower_bound=0.5,
)

print("=== strong-Feller profile of P_t 1_{[0, inf)} at t = 1 ===")
scheme = lv.SimScheme(eps=0.1, tau=1.0, gaussian_compensation=True, paths=60_000, seed=5)
xs = np.linspace(-4.0, 4.0, 17)
prof = lv.strong_feller_profile(model, 1.0, 0.0, xs, scheme)
for x, p in zip(prof.x_grid[::4], prof.profile[::4]):
    print(f"  x = {x:5.1f}: P(X(1) >= 0) = {p:.4f}")
print(f"discrete Lipschitz constant: {prof.lipschitz:.4f}, "
      f"max jump / median jump: {prof.max_jump_ratio:.2f}")

rows, beta, _ = lv.strong_feller_growth(model, [1.0, 0.5, 0.25, 0.125], 0.0, xs, scheme)
print(f"Lipschitz growth as t decreases: L(t) ~ t^-{beta:.3f}")

print("\n=== transition density and its derivative as t decreases ===")
density_scheme = lv.SimScheme(eps=0.1, tau=1.0, gaussian_compensation=True, paths=30_000, seed=1234)
rep = lv.density_probe(model, 0.0, [1.0, 0.5, 0.25, 0.125, 0.0625], density_scheme)
for t, h, sup_slope, integral, flagged in rep.rows:
    print(f"  t = {t:6.4f}: sup|p'| = {sup_slope:7.3f}, integral = {integral:.4f}")
print(f"derivative growth exponent: {rep.growth_exponent:.3f} "
      f"(self-similar value 2/alpha = {2/1.5:.3f})")

print("\n=== big/small jump split at |z| = 1 ===")
js = lv.jump_split_check(model, 0.0, 1.0, paths=100_000, eps=0.05, seed=11)
for idx, mu_u, mu_s, diff, se in js.payoff_rows:
    print(f"  payoff {idx}: unsplit {mu_u:.4f}, split {mu_s:.4f}, "
          f"|diff| = {diff:.5f} ({diff / max(se, 1e-12):.2f} se)")
print(f"all within 4 stderr: {js.all_within_4se}")
print(f"large-jump count: {js.mean_large_jumps:.4f} vs nu(|z|>1) t = "
      f"{js.expected_large_jumps:.4f}")
