"""Torus grids, synthesis spectra, dyadic blocks, and Besov norms.

The function spaces behind every smoothing statement in the package are
realized on a periodic grid: a raised-cosine dyadic partition of the
frequency lattice that sums to one exactly, and the weighted block-norm
sums that define the Besov scales.
"""

import numpy as np

import levysde as lv
from levysde.besov import DyadicPartition

grid = lv.TorusGrid(n=512, dimension=1, length_factor=4.0)
print(f"torus: period {grid.period:.3f}, {grid.n} points, "
      f"frequency lattice step {1/grid.length_factor}, Nyquist {grid.xi_nyquist}")

part = DyadicPartition(grid)
total = sum(part.blocks)
print(f"dyadic blocks: {len(part)} levels, partition-of-unity defect "
      f"{np.abs(total - 1).max():.2e}, Nyquist block = {part.nyquist_block}")

u = lv.random_rough_function(grid, 0.51, seed=1)
recon = sum(
    (part.lp_project(u, j).values for j in range(len(part))),
    np.zeros(grid.n, dtype=complex),
)
print(f"block reconstruction defect: {np.abs(recon - u.values).max():.2e}")

print("\nBesov norms of the rough input (spectrum ~ <xi>^{-0.51}):")
for s in (0.0, 0.75, 1.5):
    print(f"  B^{s}_{{2,2}} norm = {part.besov_norm(u, s, 2.0, 2.0):.4f}")

smooth = lv.GridFunction.from_callable(
    grid, lv.bump_payoff(center=grid.period / 2, width=2.0, period=grid.period)
)
print("\nBesov norms of a smooth bump (all scales comparable):")
for s in (0.0, 0.75, 1.5):
    print(f"  B^{s}_{{2,2}} norm = {part.besov_norm(smooth, s, 2.0, 2.0):.4f}")

mode = lv.GridFunction.from_callable(
    lv.TorusGrid(n=128, dimension=1, length_factor=1.0), lambda x: np.exp(8j * x)
)
part8 = DyadicPartition(mode.grid)
val = part8.besov_norm(mode, 1.0, np.inf, np.inf)
k8 = int(np.argmin(np.abs(mode.grid.xi - 8.0)))
direct = max(2.0**j * part8.blocks[j][k8] for j in range(len(part8)))
print(f"\nsingle mode e^(i8x): B^1_(inf,inf) = {val:.4f}, "
      f"direct block sum = {direct:.4f}")
