"""levysde: a numerical laboratory for Levy-driven SDE semigroups.

Levy symbols and state symbols, Besov norms on the torus, parametrix
inversion of pseudo-differential operators, contour-quadrature semigroup
evaluation, and jump-diffusion Monte Carlo with truncation/Gaussian
compensation.

Convention throughout: ``E e^{i<xi, L(t)>} = e^{-t psi(xi)}`` with
``Re psi >= 0``; the generator is ``-a(x, D)`` and the semigroup acts as the
multiplier ``e^{-t psi}`` in the constant-coefficient case.
"""

from .besov import DyadicPartition
from .errors import (
    ConfigError,
    ContractionError,
    EllipticityError,
    LevySdeError,
    QuadratureError,
    SpectralDistanceError,
)
from .grids import GridFunction, TorusGrid, random_rough_function
from .measures import (
    AtomicMeasure,
    StableMeasure,
    TabulatedMeasure,
    bg_index,
    levy_exponent,
    sample_increment,
    small_jump_symbol_error,
    stable_normalizer,
)
from .models import SdeModel, coefficient_preset, state_symbol
from .montecarlo import (
    McEstimate,
    SimScheme,
    bump_payoff,
    density_probe,
    hat_payoff,
    indicator_payoff,
    jump_split_check,
    mc_semigroup,
    spectral_reference,
    strong_feller_growth,
    strong_feller_profile,
    terminal_samples,
    weak_error_table,
)
from .operators import (
    ContourSpec,
    SolveReport,
    analyticity_gauge,
    apply_symbol,
    build_contour,
    contour_for_time,
    contour_semigroup,
    dense_symbol_matrix,
    parametrix_solve,
    resolvent_apply,
    semigroup_apply,
    smoothing_gauge,
)
from .ratefit import RateFit, fit_rate
from .symbols import (
    AClass,
    CutoffSplit,
    HypClass,
    SectorReport,
    SeminormReport,
    SymbolGrid,
    choose_R,
    composition_defect,
    cutoff_split,
    seminorm,
    tabulate,
)

__version__ = "0.1.0"
