import numpy as np
import pytest
from hypothesis import strategies as st

import levysde as lv


@pytest.fixture(scope="session")
def grid256():
    return lv.TorusGrid(n=256, dimension=1, length_factor=4.0)


@pytest.fixture(scope="session")
def grid1024():
    return lv.TorusGrid(n=1024, dimension=1, length_factor=4.0)


@pytest.fixture(scope="session")
def stable_measure():
    return lv.StableMeasure.normalized(1.5)


@pytest.fixture(scope="session")
def constant_model(stable_measure):
    return lv.SdeModel(
        sigma=lv.coefficient_preset("constant", value=1.0),
        drift=lv.coefficient_preset("constant", value=0.0),
        measure=stable_measure,
        sigma_lower_bound=0.5,
    )


@pytest.fixture(scope="session")
def variable_model(stable_measure):
    # sigma(x) = 2 + 0.2 sin x, drift 0
    return lv.SdeModel(
        sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=0.2),
        drift=lv.coefficient_preset("constant", value=0.0),
        measure=stable_measure,
        sigma_lower_bound=1.5,
    )


@pytest.fixture(scope="session")
def symbol_const_256(constant_model, grid256):
    return lv.tabulate(constant_model, grid256)


@pytest.fixture(scope="session")
def symbol_var_256(variable_model, grid256):
    return lv.tabulate(variable_model, grid256)


@pytest.fixture(scope="session")
def symbol_const_1024(constant_model, grid1024):
    return lv.tabulate(constant_model, grid1024)


def make_mode(grid, freq):
    """Grid function with a single synthesis coefficient at frequency ~freq."""
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[int(np.argmin(np.abs(grid.xi - freq)))] = 1.0
    return lv.GridFunction.from_coeffs(grid, coeffs)


def swept_model(d, alpha, amp, drift):
    """sigma = 2 + amp sin(x_1) (times the identity in d = 2) and a drift of
    size ``drift``, driven by the normalized alpha-stable measure."""
    measure = lv.StableMeasure.normalized(alpha, dimension=d)
    if d == 1:
        return lv.SdeModel(
            sigma=lv.coefficient_preset("2+sin", offset=2.0, amplitude=amp),
            drift=lv.coefficient_preset("1+0.5cos", offset=0.0, amplitude=drift),
            measure=measure,
            sigma_lower_bound=2.0 - amp,
        )

    def sigma(x):
        x = np.asarray(x, dtype=float)
        return (2.0 + amp * np.sin(x[..., 0]))[..., None, None] * np.eye(2)

    def b(x):
        x = np.asarray(x, dtype=float)
        return drift * np.stack([np.cos(x[..., 1]), np.ones(x.shape[:-1])], axis=-1)

    return lv.SdeModel(sigma=sigma, drift=b, measure=measure, sigma_lower_bound=2.0 - amp,
                       dimension=2)


def counting_solves(sizes):
    """A stand-in for ``operators.resolvent_apply`` that records each batch size."""
    return lambda lam, *args, **kw: sizes.append(np.size(lam)) or lv.resolvent_apply(lam, *args, **kw)


def constant_coefficient_model(d, alpha, sigma, drift):
    """Constant ``sigma`` (times the identity in d = 2) and drift ``b`` (the
    vector ``(b, -b / 2)`` in d = 2), driven by the normalized alpha-stable
    measure."""
    measure = lv.StableMeasure.normalized(alpha, dimension=d)
    if d == 1:
        return lv.SdeModel(sigma=lv.coefficient_preset("constant", value=sigma),
                           drift=lv.coefficient_preset("constant", value=drift),
                           measure=measure, sigma_lower_bound=0.5 * sigma)

    def sig(x):
        return np.broadcast_to(sigma * np.eye(2), np.shape(x)[:-1] + (2, 2))

    def b(x):
        return np.broadcast_to([drift, -0.5 * drift], np.shape(x)[:-1] + (2,))

    return lv.SdeModel(sigma=sig, drift=b, measure=measure, sigma_lower_bound=0.5 * sigma,
                       dimension=2)


def swept_symbols(alpha=(0.3, 1.9), amp=(0.0, 1.5), drift=(-3.0, 3.0), n2=(16, 32)):
    """Tabulated ``swept_model`` symbols: d = 1 with N <= 256, d = 2 with N in ``n2``."""
    one = st.tuples(st.just(1), st.sampled_from([16, 32, 64, 128, 256]))
    two = st.tuples(st.just(2), st.sampled_from(n2))
    return st.builds(
        lambda dn, L, a, s, b: lv.tabulate(
            swept_model(dn[0], a, s, b), lv.TorusGrid(n=dn[1], dimension=dn[0], length_factor=L)
        ),
        dn=one | two,
        L=st.sampled_from([1.0, 2.0, 4.0]),
        a=st.floats(*alpha),
        s=st.floats(*amp),
        b=st.floats(*drift),
    )
