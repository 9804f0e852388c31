import pytest

from herglotz import extract, harmonics, specfun


@pytest.fixture
def cold_tables():
    """Empty every process-wide table (sphere grids, Gauss-Legendre rules,
    basis values, pole tables, p_alpha polynomials, Bessel rows, the constants
    and divisors of the mp Bessel series, and the mp DFT's twiddles), so that
    a test counting evaluations does not depend on which tests ran before it."""
    for table in (harmonics.sphere_grid, specfun.leggauss, harmonics._value_table,
                  harmonics.default_poles, harmonics._palpha_table, specfun._bessel_row,
                  specfun._mp_series_constants, specfun._mp_series_divisors,
                  extract._dft_twiddles):
        table.cache_clear()
