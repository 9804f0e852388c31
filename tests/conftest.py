import pytest

from herglotz import harmonics, specfun


@pytest.fixture
def cold_tables():
    """Empty every process-wide table (sphere grids, Gauss-Legendre rules,
    basis values, pole tables, p_alpha polynomials and Bessel rows), so that
    a test counting evaluations does not depend on which tests ran before it."""
    for table in (harmonics.sphere_grid, specfun.leggauss, harmonics._value_table,
                  harmonics.default_poles, harmonics._palpha_table, specfun._bessel_row):
        table.cache_clear()
