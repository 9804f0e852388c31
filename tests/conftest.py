import pytest

from herglotz import harmonics, specfun


@pytest.fixture
def cold_tables():
    """Empty the process-wide tables of pole tables, p_alpha polynomials and
    Bessel rows, so that a test counting evaluations does not depend on which
    tests ran before it."""
    for table in (harmonics.default_poles, harmonics._palpha_table, specfun._bessel_row):
        table.cache_clear()
