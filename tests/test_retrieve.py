import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herglotz import harmonics
from herglotz.field import (
    HerglotzField,
    MagnitudeData,
    conjugate_field,
    equal_magnitude,
    magnitude_coeffs,
    random_field,
    sample_magnitude,
    trivially_equivalent,
)
from herglotz.extract import extract_magnitude_data, radial_grid
from herglotz.harmonics import BasisSpec, fourier2d_basis
from herglotz.retrieve import (
    BranchNotApplicableError,
    InconsistentDataError,
    canonicalize,
    classify_modes,
    retrieve_2d,
    retrieve_3d_mean,
    retrieve_3d_real,
    retrieve_3d_sparse,
    retrieve_real_data,
    solve_pair,
    solve_real_from_data,
)

F2 = fourier2d_basis()
Z3 = BasisSpec("zonal", 3)
P3 = BasisSpec("palpha", 3)


def _f2(coeff_map, M):
    u = HerglotzField.zero(2, M, F2)
    for k, c in coeff_map.items():
        u.coeffs[abs(k)][0 if k >= 0 else 1] = c
    return u


# --------------------------------------------------------------------------
# solve_pair


def test_solve_pair_one_sided():
    sol = solve_pair(1.0, 0.0)
    assert sol.moduli == (1.0, 0.0)
    assert sol.assignments == ((1.0, 0.0), (0.0, 1.0))
    assert sol.phase_diff is None
    a, b = sol.realize(0, phase=0.4)
    assert abs(a) == pytest.approx(1.0) and b == 0


def test_solve_pair_double_root():
    sol = solve_pair(2.0, 1.0)
    assert sol.degenerate
    assert sol.moduli[0] == pytest.approx(1.0)
    assert sol.moduli[1] == pytest.approx(1.0)
    a, b = sol.realize()
    assert a * np.conj(b) == pytest.approx(1.0)


def test_solve_pair_zero():
    sol = solve_pair(0.0, 0.0)
    assert sol.moduli == (0.0, 0.0)
    assert sol.degenerate


def test_solve_pair_inconsistent():
    with pytest.raises(InconsistentDataError):
        solve_pair(1.0, 0.9)
    with pytest.raises(InconsistentDataError):
        solve_pair(-0.5, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["s", "p"])
def test_solve_pair_refuses_non_finite_data(where, bad):
    # a nan s once came back as moduli (nan, 0.0), and a nan p as phase nan
    s, p = (bad, 0.1) if where == "s" else (1.0, complex(bad, 0.0))
    with pytest.raises(InconsistentDataError, match="non-finite pair data") as err:
        solve_pair(s, p)
    assert str(bad) in str(err.value)


@pytest.mark.parametrize("slot", [(0, 0, 6), (1, 1, 6), (1, 2, 9)])
def test_retrieve_2d_refuses_nan_data(slot):
    # NaN passes a test of residual > tolerance; the slots send the data down
    # the zero-mean and the mean branches
    data = magnitude_coeffs(random_field(2, 3, F2, seed=1))
    table = data.table.copy()
    table[slot] = np.nan
    with pytest.raises(InconsistentDataError, match="residual nan"):
        retrieve_2d(MagnitudeData(2, data.grid, table))


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_solve_pair_solutions_satisfy_system(s, frac, argp, phase):
    p = frac * (s / 2.0) * np.exp(1j * argp)
    sol = solve_pair(s, p)
    for which in range(len(sol.assignments)):
        a, b = sol.realize(which, phase)
        assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(s, abs=1e-9)
        assert a * np.conj(b) == pytest.approx(p, abs=1e-9)


# --------------------------------------------------------------------------
# classify_modes


def test_classify_modes_type_r():
    u = _f2({1: 1.0, -1: 1.0}, 1)
    table = classify_modes(u, u)
    mt = table[1]
    assert mt.type_r and mt.type_i and mt.type_c
    assert mt.kappa == pytest.approx(1.0)
    assert mt.theta == pytest.approx(0.0)


def test_classify_modes_type_i_only():
    u = _f2({1: 2.0, -1: 1.0}, 1)
    table = classify_modes(u, u.scaled(1j))
    mt = table[1]
    assert mt.type_i and not mt.type_c and not mt.type_r
    assert mt.kappa == pytest.approx(1j)


def test_classify_modes_type_c_only():
    u = _f2({1: 2.0, -1: 1.0}, 1)
    table = classify_modes(u, conjugate_field(u))
    mt = table[1]
    assert mt.type_c and not mt.type_i and not mt.type_r


def test_classify_modes_kappa_propagation():
    # two non-R modes related by the same unimodular constant
    u = _f2({1: 2.0, -1: 1.0, 2: 1.0 + 1j, -2: 3.0}, 2)
    kappa = np.exp(0.7j)
    table = classify_modes(u, u.scaled(kappa))
    assert table[1].kappa == pytest.approx(kappa)
    assert table[2].kappa == pytest.approx(kappa)


def test_classify_modes_requires_zero_mean():
    u = _f2({0: 1.0, 1: 1.0}, 1)
    with pytest.raises(ValueError):
        classify_modes(u, u)


# --------------------------------------------------------------------------
# canonicalize


def test_canonicalize_gauge_invariance_quarter_turns():
    u = random_field(2, 3, F2, seed=1)
    b = canonicalize(u)
    for c in (1j, -1.0, -1j):
        a = canonicalize(u.scaled(c))
        assert max(np.abs(x - y).max() for x, y in zip(a.coeffs, b.coeffs)) < 1e-15


def test_canonicalize_conjugate_invariance():
    u = random_field(2, 3, F2, seed=2)
    a = canonicalize(conjugate_field(u))
    b = canonicalize(u)
    assert all(np.array_equal(x, y) for x, y in zip(a.coeffs, b.coeffs))


def test_canonicalize_generic_phase():
    u = random_field(2, 3, F2, seed=3)
    a = canonicalize(u.scaled(np.exp(1.234j)))
    b = canonicalize(u)
    assert max(np.abs(x - y).max() for x, y in zip(a.coeffs, b.coeffs)) < 1e-14


def test_canonicalize_idempotent():
    for seed in range(100):
        u = random_field(2, 3, F2, seed=seed)
        a = canonicalize(u)
        b = canonicalize(a)
        assert all(np.array_equal(x, y) for x, y in zip(a.coeffs, b.coeffs))


def test_canonicalize_zero_field():
    z = HerglotzField.zero(2, 2, F2)
    assert canonicalize(z).is_zero()


# --------------------------------------------------------------------------
# retrieve_2d


def _roundtrip_2d(u, tol=1e-7):
    data = magnitude_coeffs(u)
    result = retrieve_2d(data)
    te = trivially_equivalent(result.field, u, tol=tol)
    return result, te


def test_retrieve_2d_spec_example():
    u = _f2({1: 1.0, 2: 1j}, 2)
    result, te = _roundtrip_2d(u)
    assert te.verdict != "Inequivalent"
    assert result.residual < 1e-12
    # the hand-built candidate i * conj-field lies in the conjugate class
    v = _f2({-1: 1j, -2: 1.0}, 2)
    assert equal_magnitude(u, v)
    assert trivially_equivalent(v, u).verdict == "Conjugate"


def test_retrieve_2d_single_mode():
    u = _f2({3: 5.0}, 3)
    result, te = _roundtrip_2d(u)
    assert te.verdict != "Inequivalent"
    assert result.residual < 1e-12


def test_retrieve_2d_zero_data():
    data = magnitude_coeffs(HerglotzField.zero(2, 3, F2))
    result = retrieve_2d(data)
    assert result.field.is_zero()
    assert result.residual == 0.0


def test_retrieve_2d_branches():
    cases = {
        "zero-mean": random_field(2, 4, F2, seed=4, zero_mean=True),
        "mean": random_field(2, 4, F2, seed=5),
        "all-R": random_field(2, 4, F2, seed=6, all_r=True),
        "real": random_field(2, 4, F2, seed=7, real=True),
    }
    for label, u in cases.items():
        result, te = _roundtrip_2d(u)
        assert te.verdict != "Inequivalent", label
        assert result.residual < 1e-10, label


def test_retrieve_2d_gauge_invariance():
    u = random_field(2, 3, F2, seed=8, zero_mean=True)
    data_a = magnitude_coeffs(u)
    data_b = magnitude_coeffs(u.scaled(1j))
    # multiplying by i is exact arithmetic, so the data agree bit for bit
    for (m, n) in data_a.pairs():
        fa, fb = data_a.pair_fourier(m, n), data_b.pair_fourier(m, n)
        assert set(fa) == set(fb)
        assert all(fa[q] == fb[q] for q in fa)
    ra = canonicalize(retrieve_2d(data_a).field)
    rb = canonicalize(retrieve_2d(data_b).field)
    assert all(np.array_equal(x, y) for x, y in zip(ra.coeffs, rb.coeffs))


def test_retrieve_2d_generic_gauge():
    u = random_field(2, 3, F2, seed=9, zero_mean=True)
    c = np.exp(0.37j)
    ra = retrieve_2d(magnitude_coeffs(u)).field
    rb = retrieve_2d(magnitude_coeffs(u.scaled(c))).field
    te = trivially_equivalent(ra, rb, tol=1e-8)
    assert te.verdict != "Inequivalent"


def test_exclusion_property():
    # u has a non-R mode (1) and v differs by conjugating another non-R mode
    # (2): equal-magnitude must fail (the cross term detects the mix)
    u = _f2({1: 2.0, -1: 1.0, 2: 1.0 + 1j, -2: 3.0}, 2)
    v = u.copy()
    v.coeffs[2] = np.array([np.conj(u.coeffs[2][1]), np.conj(u.coeffs[2][0])])
    assert not equal_magnitude(u, v)


def test_retrieve_2d_zero_mean_hub_far_from_type_r():
    # mode 1 sits just above the type-R threshold; as the hub it wrecks the
    # sampled round trip (forward residual 5e-3)
    u = random_field(2, 4, F2, seed=1158, zero_mean=True)
    g = sample_magnitude(u, radial_grid(48), 21)
    data, _ = extract_magnitude_data(g, 2, 4)
    result = retrieve_2d(data)
    assert result.residual < 1e-7
    assert trivially_equivalent(result.field, u, tol=1e-7).verdict != "Inequivalent"


def test_retrieve_2d_inconsistent_data():
    u = random_field(2, 3, F2, seed=10, zero_mean=True)
    data = magnitude_coeffs(u)
    # perturb Re c_{1,2} at its top frequency q = 3 and keep it real
    table = data.table.copy()
    top, bottom = 2 * 3 + 3, 2 * 3 - 3
    table[1, 2, top] += 0.4
    table[1, 2, bottom] = np.conj(table[1, 2, top])
    data = MagnitudeData(2, data.grid, table)
    with pytest.raises(InconsistentDataError) as exc:
        retrieve_2d(data)
    assert exc.value.residual is not None and exc.value.residual > 1e-3


def test_retrieve_real_data_2d():
    u = random_field(2, 4, F2, seed=11, real=True, zero_mean=True)
    result = retrieve_real_data(magnitude_coeffs(u), F2)
    te = trivially_equivalent(result.field, u, tol=1e-7)
    assert te.verdict != "Inequivalent"


# --------------------------------------------------------------------------
# d >= 3 special cases


def test_retrieve_3d_real_signs():
    u = random_field(3, 3, P3, seed=12, real=True)
    assert retrieve_3d_real(u, u) == 1
    assert retrieve_3d_real(u, u.scaled(-1)) == -1
    w = random_field(3, 3, P3, seed=13, real=True)
    with pytest.raises(InconsistentDataError):
        retrieve_3d_real(u, w)


def test_retrieve_3d_real_rejects_complex():
    u = random_field(3, 2, P3, seed=14)
    with pytest.raises(ValueError):
        retrieve_3d_real(u, u)


def test_retrieve_3d_mean_real_field():
    u = random_field(3, 3, P3, seed=15, real=True)
    result = retrieve_3d_mean(magnitude_coeffs(u), P3)
    te = trivially_equivalent(result.field, u, tol=1e-6)
    assert te.verdict in ("Identity", "Both")
    assert result.residual < 1e-9


def test_retrieve_3d_mean_complex_field():
    for basis, seed in ((P3, 16), (Z3, 17)):
        u = random_field(3, 3, basis, seed=seed)
        result = retrieve_3d_mean(magnitude_coeffs(u), basis)
        te = trivially_equivalent(result.field, u, tol=1e-6)
        assert te.verdict != "Inequivalent"
        assert result.residual < 1e-9


def test_zonal_chain_evaluates_each_basis_function_once_per_grid(monkeypatch):
    evaluate = harmonics._evaluate
    keys = []

    def counted(kind, dim, m, poles, theta):
        keys.append((m, poles.tobytes(), theta.tobytes()))
        return evaluate(kind, dim, m, poles, theta)

    monkeypatch.setattr(harmonics, "_evaluate", counted)
    basis = BasisSpec("zonal", 3)  # fresh, as in each CLI process
    u = random_field(3, 4, basis, seed=17)
    result = retrieve_3d_mean(magnitude_coeffs(u), basis)
    assert equal_magnitude(u, result.field)
    assert keys and len(set(keys)) == len(keys)


def test_retrieve_3d_mean_rejects_zero_mean():
    u = random_field(3, 3, P3, seed=18, zero_mean=True)
    with pytest.raises(BranchNotApplicableError):
        retrieve_3d_mean(magnitude_coeffs(u), P3)


def test_retrieve_2d_mean_branch_is_retrieve_3d_mean():
    # one mean-branch solver: retrieve_2d hands nonzero-mean data to it
    for seed in (5, 25, 26):
        data = magnitude_coeffs(random_field(2, 4, F2, seed=seed))
        a, b = retrieve_2d(data), retrieve_3d_mean(data, F2)
        assert a.branch == b.branch == "mean"
        assert all(np.array_equal(x, y) for x, y in zip(a.field.coeffs, b.field.coeffs))
        assert a.residual == b.residual and a.modes == b.modes


def test_branch_dimension_checks():
    data2 = magnitude_coeffs(random_field(2, 2, F2, seed=5))
    data3 = magnitude_coeffs(random_field(3, 2, Z3, seed=5))
    with pytest.raises(BranchNotApplicableError, match="applies to d >= 3 data"):
        retrieve_3d_sparse(data2, F2)
    for data, basis in ((data2, Z3), (data3, F2)):
        with pytest.raises(ValueError, match="basis is for d"):
            retrieve_3d_mean(data, basis)
    with pytest.raises(ValueError, match="basis is for d"):
        retrieve_3d_sparse(data3, F2)


def test_retrieve_3d_sparse_active_degrees():
    # degrees 1 and 3 active, mean absent
    u = HerglotzField.zero(3, 3, Z3)
    u.coeffs[1][0] = 0.8 - 0.3j
    u.coeffs[3][0] = -0.5 + 1.1j
    result = retrieve_3d_sparse(magnitude_coeffs(u), Z3)
    te = trivially_equivalent(result.field, u, tol=1e-6)
    assert te.verdict != "Inequivalent"


def test_retrieve_3d_sparse_support_detection():
    # Re c_{2,2} proportional to a single squared basis function identifies
    # the support index among the pole choices
    for j in range(5):
        u = HerglotzField.zero(3, 2, Z3)
        u.coeffs[2][j] = 1.3
        result = retrieve_3d_sparse(magnitude_coeffs(u), Z3)
        entry = [row for row in result.modes if row["m"] == 2][0]
        assert entry["j"] == j + 1


def test_retrieve_3d_sparse_zero_field():
    result = retrieve_3d_sparse(magnitude_coeffs(HerglotzField.zero(3, 2, Z3)), Z3)
    assert result.field.is_zero()


def test_retrieve_3d_sparse_rejects_dense():
    u = random_field(3, 3, Z3, seed=19)
    with pytest.raises(BranchNotApplicableError, match="not sparse"):
        retrieve_3d_sparse(magnitude_coeffs(u), Z3)


def test_solve_real_from_data_roundtrip():
    for basis, dim, seed in ((F2, 2, 20), (P3, 3, 21), (Z3, 3, 22)):
        u = random_field(dim, 3, basis, seed=seed, real=True, zero_mean=True)
        got = solve_real_from_data(magnitude_coeffs(u), basis)
        te = trivially_equivalent(got, u, tol=1e-6)
        assert te.verdict != "Inequivalent"


def test_retrieval_result_class_flags():
    # a real field coincides with its conjugate class
    u = random_field(2, 3, F2, seed=23, real=True)
    result = retrieve_2d(magnitude_coeffs(u))
    assert result.classes_coincide
    # a generic complex field does not
    u = random_field(2, 3, F2, seed=24)
    result = retrieve_2d(magnitude_coeffs(u))
    assert not result.classes_coincide


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_every_solver_refuses_an_invalid_accept_tol(tol):
    # a nan or negative tolerance refused consistent data as inconsistent, and
    # inf switched the forward check off
    d2 = magnitude_coeffs(random_field(2, 3, F2, seed=1))
    d3 = magnitude_coeffs(random_field(3, 2, Z3, seed=1, real=True))
    solvers = [lambda: retrieve_2d(d2, accept_tol=tol)] + [
        lambda solve=solve: solve(d3, Z3, accept_tol=tol)
        for solve in (retrieve_3d_mean, retrieve_3d_sparse, retrieve_real_data)
    ]
    for solve in solvers:
        with pytest.raises(ValueError, match=f"accept_tol must be finite and nonnegative, got {tol}"):
            solve()


def test_a_zero_accept_tol_stays_legal():
    u = HerglotzField(2, 1, F2, [np.array([1.0]), np.array([0.0, 0.0])])
    assert retrieve_2d(magnitude_coeffs(u), accept_tol=0.0).residual == 0.0


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
def test_retrieve_3d_real_refuses_an_invalid_tol(tol):
    # nan and inf once emptied the node mask and returned +1 for u = -v, and
    # -1 raised InconsistentDataError
    u = random_field(3, 2, Z3, seed=1, real=True)
    with pytest.raises(ValueError, match=f"tol must be finite and nonnegative, got {tol}"):
        retrieve_3d_real(u, u.scaled(-1), tol=tol)
    assert retrieve_3d_real(u, u.scaled(-1), tol=0.0) == -1


def test_retrieve_2d_judges_all_zero_data_by_the_callers_tolerance():
    # the all-zero branch once judged against the default 1e-6 whatever
    # accept_tol was passed, and returned branch zero at 1e-13
    data = magnitude_coeffs(random_field(2, 2, F2, seed=1).scaled(3e-6))
    with pytest.raises(InconsistentDataError) as err:
        retrieve_2d(data, accept_tol=1e-13)
    assert err.value.residual == pytest.approx(1.27e-11, rel=1e-2)
    assert retrieve_2d(data).branch == "zero"


# d = 2 at M = 6 and d = 3 zonal at M = 8: on the unit ball the extraction
# refuses these fields; on a ball of radius 3 or 6 the chain from samples
# retrieves them (largest residuals measured: 2.0e-9 and 1.1e-7)
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("zero_mean", [False, True], ids=["generic", "zero_mean"])
@pytest.mark.parametrize("dim, M, eta, tol", [(2, 6, 3.0, 1e-8), (3, 8, 6.0, 1e-6)],
                         ids=["d2-M6-eta3", "d3-zonal-M8-eta6"])
def test_sampled_chain_retrieves_on_a_ball_beyond_the_unit_one(dim, M, eta, tol, zero_mean, seed):
    basis = F2 if dim == 2 else Z3
    u = random_field(dim, M, basis, seed, zonal=dim == 3, zero_mean=zero_mean)
    grid = sample_magnitude(u, radial_grid(48, eta), 4 * M + 5 if dim == 2 else 2 * M + 4)
    data, _ = extract_magnitude_data(grid, dim)
    assert data.max_degree == M
    if dim == 2:
        result = retrieve_2d(data)
    else:
        result = (retrieve_3d_sparse if zero_mean else retrieve_3d_mean)(data, basis)
    assert trivially_equivalent(result.field, u, tol=tol).equivalent
