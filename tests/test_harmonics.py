import math
from fractions import Fraction

import numpy as np
import pytest

from herglotz import harmonics, specfun
from herglotz.harmonics import (
    _TABLE_SIZE,
    POLE_MAX_ATTEMPTS,
    POLE_MIN_SV,
    BasisSpec,
    _candidate_poles,
    _polar_rule,
    basis_eval,
    default_poles,
    degree_multi_indices,
    fourier2d_basis,
    gram_rank,
    harmonic_dim,
    laplacian,
    p_alpha,
    sphere_grid,
    surface_measure,
    zonal_eval,
)
from herglotz.poly import Polynomial
from herglotz.specfun import gegenbauer


def test_harmonic_dim_known_values():
    for m in range(0, 8):
        assert harmonic_dim(3, m) == (2 * m + 1)
    for m in range(1, 8):
        assert harmonic_dim(2, m) == 2
    for d in (2, 3, 4, 5):
        assert harmonic_dim(d, 0) == 1
    assert harmonic_dim(2, 0) == 1


def _exact_rank(rows):
    """Rank of a matrix of Fractions by exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / lead
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _monomials(d, m):
    out = []

    def rec(prefix, left, slots):
        if slots == 1:
            out.append(tuple(prefix + [left]))
            return
        for v in range(left, -1, -1):
            rec(prefix + [v], left - v, slots - 1)

    rec([], m, d)
    return out


@pytest.mark.parametrize("d", [2, 3, 4])
def test_harmonic_dim_matches_laplacian_nullity(d):
    # brute force: kernel dimension of the symbolic Laplacian on homogeneous
    # degree-m polynomials, in exact rational arithmetic
    for m in range(0, 6):
        monos = _monomials(d, m)
        img = _monomials(d, m - 2) if m >= 2 else []
        rows = []
        for a in monos:
            lap = Polynomial.monomial(a, 1).laplacian()
            rows.append([lap.terms.get(b, Fraction(0)) for b in img])
        if img:
            rank = _exact_rank(rows)
        else:
            rank = 0
        nullity = len(monos) - rank
        assert nullity == harmonic_dim(d, m)


def test_multi_index_enumeration():
    for d in (3, 4):
        for m in range(0, 7):
            idx = degree_multi_indices(d, m)
            assert len(idx) == harmonic_dim(d, m)
            assert len(set(idx)) == len(idx)
            for a in idx:
                assert sum(a) == m and a[-1] in (0, 1)


def test_p_alpha_low_degrees():
    assert p_alpha((0, 0, 0), 3) == Polynomial.constant(3, 1)
    assert p_alpha((1, 0, 0), 3) == Polynomial.variable(3, 0)
    assert p_alpha((0, 0, 1), 3) == Polynomial.variable(3, 2)
    assert p_alpha((1, 1, 0), 3) == Polynomial.monomial((1, 1, 0), 1)


def test_p_alpha_m1_reproduces_monomial_exactly():
    # the harmonic part of a degree-1 monomial is the monomial itself
    for d in (3, 4, 5):
        for i in range(d):
            e = tuple(1 if j == i else 0 for j in range(d))
            assert p_alpha(e, d) == Polynomial.variable(d, i)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_p_alpha_harmonic_and_structured(d):
    rho = Polynomial.radius_sq(d)
    for m in range(0, 5):
        for a in degree_multi_indices(d, m):
            p = p_alpha(a, d)
            assert p.laplacian().is_zero()
            assert p.is_homogeneous() and p.degree() == m
            diff = p - Polynomial.monomial(a, 1)
            if m <= 1:
                assert diff.is_zero()
            elif not diff.is_zero():
                assert diff.divide_exact(rho) is not None


def test_p_alpha_rejects_d2():
    with pytest.raises(ValueError):
        p_alpha((1, 0), 2)


def test_laplacian_examples():
    assert Polynomial.monomial((2, 0), 1).laplacian() == Polynomial.constant(2, 2)
    assert Polynomial.constant(3, 5).laplacian().is_zero()
    assert laplacian(p_alpha((2, 1, 1), 3)).is_zero()


def test_zonal_eval_values():
    z = np.array([0.0, 0.0, 1.0])
    th = np.array([1.0, 0.0, 0.0])
    assert zonal_eval(0, 3, z, np.array([0.0, 1.0, 0.0])) == 1.0
    z4 = np.array([0.0, 0.0, 0.0, 1.0])
    assert zonal_eval(1, 4, z4, z4) == pytest.approx(2.0, rel=1e-14)
    assert zonal_eval(2, 3, z, th) == pytest.approx(-0.5, rel=1e-13)


def test_zonal_eval_rejects_non_unit():
    with pytest.raises(ValueError):
        zonal_eval(1, 3, np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0]))


def test_sphere_grid_d2():
    g = sphere_grid(2, 8)
    assert np.allclose(g.weights, 2 * math.pi / 8)
    assert abs(g.weights.sum() - 2 * math.pi) < 1e-12
    # exact for trig degree < 8
    vals = np.cos(3 * g.angles)
    assert abs(g.integrate(vals)) < 1e-12


def test_sphere_grid_d3_and_d4():
    g = sphere_grid(3, 9)
    assert abs(g.weights.sum() - 4 * math.pi) < 1e-11
    # odd harmonic integrates to zero
    spec = BasisSpec("zonal", 3)
    y1 = spec.values(1, g.nodes)[:, 0]
    assert abs(g.integrate(y1)) < 1e-12
    g4 = sphere_grid(4, 6)
    assert abs(g4.weights.sum() - surface_measure(4)) < 1e-11


@pytest.mark.parametrize("d,res", [(3, 2), (3, 6), (4, 2), (4, 5)])
def test_sphere_grid_polar_rule_sits_in_the_last_coordinate(d, res):
    g = sphere_grid(d, res)
    sub = sphere_grid(d - 1, 2 * res if d == 3 else res)
    assert g.azimuth_count == len(sub) and len(g) == res * len(sub)
    assert np.array_equal(g.nodes[:, -1], np.repeat(g.polar_t, g.azimuth_count))
    assert np.abs(np.linalg.norm(g.nodes, axis=1) - 1).max() < 1e-15
    # the mean of x_d^2 over S^{d-1} is 1/d
    assert abs(g.integrate(g.nodes[:, -1] ** 2) - surface_measure(d) / d) < 1e-13


@pytest.mark.parametrize("d,lam", [(3, 0.5), (4, 1.0)])
def test_polar_rule_projects_onto_gegenbauer_polynomials(d, lam):
    # inv_norm[q] * sum_i w_i C_p(t_i) C_q(t_i) is the identity up to degree count - 1
    t, w, inv_norm = _polar_rule(d, 7)
    C = np.array([gegenbauer(q, lam, t) for q in range(7)])
    assert np.abs((C * w) @ C.T * inv_norm[None, :] - np.eye(7)).max() < 1e-13


def test_sphere_grid_unsupported():
    with pytest.raises(ValueError):
        sphere_grid(5, 4)
    with pytest.raises(ValueError):
        sphere_grid(3, 0)


def test_sphere_grid_is_built_once_and_read_only():
    g = sphere_grid(3, 8)
    assert g is sphere_grid(3, 8) and g.sub is sphere_grid(2, 16)
    for arr in (g.nodes, g.weights, g.polar_t, g.sub.nodes, g.sub.weights, g.sub.angles):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(AttributeError):
        g.nodes = g.nodes.copy()


def test_polar_rule_reads_the_one_gauss_legendre_rule():
    t, w, _ = _polar_rule(3, 9)
    x, v = np.polynomial.legendre.leggauss(9)
    assert np.array_equal(t, x) and np.array_equal(w, v)
    assert t is specfun.leggauss(9)[0] and w is specfun.leggauss(9)[1]
    assert t is sphere_grid(3, 9).polar_t


def test_basis_values_are_evaluated_once_per_basis_and_node_array(monkeypatch):
    evaluate = harmonics._evaluate
    calls = []

    def counted(kind, dim, m, poles, theta):
        calls.append(m)
        return evaluate(kind, dim, m, poles, theta)

    monkeypatch.setattr(harmonics, "_evaluate", counted)
    nodes = sphere_grid(3, 8).nodes
    spec = BasisSpec("zonal", 3)
    first = spec.values(2, nodes)
    # keyed on the node values, not on the array object; the Gram matrix of
    # degree 2 is taken on the same grid
    assert spec.values(2, nodes.copy()) is first
    spec.gram(2)
    assert calls == [2]
    assert np.array_equal(first, evaluate("zonal", 3, 2, default_poles(3, 2), nodes))
    with pytest.raises(ValueError):
        first[0, 0] = 0.0
    # a basis with other poles has an entry of its own
    other = BasisSpec("zonal", 3, poles={2: np.roll(default_poles(3, 2), 1, axis=1)})
    assert not np.allclose(other.values(2, nodes), first)
    assert calls == [2, 2]
    # a single point is evaluated afresh and not tabled
    spec.values(2, nodes[0])
    spec.values(2, nodes[0])
    assert calls == [2, 2, 2, 2] and harmonics._value_table.cache_info().currsize == 2


@pytest.mark.parametrize("kind, dim", [("fourier2d", 2), ("palpha", 3), ("zonal", 3)])
def test_fresh_bases_share_one_value_table_entry(kind, dim):
    nodes = sphere_grid(dim, 6).nodes
    first = BasisSpec(kind, dim).values(2, nodes)
    assert BasisSpec(kind, dim).values(2, nodes) is first
    info = harmonics._value_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_explicit_pole_tables_keep_their_own_value_table_entries():
    nodes = sphere_grid(3, 6).nodes
    poles = default_poles(3, 2)
    default = BasisSpec("zonal", 3).values(2, nodes)
    # a copy of the default table names the same functions, and shares their entry
    assert BasisSpec("zonal", 3, poles={2: poles.copy()}).values(2, nodes) is default
    # other tables, even the same poles in another order, do not
    reordered = BasisSpec("zonal", 3, poles={2: poles[::-1].copy()}).values(2, nodes)
    rotated = BasisSpec("zonal", 3, poles={2: np.roll(poles, 1, axis=1)}).values(2, nodes)
    assert np.array_equal(reordered, default[:, ::-1])
    assert not np.allclose(rotated, default)
    assert harmonics._value_table.cache_info().currsize == 3


def test_values_follow_a_writable_node_array_changed_in_place():
    spec = BasisSpec("zonal", 3)
    nodes = np.array(sphere_grid(3, 6).nodes)
    before = spec.values(2, nodes)
    nodes[:] = nodes[::-1]
    after = spec.values(2, nodes)
    assert np.array_equal(after, before[::-1])
    assert id(nodes) not in harmonics._ARRAY_KEYS  # a writable array is read on each call


def test_values_follow_the_base_of_a_read_only_view():
    spec = BasisSpec("zonal", 3)
    base = np.array(sphere_grid(3, 6).nodes)
    view = base.view()
    view.flags.writeable = False
    before = spec.values(2, view)
    base[:] = base[::-1]
    assert np.array_equal(spec.values(2, view), before[::-1])
    assert id(view) not in harmonics._ARRAY_KEYS  # the view does not own its memory


def test_read_only_arrays_that_own_their_memory_are_keyed_once_while_they_live():
    spec = BasisSpec("zonal", 3)
    grid = sphere_grid(3, 6)
    spec.values(2, grid.nodes)
    poles = default_poles(3, 2)
    assert set(harmonics._ARRAY_KEYS) == {id(grid.nodes), id(poles)}
    assert harmonics._ARRAY_KEYS[id(grid.nodes)][1] == grid.nodes.tobytes()
    # an array that dies takes its key with it
    nodes = np.array(grid.nodes)
    nodes.flags.writeable = False
    first = spec.values(2, nodes)
    assert id(nodes) in harmonics._ARRAY_KEYS
    del nodes
    assert len(harmonics._ARRAY_KEYS) == 2
    assert spec.values(2, grid.nodes) is first


def _per_pole_default_poles(d, m):
    # default_poles as one Gegenbauer recurrence per candidate pole
    n = harmonic_dim(d, m)
    if m == 0 or n == 1:
        return np.eye(d)[d - 1][None, :]
    grid = sphere_grid(d, 2 * m + 1)
    best = None
    for attempt in range(POLE_MAX_ATTEMPTS):
        pts = _candidate_poles(d, m, attempt)
        cols = [gegenbauer(m, d / 2 - 1, grid.nodes @ z) for z in pts]
        r1, s1 = gram_rank(cols, grid)
        r2, s2 = gram_rank([c**2 for c in cols], grid)
        if r1 == n and r2 == n and min(s1, s2) > POLE_MIN_SV:
            return pts
        if best is None or min(s1, s2) > best[0]:
            best = (min(s1, s2), pts)
    return best[1]


@pytest.mark.parametrize("d, m", [(3, m) for m in range(11)] + [(4, m) for m in range(7)])
def test_one_recurrence_per_degree_matches_a_per_pole_loop(d, m):
    poles = default_poles(d, m)
    assert np.array_equal(poles, _per_pole_default_poles(d, m))
    nodes = sphere_grid(d, 2 * m + 3).nodes
    for theta in (nodes, nodes[3:4]):
        per_pole = np.stack([gegenbauer(m, d / 2 - 1, theta @ z) for z in poles], axis=1)
        assert np.array_equal(BasisSpec("zonal", d).values(m, theta), per_pole)


def test_p_alpha_polynomials_are_built_once_per_process(monkeypatch):
    calls = []
    monkeypatch.setattr(harmonics, "p_alpha", lambda a, d: calls.append(a) or p_alpha(a, d))
    first, second = BasisSpec("palpha", 3), BasisSpec("palpha", 3)
    assert first.palpha_for(3) is second.palpha_for(3)
    assert calls == degree_multi_indices(3, 3)
    # a basis of another dimension has its own
    assert BasisSpec("palpha", 4).palpha_for(3) is not first.palpha_for(3)
    assert len(calls) == harmonic_dim(3, 3) + harmonic_dim(4, 3)


def test_basis_value_table_keeps_its_bound():
    spec = BasisSpec("palpha", 3)
    pts = sphere_grid(3, 12).nodes
    for k in range(_TABLE_SIZE + 10):
        spec.values(1, pts[2 * k:2 * k + 2])
    assert harmonics._value_table.cache_info().currsize == _TABLE_SIZE


@pytest.mark.parametrize(
    "spec",
    [BasisSpec("zonal", 3), BasisSpec("palpha", 3), fourier2d_basis()],
    ids=["zonal3", "palpha3", "fourier2d"],
)
def test_cross_degree_orthogonality(spec):
    grid = sphere_grid(spec.dim, 24)
    for m in range(0, 4):
        for n in range(m + 1, 5):
            fm = spec.values(m, grid.nodes)
            fn = spec.values(n, grid.nodes)
            ip = np.abs(np.conj(fm).T @ (fn * grid.weights[:, None]))
            assert ip.max() < 1e-10


def test_basis_eval_fourier():
    spec = fourier2d_basis()
    ang = 0.37
    th = np.array([math.cos(ang), math.sin(ang)])
    assert basis_eval(spec, 0, 1, th) == pytest.approx(1.0)
    assert basis_eval(spec, 3, 1, th) == pytest.approx(np.exp(3j * ang))
    assert basis_eval(spec, 3, 2, th) == pytest.approx(np.exp(-3j * ang))
    with pytest.raises(IndexError):
        basis_eval(spec, 2, 3, th)


def test_basis_eval_zonal_and_palpha():
    spec = BasisSpec("zonal", 3)
    th = np.array([0.6, 0.0, 0.8])
    pole = spec.poles_for(2)[1]
    assert basis_eval(spec, 2, 2, th) == pytest.approx(
        float(gegenbauer(2, 0.5, float(th @ pole))), rel=1e-13
    )
    specp = BasisSpec("palpha", 3)
    # second degree-2 index in the fixed enumeration
    alpha = degree_multi_indices(3, 2)[1]
    assert basis_eval(specp, 2, 2, th) == pytest.approx(
        p_alpha(alpha, 3).evaluate(th), rel=1e-13
    )


def test_gram_rank_squares_full():
    grid = sphere_grid(3, 16)
    spec = BasisSpec("palpha", 3)
    vals = spec.values(3, grid.nodes)
    squares = [vals[:, j] ** 2 for j in range(vals.shape[1])]
    rank, sv = gram_rank(squares, grid)
    assert rank == harmonic_dim(3, 3)
    assert sv > 1e-8
    # a zero function adds nothing to the rank; alone it has rank 0
    zero = np.zeros(len(grid))
    rank_z, sv_z = gram_rank(squares + [zero], grid)
    assert rank_z == rank and sv_z == pytest.approx(sv, rel=1e-12)
    assert gram_rank([zero], grid) == (0, 0.0)


def test_gram_rank_antipodal_squares():
    grid = sphere_grid(3, 12)
    z = np.array([0.36, 0.48, 0.8])
    z /= np.linalg.norm(z)
    f1 = gegenbauer(3, 0.5, grid.nodes @ z) ** 2
    f2 = gegenbauer(3, 0.5, grid.nodes @ (-z)) ** 2
    rank, _ = gram_rank([f1, f2], grid)
    assert rank == 1


def test_gram_rank_generic_poles():
    grid = sphere_grid(3, 12)
    z1 = np.array([0.0, 0.0, 1.0])
    z2 = np.array([0.6, 0.0, 0.8])
    f1 = gegenbauer(2, 0.5, grid.nodes @ z1) ** 2
    f2 = gegenbauer(2, 0.5, grid.nodes @ z2) ** 2
    rank, _ = gram_rank([f1, f2], grid)
    assert rank == 2


def test_default_poles_deterministic():
    a = default_poles(3, 4)
    b = default_poles(3, 4)
    assert np.array_equal(a, b)
    # built once per process and shared, so no caller may write to it
    assert a is b
    with pytest.raises(ValueError):
        a[0, 0] = 0.0
    assert np.allclose(a[0], [0.0, 0.0, 1.0])
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


def test_orthonormalized_basis_gram_identity():
    spec = BasisSpec("zonal", 3, "orthonormal")
    grid = sphere_grid(3, 20)
    for m in (0, 1, 3):
        F = spec.values(m, grid.nodes)
        G = F.T @ (F * grid.weights[:, None])
        assert np.abs(G - np.eye(F.shape[1])).max() < 1e-10


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec("fourier2d", 3)
    with pytest.raises(ValueError):
        BasisSpec("zonal", 2)
    with pytest.raises(ValueError):
        BasisSpec("nope", 3)
    with pytest.raises(ValueError):
        BasisSpec("zonal", 3, poles={1: np.array([[0.0, 0.0, 2.0]] * 3)})
    with pytest.raises(ValueError, match="degree 1 contains non-unit vectors"):
        BasisSpec("zonal", 3, poles={1: np.full((3, 3), np.nan)})
    with pytest.raises(ValueError, match="dimension d = 1 is below 2"):
        BasisSpec("zonal", 1)
    with pytest.raises(ValueError, match="zonal basis requires d >= 3, got d = 2"):
        BasisSpec("zonal", 2)
