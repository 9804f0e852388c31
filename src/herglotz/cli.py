"""Command-line front end: gen, sample, extract, retrieve, verify, canon, specfun.

Every subcommand is deterministic under a fixed seed and configuration. Exit
statuses: 0 success, 1 usage or parse error, 2 inconsistent data, 3 branch not
applicable.
"""

import argparse
import sys

import numpy as np

from . import fileio, harmonics, specfun
from .extract import (
    DegreeUnresolvableError,
    ExtractionRankError,
    NonZonalDataError,
    check_truncation,
    extract_magnitude_data,
    radial_grid,
)
from .field import (
    comparison_tol,
    degree_power,
    equal_magnitude,
    random_field,
    sample_magnitude,
    trivially_equivalent,
)
from .fileio import _fmt
from .harmonics import BasisSpec
from .retrieve import (
    ACCEPT_TOL,
    BranchNotApplicableError,
    InconsistentDataError,
    canonicalize,
    retrieve_2d,
    retrieve_3d_mean,
    retrieve_3d_sparse,
    retrieve_real_data,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONSISTENT = 2
EXIT_BRANCH = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _default_basis_kind(dim: int) -> str:
    return "fourier2d" if dim == 2 else "zonal"


def cmd_gen(args) -> int:
    kind = args.basis or _default_basis_kind(args.dim)
    basis = BasisSpec(kind, args.dim)
    u = random_field(
        args.dim,
        args.max_degree,
        basis,
        args.seed,
        real=args.real,
        sparse=args.sparse,
        zonal=args.zonal,
        zero_mean=args.zero_mean,
        all_r=args.all_r,
    )
    fileio.write_field(args.out, u)
    print(f"status=ok\nout={args.out}\ndim={u.dim}\nmax_degree={u.max_degree}\nseed={args.seed}")
    return EXIT_OK


def cmd_sample(args) -> int:
    u = fileio.read_field(args.field)
    radii = radial_grid(args.radial_nodes)
    angular = args.angular_nodes or (4 * u.max_degree + 5 if u.dim == 2 else 2 * u.max_degree + 4)
    grid = sample_magnitude(u, radii, angular)
    fileio.write_grid(args.out, grid)
    print(
        f"status=ok\nout={args.out}\ndim={u.dim}\nradial_nodes={len(radii)}"
        f"\nangular_nodes={angular}"
    )
    return EXIT_OK


def _extract(grid, max_degree):
    """extract_magnitude_data, with its residual warnings on stderr; then a
    given max_degree below the samples' content exits 2, as an estimated one does."""
    data, reports = extract_magnitude_data(grid, grid.dim, max_degree)
    scale = 1.0 + float(np.max(np.abs(np.asarray(grid.values, dtype=float))))
    for rep in reports:
        if rep.residual > 1e-9 * scale:
            where = "joint solve" if rep.frequency == -1 else f"component {rep.frequency}"
            for w in rep.warnings or [f"residual {rep.residual:.3e}"]:
                print(f"warning: {where}: {w}", file=sys.stderr)
    if max_degree is not None:
        peaks = {rep.frequency: rep.residual for rep in reports}
        check_truncation(peaks, max_degree, scale, "max_degree")
    return data, reports


def cmd_extract(args) -> int:
    grid = fileio.read_grid(args.grid)
    data, reports = _extract(grid, args.max_degree)
    basis = None
    if grid.dim >= 3:
        basis = BasisSpec(args.basis or _default_basis_kind(grid.dim), grid.dim)
    fileio.write_data(args.out, data, basis)
    worst = max((rep.residual for rep in reports), default=0.0)
    cond = max((rep.condition for rep in reports), default=1.0)
    print(
        f"status=ok\nout={args.out}\nmax_degree={data.max_degree}"
        f"\nresidual={_fmt(worst)}\ncondition={_fmt(cond)}"
    )
    return EXIT_OK


def _load_data_or_grid(path, max_degree):
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().strip()
    if head == fileio.DATA_MAGIC:
        return fileio.read_data(path)
    return _extract(fileio.read_grid(path), max_degree)[0], None


def cmd_retrieve(args) -> int:
    data, basis = _load_data_or_grid(args.data, args.max_degree)
    if basis is None:
        basis = (harmonics.fourier2d_basis() if data.dim == 2
                 else BasisSpec(args.basis or _default_basis_kind(data.dim), data.dim))
    solvers = {"mean": retrieve_3d_mean, "sparse": retrieve_3d_sparse, "real": retrieve_real_data}
    if args.branch != "auto":
        result = solvers[args.branch](data, basis, accept_tol=args.tol)
    elif data.dim == 2:
        result = retrieve_2d(data, accept_tol=args.tol)
    else:
        for solve in solvers.values():  # mean, sparse, real: the first that succeeds
            try:
                result = solve(data, basis, accept_tol=args.tol)
                break
            except (BranchNotApplicableError, InconsistentDataError) as e:
                last = e
        else:
            raise last  # from real, which raises only InconsistentDataError
    fileio.write_field(args.out, result.field)
    print(
        "status=ok"
        f"\nout={args.out}"
        f"\nbranch={result.branch}"
        f"\nresidual={_fmt(result.residual)}"
        f"\nclasses={'coincide' if result.classes_coincide else 'distinct'}"
    )
    _print_mode_table(result.modes)
    return EXIT_OK


def _print_mode_table(modes):
    if not modes:
        return
    keys = sorted({k for row in modes for k in row})
    keys = ["m"] + [k for k in keys if k != "m"]
    print(" ".join(f"{k:>10}" for k in keys))
    for row in modes:
        cells = []
        for k in keys:
            v = row.get(k, "")
            if isinstance(v, float):
                v = f"{v:.4g}"
            cells.append(f"{str(v):>10}")
        print(" ".join(cells))


def cmd_verify(args) -> int:
    u = fileio.read_field(args.field_a)
    v = fileio.read_field(args.field_b)
    if u.dim != v.dim:
        print("error: dimension mismatch", file=sys.stderr)
        return EXIT_USAGE
    eq = equal_magnitude(u, v)
    te = trivially_equivalent(u, v, tol=comparison_tol(u.dim))
    print(f"equal_magnitude={str(eq).lower()}")
    print(f"equivalence={te.verdict}")
    if te.c is not None:
        print(f"c={_fmt(te.c.real)}{'+' if te.c.imag >= 0 else '-'}{_fmt(abs(te.c.imag))}j")
    print(f"residual={_fmt(te.residual)}")
    M = max(u.max_degree, v.max_degree)
    print(f"{'degree':>8} {'power_a':>24} {'power_b':>24}")
    for m in range(M + 1):
        pa = degree_power(u, m)
        pb = degree_power(v, m)
        print(f"{m:>8} {_fmt(pa):>24} {_fmt(pb):>24}")
    return EXIT_OK


def cmd_canon(args) -> int:
    u = fileio.read_field(args.field)
    fileio.write_field(args.out, canonicalize(u))
    print(f"status=ok\nout={args.out}")
    return EXIT_OK


def cmd_specfun(args) -> int:
    if args.fn == "bessel-j":
        v = specfun.bessel_j(args.nu, args.r)
    elif args.fn == "bessel-bound":
        v = specfun.bessel_bound(args.nu, args.r)
    elif args.fn == "gegenbauer":
        v = specfun.gegenbauer(args.degree, args.lam, args.z)
    elif args.fn == "product-series":
        v = specfun.bessel_product_series(args.n, args.m, args.alpha, args.r)
    elif args.fn == "product-integral":
        v = specfun.bessel_product_integral(
            args.n, args.m, args.alpha, args.r, args.quad_points
        )
    else:
        raise ValueError(args.fn)
    print(f"value={_fmt(v)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="herglotz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a seeded random field")
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--max-degree", type=int, default=3)
    g.add_argument("--basis", choices=["fourier2d", "zonal", "palpha"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--real", action="store_true")
    g.add_argument("--sparse", action="store_true")
    g.add_argument("--zonal", action="store_true")
    g.add_argument("--zero-mean", action="store_true")
    g.add_argument("--all-r", action="store_true")
    g.add_argument("--out", required=True)
    g.set_defaults(run=cmd_gen)

    s = sub.add_parser("sample", help="sample |u|^2 on a polar grid")
    s.add_argument("field")
    s.add_argument("--radial-nodes", type=int, default=48)
    s.add_argument("--angular-nodes", type=int)
    s.add_argument("--out", required=True)
    s.set_defaults(run=cmd_sample)

    e = sub.add_parser("extract", help="recover magnitude data from grid samples")
    e.add_argument("grid")
    e.add_argument("--max-degree", type=int)
    e.add_argument("--basis", choices=["zonal", "palpha"])
    e.add_argument("--out", required=True)
    e.set_defaults(run=cmd_extract)

    r = sub.add_parser("retrieve", help="reconstruct a field from magnitude data")
    r.add_argument("data", help="magnitude-data file or magnitude-grid file")
    r.add_argument("--branch", choices=["auto", "mean", "real", "sparse"], default="auto")
    r.add_argument("--max-degree", type=int)
    r.add_argument("--basis", choices=["zonal", "palpha"])
    r.add_argument("--tol", type=float, default=ACCEPT_TOL)
    r.add_argument("--out", required=True)
    r.set_defaults(run=cmd_retrieve)

    v = sub.add_parser("verify", help="compare two fields")
    v.add_argument("field_a")
    v.add_argument("field_b")
    v.set_defaults(run=cmd_verify)

    c = sub.add_parser("canon", help="canonicalize a field file")
    c.add_argument("field")
    c.add_argument("--out", required=True)
    c.set_defaults(run=cmd_canon)

    f = sub.add_parser("specfun", help="evaluate the special functions")
    fsub = f.add_subparsers(dest="fn", required=True)
    bj = fsub.add_parser("bessel-j")
    bj.add_argument("--nu", type=float, required=True)
    bj.add_argument("--r", type=float, required=True)
    bb = fsub.add_parser("bessel-bound")
    bb.add_argument("--nu", type=float, required=True)
    bb.add_argument("--r", type=float, required=True)
    gg = fsub.add_parser("gegenbauer")
    gg.add_argument("--degree", type=int, required=True)
    gg.add_argument("--lam", type=float, required=True)
    gg.add_argument("--z", type=float, required=True)
    ps = fsub.add_parser("product-series")
    pi = fsub.add_parser("product-integral")
    for sp in (ps, pi):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--m", type=int, required=True)
        sp.add_argument("--alpha", type=float, default=0.0)
        sp.add_argument("--r", type=float, required=True)
    pi.add_argument("--quad-points", type=int, default=512)
    f.set_defaults(run=cmd_specfun)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except InconsistentDataError as e:
        extra = f" (residual {e.residual:.3e})" if e.residual is not None else ""
        print(f"error: inconsistent data: {e}{extra}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except DegreeUnresolvableError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (BranchNotApplicableError, ExtractionRankError, NonZonalDataError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BRANCH
    # FileFormatError is a ValueError; ConvergenceError is a series out of budget
    except (FileNotFoundError, ValueError, specfun.ConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
