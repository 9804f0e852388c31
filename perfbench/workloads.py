"""The benchmark's workloads.

Each workload makes the fields of round k from the run's seed, pushes one
field at a time through its chain of herglotz calls (the timed part), and
checks the outputs against the references in ``checker``. Every round holds
the same operations, so the share of failed operations does not depend on
the seed or on the number of rounds a run completes.
"""

import contextlib
import io
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checker
from herglotz import cli, extract, field as hfield, harmonics, retrieve

# The chains call herglotz through its modules (``retrieve.retrieve_2d``), so
# that the names the tracer rebinds there are the ones called.


def field_seed(seed: int, k: int, i: int) -> int:
    """Seed of the i-th field of round k, derived from the run's seed."""
    return int(np.random.SeedSequence([seed % 2**63, k, i]).generate_state(1)[0])


def generate(dim, max_degree, kind, seed, family):
    """Generating coefficients of a seeded field of one generator family."""
    flags = {} if family == "generic" else {family: True}
    return hfield.random_field(dim, max_degree, harmonics.BasisSpec(kind, dim), seed, **flags).coeffs


@dataclass
class Op:
    """One field to push through a workload's chain."""

    label: str
    dim: int
    max_degree: int
    kind: str
    coeffs: list
    known_fault: bool = False  # fails on every run, from a fault named in the README
    args: dict = field(default_factory=dict)


@dataclass
class Outcome:
    seconds: float  # wall time of the chain
    error: str | None  # the program's exception, or why the check rejected it
    data_rel: float | None  # relative data deviation; None without a reference
    coeff_rel: float | None  # relative coefficient error; None without a result
    control_rel: float | None  # the same error for the negative control

    @property
    def failed(self) -> bool:
        return self.error is not None


class Workload:
    name = ""
    # Nominal seconds of one round's chains on the reference machine (README);
    # a run makes --seconds / ROUND_S whole rounds.
    ROUND_S: float

    def __init__(self, traced: bool = False, workdir: str | None = None):
        self.traced = traced
        self.workdir = workdir  # scratch space for file-mediated workloads

    def inputs(self, seed: int, k: int) -> list:
        raise NotImplementedError

    def execute(self, op: Op, out: dict):
        """The timed chain; leaves its outputs in ``out`` as they are made."""
        raise NotImplementedError

    def check(self, op: Op, out: dict):
        """(data deviations from the references, generating coefficients,
        retrieved coefficient tables) for what ``execute`` left in ``out``."""
        raise NotImplementedError

    def run(self, op: Op) -> Outcome:
        out = {}
        error = None
        t0 = time.perf_counter()
        try:
            self.execute(op, out)
        except Exception as e:  # a failing field is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        data_devs, generating, retrieved = self.check(op, out)
        data_rel = max(data_devs, default=None)
        coeff_rel = max(
            (checker.coefficient_error(generating, r, op.kind) for r in retrieved), default=None
        )
        # the generating field with one mode rotated must not pass against
        # the same retrieved field
        control = checker.rotate_one_mode(generating) if retrieved else None
        control_rel = min(
            (checker.coefficient_error(control, r, op.kind) for r in retrieved), default=None
        )
        if error is None:
            if data_rel is not None and data_rel > checker.PASS_TOL:
                error = f"data deviation {data_rel:.2e} above {checker.PASS_TOL:g}"
            elif coeff_rel is None:
                error = "no retrieved coefficients to compare"
            elif coeff_rel > checker.PASS_TOL:
                error = f"coefficient error {coeff_rel:.2e} above {checker.PASS_TOL:g}"
        return Outcome(seconds, error, data_rel, coeff_rel, control_rel)


def _fourier_check(op, datas, results):
    ref = checker.fourier2d_reference(op.coeffs)
    devs = [checker.fourier2d_deviation(d.fourier, ref) for d in datas]
    return devs, op.coeffs, [r.field.coeffs for r in results]


class Sampled2D(Workload):
    """d = 2 double-precision |u|^2 samples on the CLI's default grid (48 radii,
    4M + 5 angles), degree estimated, retrieve_2d."""

    name = "sampled2d"
    ROUND_S = 15.0
    # Seeded fields at M = 4. M = 5 and the zero_mean and real families fail
    # on some seeds only, so they are not drawn from the seed (see the README).
    # Eight seeded fields against two slower fixed ones keep the median field
    # well inside the M = 4 cluster.
    FAMILIES = ("generic", "all_r") * 4
    MAX_DEGREE = 4
    # fixed M = 5 fields that fail on every run: (family, max_degree, seed)
    KNOWN_FAULTS = (("real", 5, 500), ("all_r", 5, 501))

    def __init__(self, *args):
        super().__init__(*args)
        self.radii = extract.radial_grid(48)  # shared by every field of the run
        self.basis = harmonics.BasisSpec("fourier2d", 2)

    def inputs(self, seed, k):
        ops = []
        for i, fam in enumerate(self.FAMILIES):
            s = field_seed(seed, k, i)
            coeffs = generate(2, self.MAX_DEGREE, "fourier2d", s, fam)
            ops.append(Op(f"{fam} M={self.MAX_DEGREE} seed={s}", 2, self.MAX_DEGREE, "fourier2d", coeffs))
        for fam, M, s in self.KNOWN_FAULTS:
            coeffs = generate(2, M, "fourier2d", s, fam)
            ops.append(Op(f"{fam} M={M} seed={s}", 2, M, "fourier2d", coeffs, known_fault=True))
        return ops

    def execute(self, op, out):
        u = hfield.HerglotzField(2, op.max_degree, self.basis, op.coeffs)
        grid = hfield.sample_magnitude(u, self.radii, 4 * op.max_degree + 5)
        out["data"], _ = extract.extract_magnitude_data(grid, 2)
        out["result"] = retrieve.retrieve_2d(out["data"])

    def check(self, op, out):
        return _fourier_check(
            op, [out["data"]] if "data" in out else [], [out["result"]] if "result" in out else []
        )


class Precise2D(Workload):
    """d = 2, M = 6 on a 64 x 40 grid sampled at 40 digits; lstsq and taylor
    unmixing with the degree given, each followed by retrieve_2d."""

    name = "precise2d"
    ROUND_S = 5.0
    MAX_DEGREE = 6

    def __init__(self, *args):
        super().__init__(*args)
        self.radii = extract.radial_grid(64)  # shared by every field of the run
        self.basis = harmonics.BasisSpec("fourier2d", 2)

    def inputs(self, seed, k):
        s = field_seed(seed, k, 0)
        coeffs = generate(2, self.MAX_DEGREE, "fourier2d", s, "generic")
        return [Op(f"generic M={self.MAX_DEGREE} seed={s}", 2, self.MAX_DEGREE, "fourier2d", coeffs)]

    def execute(self, op, out):
        u = hfield.HerglotzField(2, op.max_degree, self.basis, op.coeffs)
        grid = hfield.sample_magnitude(u, self.radii, 40, dps=40)
        for method in ("lstsq", "taylor"):
            out[f"data.{method}"], _ = extract.extract_magnitude_data(
                grid, 2, op.max_degree, method=method
            )
        for method in ("lstsq", "taylor"):
            out[f"result.{method}"] = retrieve.retrieve_2d(out[f"data.{method}"])

    def check(self, op, out):
        # Outcome takes the worse of the two unmixing methods
        methods = ("lstsq", "taylor")
        return _fourier_check(
            op,
            [out[f"data.{m}"] for m in methods if f"data.{m}" in out],
            [out[f"result.{m}"] for m in methods if f"result.{m}" in out],
        )


class Exact(Workload):
    """Retrieval from exact magnitude data (magnitude_coeffs of the generating
    field); each field builds its own BasisSpec, as each CLI process does, and
    is verified with equal_magnitude, trivially_equivalent and degree_power."""

    name = "exact"
    ROUND_S = 0.5
    # (label, dim, max_degree, basis, family, branch)
    SPECS = (
        ("d2", 2, 8, "fourier2d", "generic", "2d"),
        ("d2 zero_mean", 2, 8, "fourier2d", "zero_mean", "2d"),
        ("d3 zonal mean", 3, 6, "zonal", "generic", "mean"),
        ("d3 zonal sparse", 3, 6, "zonal", "sparse", "sparse"),
        ("d3 palpha mean", 3, 6, "palpha", "generic", "mean"),
        ("d3 palpha sparse", 3, 6, "palpha", "sparse", "sparse"),
        ("d4 zonal mean", 4, 3, "zonal", "generic", "mean"),
    )

    def inputs(self, seed, k):
        ops = []
        for i, (label, dim, M, kind, fam, branch) in enumerate(self.SPECS):
            s = field_seed(seed, k, i)
            coeffs = generate(dim, M, kind, s, fam)
            ops.append(Op(f"{label} M={M} seed={s}", dim, M, kind, coeffs, args={"branch": branch}))
        return ops

    def execute(self, op, out):
        basis = harmonics.BasisSpec(op.kind, op.dim)
        u = hfield.HerglotzField(op.dim, op.max_degree, basis, op.coeffs)
        out["basis"] = basis
        out["data"] = data = hfield.magnitude_coeffs(u)
        branch = op.args["branch"]
        if branch == "2d":
            result = retrieve.retrieve_2d(data)
        elif branch == "mean":
            result = retrieve.retrieve_3d_mean(data, basis)
        else:
            result = retrieve.retrieve_3d_sparse(data, basis)
        out["result"] = result
        hfield.equal_magnitude(u, result.field)
        hfield.trivially_equivalent(result.field, u)
        for m in range(result.field.max_degree + 1):
            hfield.degree_power(result.field, m)

    def check(self, op, out):
        data, result = out.get("data"), out.get("result")
        results = [result] if result is not None else []
        if op.kind == "fourier2d":
            return _fourier_check(op, [data] if data is not None else [], results)
        devs = []
        if data is not None and op.kind == "zonal":  # no reference for p_alpha
            ref = checker.zonal_reference(op.coeffs, out["basis"].poles, op.dim, data.grid.nodes)
            devs.append(checker.samples_deviation(data.samples, ref))
        return devs, op.coeffs, [r.field.coeffs for r in results]


class Cli(Workload):
    """herglotz gen -> sample -> extract -> retrieve -> verify, each stage its
    own process (in-process through herglotz.cli.main when traced), degree
    estimated by extract."""

    name = "cli"
    ROUND_S = 10.0
    STAGES = ("gen", "sample", "extract", "retrieve", "verify")
    # (dim, max_degree, gen flags)
    PIPELINES = (
        (2, 3, []),
        (2, 3, ["--zero-mean"]),
        (3, 4, ["--zonal"]),
        (3, 4, ["--zonal", "--zero-mean"]),
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.stage_s = {stage: 0.0 for stage in self.STAGES}
        self.child_rss_kb = 0
        self._count = 0

    def inputs(self, seed, k):
        ops = []
        for i, (dim, M, flags) in enumerate(self.PIPELINES):
            s = field_seed(seed, k, i)
            kind = "fourier2d" if dim == 2 else "zonal"
            gen = ["--dim", str(dim), "--max-degree", str(M), "--seed", str(s), *flags]
            ops.append(Op(f"d{dim} {' '.join(flags) or 'generic'} M={M} seed={s}", dim, M, kind,
                          coeffs=None, args={"gen": gen}))
        return ops

    def _stage(self, argv, cwd):
        if self.traced:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli.main(argv)
            self.stage_s[argv[0]] += time.perf_counter() - t0
            text = buf.getvalue()
        else:
            log = os.path.join(cwd, "stage.log")
            with open(log, "w+", encoding="utf-8") as fh:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "herglotz.cli", *argv],
                    cwd=cwd, stdout=fh, stderr=subprocess.STDOUT,
                )
                _, status, usage = os.wait4(proc.pid, 0)
                code = proc.returncode = os.waitstatus_to_exitcode(status)
                self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
                fh.seek(0)
                text = fh.read()
        if code != 0:
            raise RuntimeError(f"herglotz {argv[0]} exited {code}: {text[-300:]}")

    def execute(self, op, out):
        self._count += 1
        cwd = os.path.join(self.workdir, f"p{self._count}")
        os.makedirs(cwd)
        f, g, d, v = (os.path.join(cwd, n) for n in ("u.field", "u.grid", "u.data", "v.field"))
        out["dir"] = cwd
        self._stage(["gen", *op.args["gen"], "--out", f], cwd)
        self._stage(["sample", f, "--out", g], cwd)
        self._stage(["extract", g, "--out", d], cwd)
        out["data"] = d
        self._stage(["retrieve", d, "--out", v], cwd)
        out["result"] = v
        self._stage(["verify", f, v], cwd)

    def check(self, op, out):
        devs, generating, retrieved = [], None, []
        try:
            if os.path.exists(os.path.join(out["dir"], "u.field")):
                u = checker.read_field_file(os.path.join(out["dir"], "u.field"))
                generating = u["coeffs"]
            if "data" in out:
                data = checker.read_data_file(out["data"])
                if op.dim == 2:
                    ref = checker.fourier2d_reference(u["coeffs"])
                    devs.append(checker.fourier2d_deviation(data["fourier"], ref))
                else:
                    nodes = checker.sphere3_nodes(data["grid"])
                    ref = checker.zonal_reference(u["coeffs"], u["poles"], 3, nodes)
                    devs.append(checker.samples_deviation(data["samples"], ref))
            if "result" in out:
                v = checker.read_field_file(out["result"])
                # coefficients are only comparable in one basis
                if checker.poles_match(u, v):
                    retrieved.append(v["coeffs"])
        finally:
            for name in os.listdir(out["dir"]):
                os.unlink(os.path.join(out["dir"], name))
            os.rmdir(out["dir"])
        return devs, generating, retrieved


WORKLOADS = {w.name: w for w in (Sampled2D, Precise2D, Exact, Cli)}
