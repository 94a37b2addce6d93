"""Seeded inputs, independent oracles and result checks for each workload.

Library workloads (`sl_small`, `sl_large`, `quadric_expr`) are lists of
`LibraryOp`: one `curvature_report` call each, with the exact gradient and
Hessian of the field at the point computed here in numpy, never by slcurv.
`cli_verify` is a list of `CliCommand`: the arguments of one
`python -m slcurv.cli` command each, with a check on its exit code and
output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TOL = 1e-8  # the verify-sl default tolerance
CLUSTER_TOL = 1e-6  # curvature_report's default cluster_tol

LIBRARY_WORKLOADS = ("sl_small", "sl_large", "quadric_expr")
WORKLOADS = LIBRARY_WORKLOADS + ("cli_verify",)

SL_SMALL_POINTS = 32  # of each kind: generic random_sl(3) and rotations
SL_LARGE_POINTS = 8  # few points, many passes: each point's median is then robust
QUADRIC_DIMS = (8, 12, 16, 20, 24)
QUADRIC_KINDS = ("quadratic-definite", "quadratic-indefinite", "quartic-definite", "quartic-indefinite")
# verify-sl --n 5 takes about 4 s, too long to repeat often enough in a run
# to time steadily; traced runs make it once for cli.run_verify_sl_ms.n5
PASS_VERIFY_SL_N = (2, 3, 4)
TRACED_ONLY_VERIFY_SL_N = (5,)
# one report each, at generic SL(3) points: cli_verify's report_ms are theirs
CLI_REPORT_LABEL = "analyze --builtin sl --n 3"
CLI_ANALYZE_POINTS = 8


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(ord(c) for c in workload)])


# --- oracles ---------------------------------------------------------------


def sl_oracle(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of det at a, from Jacobi's formula.

    grad det(A) = det(A) A^{-t}; D^2 det(A)[H, K] =
    det(A) (tr(A^{-1}H) tr(A^{-1}K) - tr(A^{-1}H A^{-1}K)), flattened
    row-major: entry ((i,j),(k,l)) is det(A)(B[j,i]B[l,k] - B[j,k]B[l,i]).
    """
    n = a.shape[0]
    d = float(np.linalg.det(a))
    b = np.linalg.inv(a)
    bt = b.T.ravel()
    hess = d * (np.outer(bt, bt) - np.einsum("jk,li->ijkl", b, b).reshape(n * n, n * n))
    return d * bt, hess


def oracle_eigenvalues(g: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Principal curvatures from numpy alone: an SVD basis of g-perp and eigh."""
    gnorm = float(np.linalg.norm(g))
    basis = np.linalg.svd(g.reshape(1, -1))[2][1:]
    w = -(basis @ hess @ basis.T) / gnorm
    return np.sort(np.linalg.eigvalsh(0.5 * (w + w.T)))[::-1]


def check_report(report, g: np.ndarray, hess: np.ndarray, eigs: np.ndarray) -> list[str]:
    """Compare a CurvatureReport with the oracle; returns the mismatches.

    The shape operator is checked in the report's own tangent basis, the
    spectrum against an eigendecomposition in an independent basis.
    """
    problems = []

    def within(label, got, want, limit):
        err = float(np.max(np.abs(np.asarray(got, dtype=float) - want))) if np.size(want) else 0.0
        if not err <= limit:  # also catches NaN
            problems.append(f"{label}: error {err:.3e} > {limit:.3e}")

    n_tan = g.size - 1
    gnorm = float(np.linalg.norm(g))
    normal = g / gnorm
    basis = np.asarray(report.tangent_basis, dtype=float)
    if basis.shape != (g.size, n_tan):
        return [f"tangent basis has shape {basis.shape}, expected {(g.size, n_tan)}"]
    lam = max(1.0, float(np.max(np.abs(eigs))))
    within("normal", report.normal, normal, TOL)
    within("basis orthonormality", basis.T @ basis, np.eye(n_tan), TOL)
    within("basis tangency", basis.T @ normal, np.zeros(n_tan), TOL)
    within("weingarten", report.weingarten, -(basis.T @ hess @ basis) / gnorm, TOL * lam)
    within("eigenvalues", report.eigenvalues, eigs, TOL * lam)
    expanded = [v for v, m in report.curvatures for _ in range(int(m))]
    if len(expanded) != n_tan:
        problems.append(f"multiplicities sum to {len(expanded)}, expected {n_tan}")
    else:
        # a cluster reports its mean, so members may sit cluster_tol away
        within("clustered curvatures", expanded, eigs, CLUSTER_TOL + TOL * lam)
    gk = float(np.prod(eigs))
    within("gauss_kronecker", report.gauss_kronecker, gk, TOL * abs(gk))
    within("mean", report.mean, float(np.sum(eigs)) / n_tan, TOL * lam)
    return problems


# --- library workloads ------------------------------------------------------


@dataclass
class LibraryOp:
    """One curvature_report call with its oracle."""

    label: str
    point: np.ndarray
    g: np.ndarray
    hess: np.ndarray
    eigs: np.ndarray
    n: int = 0  # SL(n) workloads: matrix size
    text: str = ""  # quadric_expr: expression text over x1..xN
    level: float = 1.0


def _sl_op(label, a):
    g, hess = sl_oracle(a)
    return LibraryOp(label, a.ravel().copy(), g, hess, oracle_eigenvalues(g, hess), n=a.shape[0])


def _quadric_terms(rng, n: int, kind: str):
    """(kind, i, j, sign, coefficient, text, negative) terms of one seeded polynomial.

    Definite forms: positive squares in [1, 3] plus ring couplings of
    weight <= 1/4 on (i, i+1) and (i, i+3), so every Gershgorin row of the
    quadratic part stays positive; quartic terms are then non-negative.
    Indefinite forms flip the sign of about half of the squares and of
    the quartic terms.
    """
    definite = kind.endswith("-definite")
    terms = []
    signs = np.ones(n)
    if not definite:
        flip = rng.permutation(n)[: n // 2]
        signs[flip] = -1.0
    for i in range(n):
        q = int(rng.integers(2, 8))
        p = int(rng.integers(q, 3 * q + 1))
        c = signs[i] * p / q
        form = int(rng.integers(3))
        if form == 0:
            text = f"{p}/{q}*x{i + 1}^2"
        elif form == 1:
            text = f"x{i + 1}^2*{p}/{q}"
        else:
            text = f"{p}*x{i + 1}*x{i + 1}/{q}"
        terms.append(("sq", i, i, 1, c, text, c < 0))
    for i in range(n):
        for step in (1, 3):
            j = (i + step) % n
            q = int(rng.integers(4, 10))
            c = float(rng.choice((-1.0, 1.0))) / q
            text = f"x{i + 1}*x{j + 1}/{q}" if rng.integers(2) else f"1/{q}*x{i + 1}*x{j + 1}"
            terms.append(("pair", i, j, 1, c, text, c < 0))
    if kind.startswith("quartic"):
        for _ in range(max(2, n // 4)):
            i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
            s = int(rng.choice((-1, 1)))
            q = int(rng.integers(4, 10))
            p = int(rng.integers(1, 4))
            c = (1.0 if definite else float(rng.choice((-1.0, 1.0)))) * p / q
            inner = f"(x{i + 1} {'+' if s > 0 else '-'} x{j + 1})"
            text = f"{p}/{q}*{inner}^4" if rng.integers(2) else f"{inner}^4*{p}/{q}"
            terms.append(("quart", i, j, s, c, text, c < 0))
    return terms


def _quadric_text(terms) -> str:
    parts = []
    for k, (*_, text, negative) in enumerate(terms):
        if k == 0:
            parts.append(f"-{text}" if negative else text)
        else:
            parts.append(f" - {text}" if negative else f" + {text}")
    return "".join(parts)


def _quadric_value_grad_hess(terms, x):
    n = x.size
    value, g, hess = 0.0, np.zeros(n), np.zeros((n, n))
    for kind, i, j, s, c, *_ in terms:
        if kind == "sq":
            value += c * x[i] * x[i]
            g[i] += 2.0 * c * x[i]
            hess[i, i] += 2.0 * c
        elif kind == "pair":
            value += c * x[i] * x[j]
            g[i] += c * x[j]
            g[j] += c * x[i]
            hess[i, j] += c
            hess[j, i] += c
        else:
            u = np.zeros(n)
            u[i] = 1.0
            u[j] += s
            t = float(u @ x)
            value += c * t**4
            g += 4.0 * c * t**3 * u
            hess += 12.0 * c * t * t * np.outer(u, u)
    return value, g, hess


def _quadric_op(rng, n: int, kind: str) -> LibraryOp:
    terms = _quadric_terms(rng, n, kind)
    for _ in range(1000):
        x = rng.uniform(-1.0, 1.0, size=n)
        value, g, hess = _quadric_value_grad_hess(terms, x)
        if np.linalg.norm(g) >= 0.5:  # far from any critical point
            break
    else:
        raise RuntimeError("no non-critical point drawn in 1000 attempts")
    return LibraryOp(
        f"{kind} N={n}", x, g, hess, oracle_eigenvalues(g, hess), text=_quadric_text(terms), level=value
    )


def library_ops(workload: str, seed: int, sc) -> list[LibraryOp]:
    """The seeded input list of one pass, oracles included."""
    rng = _rng(seed, workload)
    if workload == "sl_small":
        ops = []
        for _ in range(SL_SMALL_POINTS):
            s1, s2 = (int(v) for v in rng.integers(0, 2**31, size=2))
            ops.append(_sl_op("SL(3) generic", sc.random_sl(3, s1)))
            ops.append(_sl_op("SO(3) rotation", sc.random_special_orthogonal(3, s2)))
        return ops
    if workload == "sl_large":
        return [
            _sl_op("SL(5) generic", sc.random_sl(5, int(s)))
            for s in rng.integers(0, 2**31, size=SL_LARGE_POINTS)
        ]
    if workload == "quadric_expr":
        return [_quadric_op(rng, n, kind) for n in QUADRIC_DIMS for kind in QUADRIC_KINDS]
    raise ValueError(f"not a library workload: {workload}")


class LibraryState:
    """What set-up builds: the fields, or the parsed pool of expressions."""

    def __init__(self, workload: str, ops: list[LibraryOp], sc):
        self.sc = sc
        self.surfaces = {}
        if workload == "quadric_expr":
            # set-up parses the pool once; each call parses again, as `analyze --expr` does
            self.trees = [sc.parse_expression(op.text, op.point.size) for op in ops]
        else:
            for op in ops:
                if op.n not in self.surfaces:
                    self.surfaces[op.n] = sc.ImplicitHypersurface(field=sc.determinant_field(op.n), level=1.0)

    def call(self, op: LibraryOp):
        """One operation, as a library user makes it; attribute lookups stay late so tracing sees them."""
        sc = self.sc
        if op.text:
            field = sc.expression_field(op.text, arity=op.point.size)
            surface = sc.ImplicitHypersurface(field=field, level=op.level)
        else:
            surface = self.surfaces[op.n]
        return sc.curvature_report(surface, op.point)


def check_library(op: LibraryOp, report) -> list[str]:
    return check_report(report, op.g, op.hess, op.eigs)


# --- cli_verify -------------------------------------------------------------


@dataclass
class CliCommand:
    """One CLI process: arguments, the curvature reports it computes, and its check."""

    label: str
    argv: list
    reports: int
    check: Callable[[int, str], list]


def _parse_json(out: str):
    try:
        return json.loads(out), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def _exit_zero(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def _check_verify_sl(n: int):
    kappa = n**-0.5

    def check(code, out):
        problems = _exit_zero(code)
        doc, bad = _parse_json(out)
        if doc is None:
            return problems + bad
        if doc.get("passed") is not True:
            problems.append(f"passed is {doc.get('passed')!r}")
        want = [(kappa, (n * n + n - 2) // 2), (-kappa, (n * n - n) // 2)]
        got = [(c.get("value"), c.get("multiplicity")) for c in doc.get("curvatures", [])]
        if len(got) != 2 or any(
            m != wm or not abs(v - wv) <= TOL for (v, m), (wv, wm) in zip(got, want)
        ):
            problems.append(f"identity spectrum {got} differs from {want}")
        return problems

    return check


def analyze_check(g: np.ndarray, hess: np.ndarray):
    eigs = oracle_eigenvalues(g, hess)
    lam = max(1.0, float(np.max(np.abs(eigs))))

    def check(code, out):
        problems = _exit_zero(code)
        doc, bad = _parse_json(out)
        if doc is None:
            return problems + bad
        expanded = [c["value"] for c in doc.get("curvatures", []) for _ in range(c["multiplicity"])]
        if len(expanded) != eigs.size or not np.max(np.abs(np.array(expanded) - eigs)) <= CLUSTER_TOL + TOL * lam:
            problems.append("curvatures differ from the oracle spectrum")
        gk = float(np.prod(eigs))
        if not abs(doc.get("gauss_kronecker", math.nan) - gk) <= TOL * abs(gk):
            problems.append("gauss_kronecker differs from the oracle")
        if not abs(doc.get("mean", math.nan) - float(np.mean(eigs))) <= TOL * lam:
            problems.append("mean differs from the oracle")
        return problems

    return check


def _check_sample_image(code, out):
    problems = _exit_zero(code)
    if "all sampled images have det > 0" not in out:
        problems.append("sample-image did not confirm det > 0")
    return problems


def _check_report_n4(code, out):
    problems = _exit_zero(code)
    want = {
        "kappa_plus": 0.5,
        "kappa_minus": -0.5,
        "gauss_kronecker": 4.0**-7.5,
        "mean": 0.1,
    }
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] in want:
            value = float(parts[1])
            if not abs(value - want[parts[0]]) <= TOL * abs(want[parts[0]]):
                problems.append(f"{parts[0]} {value!r} differs from {want[parts[0]]!r}")
            del want[parts[0]]
    if want:
        problems.append(f"missing lines: {sorted(want)}")
    return problems


def _cli_rng(seed: int):
    """The workload's generator and, drawn first from it, the verify, image and point seeds."""
    rng = _rng(seed, "cli_verify")
    return rng, *(int(v) for v in rng.integers(0, 2**31, size=3))


def _verify_sl_command(n: int, verify_seed: int) -> CliCommand:
    return CliCommand(
        f"verify-sl --n {n}",
        ["verify-sl", "--n", str(n), "--seed", str(verify_seed), "--json"],
        6,  # the identity and five rotation points
        _check_verify_sl(n),
    )


def cli_commands(seed: int, sc) -> list[CliCommand]:
    """The fixed command list of one cli_verify pass, with seeded arguments."""
    rng, verify_seed, image_seed, point_seed = _cli_rng(seed)
    cmds = [_verify_sl_command(n, verify_seed) for n in PASS_VERIFY_SL_N]
    for s in np.random.default_rng(point_seed).integers(0, 2**31, size=CLI_ANALYZE_POINTS):
        a = sc.random_sl(3, int(s))
        cmds.append(
            CliCommand(
                CLI_REPORT_LABEL,
                ["analyze", "--builtin", "sl", "--n", "3", "--point=" + ",".join(repr(float(v)) for v in a.ravel()),
                 "--json"],
                1,
                analyze_check(*sl_oracle(a)),
            )
        )
    radius = float(rng.uniform(0.5, 2.0))
    u = rng.standard_normal(4)
    x = radius * u / np.linalg.norm(u)
    level = float(x @ x)
    cmds.append(
        CliCommand(
            "analyze --expr sphere",
            ["analyze", "--expr", "x1^2 + x2^2 + x3^2 + x4^2", f"--level={level!r}",
             "--point=" + ",".join(repr(float(v)) for v in x), "--json"],
            1,
            analyze_check(2.0 * x, 2.0 * np.eye(4)),
        )
    )
    cmds.append(
        CliCommand(
            "sample-image --n 3",
            ["sample-image", "--n", "3", "--count", "1000", "--seed", str(image_seed)],
            0,
            _check_sample_image,
        )
    )
    cmds.append(SETUP_CLI)
    return cmds


def cli_traced_only(seed: int) -> list[CliCommand]:
    """Commands a traced cli_verify run makes once, after its passes, for their spans only."""
    return [_verify_sl_command(n, _cli_rng(seed)[1]) for n in TRACED_ONLY_VERIFY_SL_N]


# the CLI's floor: set-up times it as a fresh `python -m slcurv.cli` process
SETUP_CLI = CliCommand("report --n 4", ["report", "--n", "4"], 0, _check_report_n4)
