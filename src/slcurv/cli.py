"""Command-line front end.

Subcommands:
  verify-sl     run the closed-form vs numeric cross-checks for SL(n)
  analyze       curvature report for a built-in or user-expression surface
  sample-image  sample Gauss-map images and report the determinant range
  report        print the exact SL(n) identity curvature table

Exit codes: 0 success, 1 numeric/check failure, 2 usage or parse failure.
JSON mode writes one document to stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .fields import ParseError, determinant_field, expression_field
from .linalg import determinant
from .slgroup import (
    curvature_summary,
    gauss_map,
    gauss_map_preimage,
    principal_curvatures_identity,
    random_sl,
    random_special_orthogonal,
)
from .surfaces import (
    CriticalPointError,
    CurvatureReport,
    ImplicitHypersurface,
    OffSurfaceError,
    curvature_report,
)

SAMPLE_CHUNK = 1024  # Gauss-map images per stack in sample-image


def report_to_dict(report: CurvatureReport) -> dict:
    """Render a curvature report in the stable JSON schema."""
    return {
        "point": [float(x) for x in report.point],
        "normal": [float(x) for x in report.normal],
        "curvatures": [
            {"value": float(v), "multiplicity": int(m)} for v, m in report.curvatures
        ],
        "gauss_kronecker": float(report.gauss_kronecker),
        "mean": float(report.mean),
        "weingarten": [[float(x) for x in row] for row in report.weingarten],
    }


def _print_curvatures(report: CurvatureReport, header: str):
    print(header)
    for value, mult in report.curvatures:
        # fixed point while that keeps 9 or more significant and 8 or fewer integer digits
        spec = " .12f" if value == 0.0 or 1e-4 <= abs(value) < 1e8 else " .12e"
        print(f"  {value:{spec}}  multiplicity {mult}")
    print(f"gauss_kronecker  {report.gauss_kronecker: .12e}")
    print(f"mean             {report.mean: .12e}")


def run_verify_sl(n: int, tolerance: float, seed: int) -> tuple[list[dict], CurvatureReport]:
    """Execute the cross-module checks; returns (check rows, identity report)."""
    surface = ImplicitHypersurface(field=determinant_field(n), level=1.0)
    identity = np.eye(n).ravel()
    rng = np.random.default_rng(seed)
    checks = []

    def add(name: str, residual: float):
        checks.append(
            {
                "name": name,
                "residual": float(residual),
                "tolerance": float(tolerance),
                "passed": bool(residual <= tolerance),
            }
        )

    report = curvature_report(surface, identity)

    # shape operator at I against n^{-1/2} H^t, on 25 random trace-zero directions H
    # at once, the rows of flat; T W T^t applied to a tangent v is
    # -(I - N N^t) H v / |grad f|, since T T^t = I - N N^t
    basis, w = report.tangent_basis, report.weingarten
    h = rng.uniform(-1.0, 1.0, size=(25, n, n))
    h -= (np.trace(h, axis1=1, axis2=2) / n)[:, None, None] * np.eye(n)
    flat = h.reshape(25, n * n)
    lv = flat @ basis @ w.T @ basis.T
    transposed = np.swapaxes(h, 1, 2).reshape(25, n * n)
    add("weingarten_operator_identity", float(np.max(np.abs(lv - transposed / math.sqrt(n)))))

    # spectrum, Gauss-Kronecker, and mean at I against the closed forms
    exact = principal_curvatures_identity(n)
    if [m for _, m in report.curvatures] == [m for _, m in exact]:
        spectrum_residual = max(
            abs(v - ve) for (v, _), (ve, _) in zip(report.curvatures, exact)
        )
    else:
        spectrum_residual = math.inf
    add("principal_spectrum_identity", spectrum_residual)

    summary = curvature_summary(n)
    add(
        "gauss_kronecker_identity",
        abs(report.gauss_kronecker - summary.gauss_kronecker) / abs(summary.gauss_kronecker),
    )
    add("mean_curvature_identity", abs(report.mean - summary.mean) / abs(summary.mean))

    # Gauss map round trips through the preimage construction, on one stack of points
    u = gauss_map(random_sl(n, [seed + 101 * i + 1 for i in range(50)]))
    add("gauss_map_roundtrip", float(np.max(np.abs(gauss_map(gauss_map_preimage(u)) - u))))

    # eigenvalue multiset must not move under rotation points of SL(n)
    identity_eigs = np.sort(report.eigenvalues)
    worst = 0.0
    for i in range(5):
        q = random_special_orthogonal(n, seed + 211 * i + 3)
        rotated = curvature_report(surface, q.ravel())
        worst = max(worst, float(np.max(np.abs(np.sort(rotated.eigenvalues) - identity_eigs))))
    add("rotation_point_invariance", worst)

    return checks, report


def _cmd_verify_sl(args) -> int:
    checks, report = run_verify_sl(args.n, args.tol, args.seed)
    all_passed = all(c["passed"] for c in checks)
    max_residual = max(c["residual"] for c in checks)
    if args.json:
        doc = report_to_dict(report)
        doc.update(
            n=args.n, tolerance=args.tol, seed=args.seed, checks=checks,
            max_residual=max_residual, passed=all_passed,
        )
        print(json.dumps(doc, indent=2))
    else:
        print(f"SL({args.n}) verification, tolerance {args.tol:g}, seed {args.seed}")
        _print_curvatures(report, "spectrum at identity:")
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            print(f"{status}  {c['name']:<32} residual {c['residual']:.3e}")
    if not all_passed:
        print("verify-sl: one or more checks exceeded tolerance", file=sys.stderr)
        return 1
    return 0


def _parse_point(text: str) -> np.ndarray:
    if not text.strip():
        raise ParseError("point list is empty", 0)
    try:  # an empty coordinate, as in 1,,0 or 1,0, is not a real either
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise ParseError(f"point {text!r} is not a comma-separated list of reals", 0)
    if not all(math.isfinite(v) for v in values):
        raise ParseError(f"point {text!r} has a non-finite coordinate", 0)
    return np.asarray(values)


def _cmd_analyze(args) -> int:
    try:
        point = _parse_point(args.point)
        if args.builtin is not None:
            field, level = determinant_field(args.n), 1.0
            if point.size != field.arity:
                need = f"sl with n={args.n} needs {field.arity} point coordinates"
                raise ValueError(f"{need}, got {point.size}")
        else:
            field, level = expression_field(args.expr, arity=point.size), args.level
        surface = ImplicitHypersurface(field=field, level=level)
    except (ParseError, ValueError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    try:
        report = curvature_report(surface, point)
    except (OffSurfaceError, CriticalPointError, ZeroDivisionError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # a surface with no curvature to report, e.g. in R^1
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(f"point            {np.array2string(report.point, precision=10)}")
        print(f"normal           {np.array2string(report.normal, precision=10)}")
        _print_curvatures(report, "principal curvatures:")
    return 0


def _cmd_sample_image(args) -> int:
    # seeds seed .. seed + count - 1, one stack of SAMPLE_CHUNK at a time, so memory
    # stays bounded for any --count; the min must be > 0, which a NaN fails as well
    low, high = np.inf, -np.inf
    stop = args.seed + args.count
    for start in range(args.seed, stop, SAMPLE_CHUNK):
        seeds = range(start, min(start + SAMPLE_CHUNK, stop))
        dets = determinant(gauss_map(random_sl(args.n, seeds)))
        low, high = np.minimum(low, dets.min()), np.maximum(high, dets.max())
    print(f"sampled {args.count} Gauss-map images for SL({args.n})")
    print(f"det range: min {low:.6e}, max {high:.6e}")
    if not low > 0.0:
        print("sample-image: found a non-positive determinant in the image", file=sys.stderr)
        return 1
    print("all sampled images have det > 0")
    return 0


def _cmd_report(args) -> int:
    s = curvature_summary(args.n)
    print(f"SL({s.n}) curvature at the identity")
    print(f"kappa_plus       {s.kappa_plus: .12f}  multiplicity {s.mult_plus}")
    print(f"kappa_minus      {s.kappa_minus: .12f}  multiplicity {s.mult_minus}")
    print(f"gauss_kronecker  {s.gauss_kronecker: .12e}")
    print(f"mean             {s.mean: .12e}")
    return 0


def _usage_problem(args) -> str | None:
    """A message for the first option that is missing, misplaced or out of range, or None.

    analyze leaves the cap on --n to determinant_field, whose message names it.
    """
    if args.command == "analyze":
        builtin = args.builtin is not None
        if builtin == (args.expr is not None):
            return "provide exactly one of --builtin or --expr"
        if builtin and args.level is not None:
            return "--level goes with --expr; --builtin sl has level 1"
        if builtin and (args.n is None or args.n < 2):
            return "--builtin sl requires --n >= 2"
        if not builtin and args.n is not None:
            return "--n goes with --builtin; --expr takes its arity from --point"
        if not builtin and args.level is None:
            return "--expr requires --level"
    elif not 2 <= args.n <= 8:
        return f"--n must be in [2, 8], got {args.n}"
    if getattr(args, "seed", 0) < 0:
        return f"--seed must be >= 0, got {args.seed}"
    if getattr(args, "count", 1) < 1:
        return f"--count must be >= 1, got {args.count}"
    if not 0.0 < getattr(args, "tol", 1.0) < math.inf:
        return f"--tol must be finite and positive, got {args.tol!r}"
    return None


class _ArgumentParser(argparse.ArgumentParser):
    """ArgumentParser whose value-taking options accept a value that starts with '-'.

    argparse reads a token such as -1,0,0,-1 or -1e5 as an option name
    unless it looks like a plain negative number, so `--point -1,0,0,-1`
    would fail; each such pair is joined into the `--point=-1,0,0,-1` form
    before parsing. Subparsers are made with the same class.
    """

    def __init__(self, *args, **kwargs):
        self.value_options = set()  # filled by add_argument, which __init__ calls
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.option_strings and action.nargs is None:
            self.value_options.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        tokens = []
        for token in sys.argv[1:] if args is None else args:
            dash_value = token.startswith("-") and not token.startswith("--")
            if dash_value and tokens and tokens[-1] in self.value_options:
                tokens[-1] = f"{tokens[-1]}={token}"
            else:
                tokens.append(token)
        return super().parse_known_args(tokens, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="slcurv",
        description="Curvature of implicit hypersurfaces, with exact SL(n) cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-sl", help="run the closed-form vs numeric checks")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify_sl)

    p = sub.add_parser("analyze", help="curvature report at a point of a surface")
    p.add_argument("--builtin", choices=["sl"])
    p.add_argument("--n", type=int)
    p.add_argument("--expr", type=str)
    p.add_argument("--level", type=float)
    p.add_argument("--point", type=str, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("sample-image", help="sample Gauss-map images, check det > 0")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=_cmd_sample_image)

    p = sub.add_parser("report", help="print the exact identity curvature table")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    problem = _usage_problem(args)
    if problem is not None:
        print(f"{args.command}: {problem}", file=sys.stderr)
        return 2
    return args.handler(args)


def entrypoint():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the interpreter's
        # final flush of what is still buffered fails silently as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
