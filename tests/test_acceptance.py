"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.
"""

import json
import subprocess
import sys
import time

import numpy as np

from slcurv.autodiff import gradient, hessian
from slcurv.fields import determinant_field, quadric_field
from slcurv.linalg import (
    complement_basis,
    det_inverse,
    determinant,
    frobenius_norm,
    jacobi_eigh,
)
from slcurv.slgroup import (
    curvature_summary,
    gauss_map,
    gauss_map_preimage,
    principal_curvatures_identity,
    random_sl,
    random_special_orthogonal,
    spherical_image_contains,
)
from slcurv.surfaces import (
    curvature_report,
    fd_hessian_oracle,
    second_fundamental_form,
    unit_normal,
    weingarten_apply,
)

from conftest import random_trace_zero, sl_surface


def gate(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_weingarten_operator():
    # L at vec(I_n) equals n^{-1/2} vec(H^t) for 50 random trace-zero H,
    # n in {2,3,4}; componentwise error <= 1e-9; runtime < 5 s
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        surface = sl_surface(n)
        identity = np.eye(n).ravel()
        scale = 1.0 / np.sqrt(n)
        for _ in range(50):
            h = random_trace_zero(n, rng)
            out = weingarten_apply(surface, identity, h.ravel())
            worst = max(worst, float(np.max(np.abs(out - scale * h.T.ravel()))))
    elapsed = time.perf_counter() - start
    gate(
        "criterion 1 (shape operator at identity)",
        worst <= 1e-9 and elapsed < 5.0,
        f"max componentwise error {worst:.3e} (tol 1e-9), runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_principal_spectrum():
    # numeric spectrum clusters to exactly +-n^{-1/2} with multiplicities
    # (n^2+n-2)/2 and (n^2-n)/2, error <= 1e-9, n in {2,3,4}
    worst = 0.0
    ok = True
    details = []
    for n in (2, 3, 4):
        report = curvature_report(sl_surface(n), np.eye(n).ravel())
        exact = principal_curvatures_identity(n)
        assert report.eigenvalues.size == n * n - 1  # tangent dims 3, 8, 15
        if len(report.curvatures) != 2 or [m for _, m in report.curvatures] != [
            m for _, m in exact
        ]:
            ok = False
            details.append(f"n={n} multiplicities {[m for _, m in report.curvatures]}")
            continue
        err = max(abs(v - ve) for (v, _), (ve, _) in zip(report.curvatures, exact))
        worst = max(worst, err)
    gate(
        "criterion 2 (principal curvature spectrum)",
        ok and worst <= 1e-9,
        f"multiplicities exact for n=2,3,4; max eigenvalue error {worst:.3e} (tol 1e-9)"
        + ("; ".join(details)),
    )


def test_criterion_3_curvature_scalars():
    # Gauss-Kronecker and mean at identity within 1e-9 relative, n in {2,3,4},
    # including the sign flip between n=3 and n=4
    worst = 0.0
    signs = {}
    for n in (2, 3, 4):
        report = curvature_report(sl_surface(n), np.eye(n).ravel())
        exact = curvature_summary(n)
        gk_err = abs(report.gauss_kronecker - exact.gauss_kronecker) / abs(exact.gauss_kronecker)
        mean_err = abs(report.mean - exact.mean) / abs(exact.mean)
        worst = max(worst, gk_err, mean_err)
        signs[n] = report.gauss_kronecker
    sign_flip = signs[3] < 0.0 < signs[4]
    gate(
        "criterion 3 (Gauss-Kronecker and mean)",
        worst <= 1e-9 and sign_flip,
        f"max relative error {worst:.3e} (tol 1e-9); GK sign n=3 {signs[3]:+.2e}, n=4 {signs[4]:+.2e}",
    )


def test_criterion_4_gauss_map_reproduction():
    # numeric unit normal equals (A^{-1})^t/|A^{-1}| at 200 random SL points
    # per n in {2,3}, componentwise <= 1e-9
    worst = 0.0
    count = 0
    for n in (2, 3):
        surface = sl_surface(n)
        for seed in range(200):
            a = random_sl(n, 40_000 + seed)
            got = unit_normal(surface, a.ravel())
            want = gauss_map(a).ravel()
            worst = max(worst, float(np.max(np.abs(got - want))))
            count += 1
    gate(
        "criterion 4 (Gauss map at random points)",
        worst <= 1e-9 and count >= 200,
        f"{count} points, max componentwise error {worst:.3e} (tol 1e-9)",
    )


def test_criterion_5_spherical_image():
    # 1000 sampled images with det > 0; preimage round-trips <= 1e-10;
    # det < 0 unit-norm matrices rejected
    min_det = np.inf
    for seed in range(1000):
        image = gauss_map(random_sl(3, seed))
        min_det = min(min_det, determinant(image))
    worst_rt = 0.0
    for n in (2, 3, 4):
        for seed in range(70):
            u = gauss_map(random_sl(n, 50_000 + seed))
            worst_rt = max(worst_rt, float(np.max(np.abs(gauss_map(gauss_map_preimage(u)) - u))))
    mirrored = np.diag([1.0, -1.0]) / np.sqrt(2.0)
    rejected = not spherical_image_contains(mirrored)
    try:
        gauss_map_preimage(mirrored)
        preimage_rejected = False
    except ValueError:
        preimage_rejected = True
    gate(
        "criterion 5 (spherical image characterization)",
        min_det > 0.0 and worst_rt <= 1e-10 and rejected and preimage_rejected,
        f"1000 images min det {min_det:.3e} > 0; round-trip error {worst_rt:.3e} (tol 1e-10); "
        f"negative-det matrix rejected",
    )


def test_criterion_6_fundamental_forms():
    # second form equals n^{-1/2} tr(H^2), first form tr(H^t H), within 1e-9,
    # 50 random trace-zero H per n in {2,3}
    rng = np.random.default_rng(606)
    worst = 0.0
    for n in (2, 3):
        surface = sl_surface(n)
        identity = np.eye(n).ravel()
        for _ in range(50):
            h = random_trace_zero(n, rng)
            v = h.ravel()
            second = second_fundamental_form(surface, identity, v, v)
            worst = max(worst, abs(second - np.trace(h @ h) / np.sqrt(n)))
            first = float(v @ v)
            worst = max(worst, abs(first - np.trace(h.T @ h)))
    gate(
        "criterion 6 (fundamental forms)",
        worst <= 1e-9,
        f"max error across both forms {worst:.3e} (tol 1e-9)",
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(707)

    # AD gradient of det vs the adjugate formula det(A) (A^{-1})^t, 1e-12 relative
    grad_worst = 0.0
    grad_count = 0
    while grad_count < 100:
        n = int(rng.integers(2, 4))
        a = rng.uniform(-1, 1, size=(n, n))
        det, inv = det_inverse(a) if abs(determinant(a)) >= 0.1 else (None, None)
        if det is None or abs(det) > 10.0:
            continue
        grad = gradient(determinant_field(n), a.ravel())
        expect = det * inv.T.ravel()
        grad_worst = max(
            grad_worst,
            float(np.max(np.abs(grad - expect)) / (1.0 + np.max(np.abs(expect)))),
        )
        grad_count += 1

    # AD Hessian vs central finite differences at h = 1e-4, 1e-5 absolute
    hess_worst = 0.0
    fields = [determinant_field(2), determinant_field(3), quadric_field([1.0, -2.0, 0.5, 1.5])]
    for i in range(102):
        field = fields[i % len(fields)]
        p = rng.uniform(-1, 1, size=field.arity)
        diff = hessian(field, p) - fd_hessian_oracle(field, p, 1e-4)
        hess_worst = max(hess_worst, float(np.max(np.abs(diff))))

    # Jacobi eigensolver reconstruction residual <= 1e-9 relative
    eig_worst = 0.0
    dims = list(rng.integers(2, 13, size=97)) + [36, 36, 36]
    for dim in dims:
        a = rng.standard_normal((int(dim), int(dim)))
        a = 0.5 * (a + a.T)
        spec = jacobi_eigh(a)
        recon = spec.vectors @ np.diag(spec.values) @ spec.vectors.T
        eig_worst = max(eig_worst, frobenius_norm(a - recon) / frobenius_norm(a))

    # Householder complement basis orthonormality <= 1e-12
    basis_worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 37))
        g = rng.uniform(-1, 1, size=dim)
        if np.linalg.norm(g) < 1e-6:
            continue
        t = complement_basis(g)
        basis_worst = max(basis_worst, float(np.max(np.abs(t.T @ t - np.eye(dim - 1)))))
        basis_worst = max(
            basis_worst, float(np.max(np.abs(t.T @ g)) / np.linalg.norm(g))
        )

    ok = (
        grad_worst <= 1e-12
        and hess_worst <= 1e-5
        and eig_worst <= 1e-9
        and basis_worst <= 1e-12
    )
    gate(
        "criterion 7 (oracle equivalence suite)",
        ok,
        f"gradient vs adjugate {grad_worst:.3e} (tol 1e-12); Hessian vs FD {hess_worst:.3e} "
        f"(tol 1e-5); Jacobi reconstruction {eig_worst:.3e} (tol 1e-9); "
        f"basis orthonormality {basis_worst:.3e} (tol 1e-12)",
    )


def test_criterion_8_rotation_invariance():
    # spectra at 10 random rotation points match the identity spectrum
    # within 1e-8, n in {2,3}
    worst = 0.0
    for n in (2, 3):
        surface = sl_surface(n)
        identity_eigs = np.sort(curvature_report(surface, np.eye(n).ravel()).eigenvalues)
        for seed in range(10):
            q = random_special_orthogonal(n, 80_000 + seed)
            eigs = np.sort(curvature_report(surface, q.ravel()).eigenvalues)
            worst = max(worst, float(np.max(np.abs(eigs - identity_eigs))))
    gate(
        "criterion 8 (rotation-point invariance)",
        worst <= 1e-8,
        f"max spectrum deviation {worst:.3e} (tol 1e-8)",
    )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "slcurv.cli", *args], capture_output=True, text=True
    )


def test_criterion_9_cli_contract():
    good = _run_cli("verify-sl", "--n", "3", "--json")
    schema_ok = False
    if good.returncode == 0:
        doc = json.loads(good.stdout)
        schema_ok = (
            isinstance(doc["point"], list)
            and all(isinstance(x, float) for x in doc["point"])
            and isinstance(doc["normal"], list)
            and all(isinstance(x, float) for x in doc["normal"])
            and isinstance(doc["curvatures"], list)
            and all(
                isinstance(c["value"], float) and isinstance(c["multiplicity"], int)
                for c in doc["curvatures"]
            )
            and isinstance(doc["gauss_kronecker"], float)
            and isinstance(doc["mean"], float)
            and isinstance(doc["weingarten"], list)
            and all(isinstance(x, float) for row in doc["weingarten"] for x in row)
        )
    bad = _run_cli("verify-sl", "--n", "1")
    gate(
        "criterion 9 (CLI contract)",
        good.returncode == 0 and schema_ok and bad.returncode == 2,
        f"verify-sl --n 3 --json exit {good.returncode} with schema-valid JSON; "
        f"verify-sl --n 1 exit {bad.returncode} (want 2)",
    )
