"""Self-test of the benchmark's checks: injected faults must count as failures.

Run with `python3 perfbench/run.py --selftest`. Each case drives the same
pass functions and checks the timed runs use, with one fault injected:
a principal curvature moved by 1e-6, an exception raised from the call,
and a CLI command that exits non-zero. The unperturbed library calls and
CLI commands must count no failure.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import run
import workloads as wl
from tracing import Tracer


def _perturbed(call):
    def perturbed_call(op):
        report = call(op)
        eigenvalues = report.eigenvalues.copy()
        eigenvalues[0] += 1e-6
        return dataclasses.replace(report, eigenvalues=eigenvalues)

    return perturbed_call


def _raising(op):
    raise RuntimeError("injected fault")


def main(seed: int) -> int:
    import slcurv as sc

    cases = []
    for workload in wl.LIBRARY_WORKLOADS:
        ops = wl.library_ops(workload, seed, sc)[:2]
        state = wl.LibraryState(workload, ops, sc)
        for name, call, expect_failed in (
            ("unperturbed", state.call, 0),
            ("eigenvalue + 1e-6", _perturbed(state.call), len(ops)),
            ("raised exception", _raising, len(ops)),
        ):
            tally = run.Tally()
            run.library_pass(ops, call, wl.check_library, tally)
            cases.append((f"{workload}: {name}", tally, expect_failed))

    cmds = {c.label: c for c in wl.cli_commands(seed, sc)}
    good = [cmds["report --n 4"], cmds["analyze --builtin sl --n 3"]]
    # verify-sl only accepts 2 <= n <= 5 and exits 2 otherwise
    bad_exit = dataclasses.replace(cmds["verify-sl --n 2"], argv=["verify-sl", "--n", "9", "--json"])
    # exit 0 and valid JSON, but checked against the oracle of another point
    wrong = dataclasses.replace(good[1], check=wl.analyze_check(*wl.sl_oracle(np.eye(3))))
    for name, commands, expect_failed in (
        ("cli unperturbed", good, 0),
        ("cli non-zero exit", [bad_exit], 1),
        ("cli result off the oracle", [wrong], 1),
    ):
        tally = run.Tally()
        run.cli_pass(commands, tally)
        cases.append((name, tally, expect_failed))

    ok = True
    for name, tally, expect_failed in cases:
        passed = tally.failed == expect_failed and tally.attempted > 0
        ok &= passed
        ratio = tally.failed / tally.attempted if tally.attempted else float("nan")
        print(f"{'PASS' if passed else 'FAIL'}  {name:<42} failed {tally.failed}/{tally.attempted} "
              f"(failed_ratio {ratio:.2f}, expected {expect_failed})")
        for reason in tally.reasons[:1]:
            print(f"      {reason[:160]}")
    # a renamed or removed target is reported as absent, never raised
    tracer = Tracer()
    tracer.install(
        (
            ("slcurv.surfaces", "no_such_function", "surfaces.none", None, None),
            ("slcurv.no_such_module", "f", "none.f", None, None),
            ("slcurv.fields", "ScalarField.no_such_method", "fields.none", None, None),
        )
    )
    tracer.uninstall()
    passed = len(tracer.absent) == 3
    ok &= passed
    print(f"{'PASS' if passed else 'FAIL'}  {'tracer: missing targets reported absent':<42} {tracer.absent}")
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1
