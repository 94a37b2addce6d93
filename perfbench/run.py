"""slcurv benchmark: four closed-loop workloads, checked against oracles.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke      every workload, a handful of operations
  python3 perfbench/run.py --selftest   the checks must catch injected faults

One client in one process issues each operation after the previous one
returns; no threads. With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics from
spans, which are also written under .perfbench-out/. Run metadata and
sample counts go on the line before it. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads as wl
from hostspeed import HostSpeed
from tracing import LayerStats, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

SETUP_RUNS = 7  # fresh processes per set-up measurement; the median is reported
PROBE_RUNS = 5  # fresh processes per process-start and import probe
SMOKE_OPS = 3  # library operations per pass in --smoke
CLI_TIMEOUT_S = 60.0  # per child process; a set-up probe takes under a second


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _timed_process(cmd: list, timeout: float = CLI_TIMEOUT_S):
    """Run one child to completion; returns (wall seconds, exit code or None, stdout)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=_child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return time.perf_counter() - start, None, ""
    return time.perf_counter() - start, proc.returncode, proc.stdout


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{label}: {'; '.join(problems)}")


# --- library workloads ------------------------------------------------------


def _checked(check, *args) -> list[str]:
    """The check's mismatches; a result the check cannot even read is one too."""
    try:
        return check(*args)
    except Exception as exc:  # e.g. a missing field or malformed output
        return [f"unreadable result: {type(exc).__name__}: {exc}"]


def library_pass(ops, call, check, tally: Tally, tracer: Tracer | None = None) -> list[float]:
    """One pass over the input list; returns per-call latencies in seconds.

    Only the call is timed; the oracle check runs between calls. An
    exception counts as a failed operation, like a wrong result.
    """
    clock = time.perf_counter
    latencies = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        start = clock()
        try:
            result = call(op)
        except Exception as exc:  # the operation failed; the run goes on
            latencies.append(clock() - start)
            tally.record(op.label, [f"raised {type(exc).__name__}: {exc}"])
            continue
        latencies.append(clock() - start)
        tally.record(op.label, _checked(check, op, result))
    return latencies


def timed_loop(run_pass, seconds, trace, setup_probe, setup_runs):
    """Repeat whole passes for `seconds` of pass time; returns (passes, set-up times, host speed).

    With tracing, passes alternate untraced and traced, starting untraced.
    Set-up probes are spread between passes so they sample the same
    machine conditions as the passes; their time is not pass time, and
    neither is the host-speed probe after each pass.
    """
    passes = {False: [], True: []}  # traced? -> per-pass lists of per-input seconds
    setup = []
    measured = 0.0
    speed = HostSpeed()
    while True:
        if len(setup) < setup_runs and len(setup) <= setup_runs * measured / max(seconds, 1e-9):
            setup.append(setup_probe())
        traced = trace and len(passes[False]) > len(passes[True])
        start = time.perf_counter()
        passes[traced].append(run_pass(traced))
        measured += time.perf_counter() - start
        speed.probe()
        if measured >= seconds and (not trace or passes[True]):
            break
    while len(setup) < setup_runs:
        setup.append(setup_probe())
    return passes, setup, speed


def per_input_median(passes) -> np.ndarray:
    """Per input, the median of its passes.

    The median drops the stalls other tenants cause, and it summarises
    the run's speed the way the host-speed factor does (see hostspeed.py).
    """
    return np.median(np.asarray(passes, dtype=float), axis=0)


def _timing(passes, per_pass_reports, report_mask=None) -> dict:
    """End-to-end timings from the untraced passes, each input at its median.

    `report_mask` picks the inputs whose latencies are report_ms (all by default).
    """
    typical = per_input_median(passes[False])
    report_s = typical if report_mask is None else typical[report_mask]
    pass_s = [sum(p) for p in passes[False]]
    return {
        "passes": len(passes[False]),
        "pass_s": {"min": min(pass_s), "median": statistics.median(pass_s), "max": max(pass_s)},
        "samples": len(passes[False]) * len(report_s),
        "session_s": float(typical.sum()),
        "reports_per_s": per_pass_reports / float(typical.sum()),
        "report_ms": 1e3 * report_s,
    }


def _overhead(passes, ops_per_pass) -> dict:
    """Untraced and traced time per operation, each input at its median."""
    base, traced = per_input_median(passes[False]).sum(), per_input_median(passes[True]).sum()
    return {"base_ms_per_op": 1e3 * base / ops_per_pass, "traced_ms_per_op": 1e3 * traced / ops_per_pass}


def measure_library(workload, seed, seconds, trace, setup_runs, smoke=False):
    import slcurv as sc

    ops = wl.library_ops(workload, seed, sc)[: SMOKE_OPS if smoke else None]
    state = wl.LibraryState(workload, ops, sc)
    state.call(ops[0])  # warm-up, as in set-up
    tally = Tally()
    tracer = Tracer()

    def run_pass(traced):
        if not traced:
            return library_pass(ops, state.call, wl.check_library, tally)
        tracer.install()
        try:
            return library_pass(ops, state.call, wl.check_library, tally, tracer)
        finally:
            tracer.uninstall()

    def setup_probe():
        _, code, out = _timed_process([sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)])
        if code != 0:
            raise RuntimeError(f"set-up probe for {workload} exited with {code}")
        return json.loads(out.strip().splitlines()[-1])["setup_s"]

    passes, setup, speed = timed_loop(run_pass, seconds, trace, setup_probe, setup_runs)
    result = _timing(passes, len(ops))
    result.update(tally=tally, setup=setup, speed=speed.summary(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if trace:
        traced_ops = len(ops) * len(passes[True])
        result["trace"] = {"stats": LayerStats([tracer.spans]), "spans": [tracer.spans], "absent": tracer.absent,
                           "ops": traced_ops, "reports": traced_ops, **_overhead(passes, len(ops))}
    return result


# --- cli_verify ---------------------------------------------------------------


def cli_pass(cmds, tally: Tally, tracer: Tracer | None = None) -> list[float]:
    """Run the command list once through `slcurv.cli.main`, in this process.

    Returns the wall time of each command. Its stdout is captured for the
    check; an exception counts as a failed command, like a wrong exit code.
    """
    import slcurv.cli

    clock = time.perf_counter
    walls = []
    for cmd in cmds:
        if tracer is not None:
            tracer.op += 1
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = slcurv.cli.main(list(cmd.argv))
        except Exception as exc:  # the command failed; the run goes on
            walls.append(clock() - start)
            tally.record(cmd.label, [f"raised {type(exc).__name__}: {exc}"])
            continue
        walls.append(clock() - start)
        tally.record(cmd.label, _checked(cmd.check, code, out.getvalue()))
    return walls


def measure_cli(seed, seconds, trace, setup_runs, smoke=False):
    import slcurv as sc

    cmds = wl.cli_commands(seed, sc)
    if smoke:  # verify-sl at n = 2 only
        cmds = [c for c in cmds if not c.label.startswith("verify-sl") or c.label == "verify-sl --n 2"]
    cli_pass(cmds[:1], Tally())  # warm-up, untimed, as on the library workloads
    tally = Tally()
    tracer = Tracer()

    def run_pass(traced):
        if not traced:
            return cli_pass(cmds, tally)
        tracer.install()
        try:
            return cli_pass(cmds, tally, tracer)
        finally:
            tracer.uninstall()

    def setup_probe():
        wall, code, out = _timed_process([sys.executable, "-m", "slcurv.cli", *wl.SETUP_CLI.argv])
        problems = ["timed out"] if code is None else _checked(wl.SETUP_CLI.check, code, out)
        if problems:
            raise RuntimeError(f"set-up CLI process: {'; '.join(problems)}")
        return wall

    passes, setup, speed = timed_loop(run_pass, seconds, trace, setup_probe, setup_runs)
    reports = sum(c.reports for c in cmds)
    result = _timing(passes, reports, np.array([c.label == wl.CLI_REPORT_LABEL for c in cmds]))
    result.update(tally=tally, setup=setup, speed=speed.summary(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if trace:
        # commands outside the pass feed only their own per-call medians
        extra = Tracer()
        if not smoke:
            extra.install()
            try:
                cli_pass(wl.cli_traced_only(seed), tally, extra)
            finally:
                extra.uninstall()
        result["trace"] = {"stats": LayerStats([tracer.spans]), "extra_stats": LayerStats([extra.spans]),
                           "spans": [tracer.spans, extra.spans], "absent": tracer.absent,
                           "ops": len(passes[True]), "reports": reports * len(passes[True]), **_overhead(passes, 1)}
    return result


# --- metrics ------------------------------------------------------------------


def end_to_end(res) -> dict:
    """The end-to-end metrics; every time but set-up is scaled by the run's host-speed factor.

    Set-up is mostly a fresh interpreter importing numpy, and its time does
    not follow the calibration loop's (see hostspeed.py).
    """
    factor = res["speed"]["factor"]
    lat = res["report_ms"] * factor
    return {
        "setup_s": {"value": statistics.median(res["setup"]), "unit": "s"},
        "reports_per_s": {"value": res["reports_per_s"] / factor, "unit": "1/s"},
        "report_ms.p50": {"value": float(np.percentile(lat, 50)), "unit": "ms"},
        "report_ms.p90": {"value": float(np.percentile(lat, 90)), "unit": "ms"},
        "session_s": {"value": res["session_s"] * factor, "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def start_and_import_ms() -> tuple[float, float]:
    """Median wall time of `python -c pass`, and of importing slcurv.cli in a fresh process."""
    starts, imports = [], []
    timer = "import time; t = time.perf_counter(); import slcurv.cli; print(time.perf_counter() - t)"
    for _ in range(PROBE_RUNS):
        starts.append(_timed_process([sys.executable, "-c", "pass"])[0])
        _, code, out = _timed_process([sys.executable, "-c", timer])
        imports.append(float(out) if code == 0 else float("nan"))
    return 1e3 * statistics.median(starts), 1e3 * statistics.median(imports)


def per_layer(tr, process_start_ms, import_ms) -> dict:
    st: LayerStats = tr["stats"]
    ops, reports = max(tr["ops"], 1), max(tr["reports"], 1)

    def ms(name):
        return 1e3 * st.total_s.get(name, 0.0) / ops

    def calls(name):
        return st.calls.get(name, 0) / ops

    def median_ms(name):
        per_call = st.per_call_s.get(name) or tr.get("extra_stats", st).per_call_s.get(name)
        return 1e3 * statistics.median(per_call) if per_call else 0.0

    hessians = st.calls.get("autodiff.hessian", 0)
    values = {
        "autodiff.hessian_ms": (ms("autodiff.hessian"), "ms"),
        "autodiff.hessian_calls": (calls("autodiff.hessian"), "count"),
        "autodiff.gradient_ms": (ms("autodiff.gradient"), "ms"),
        "autodiff.gradient_calls": (calls("autodiff.gradient"), "count"),
        "autodiff.self_ms": (1e3 * st.layer_self_s.get("autodiff", 0.0) / ops, "ms"),
        "fields.eval_calls_per_report": (st.calls.get("fields.eval", 0) / reports, "count"),
        "fields.eval_self_ms": (1e3 * st.self_s.get("fields.eval", 0.0) / ops, "ms"),
        "fields.parse_ms": (ms("fields.parse"), "ms"),
        "surfaces.hessians_per_point": (hessians / st.distinct_points if st.distinct_points else 0.0, "ratio"),
        "surfaces.weingarten_apply_ms": (ms("surfaces.weingarten_apply"), "ms"),
        "surfaces.self_ms": (1e3 * st.layer_self_s.get("surfaces", 0.0) / ops, "ms"),
        "linalg.jacobi_eigh_ms": (ms("linalg.jacobi_eigh"), "ms"),
        "linalg.jacobi_eigh_calls": (calls("linalg.jacobi_eigh"), "count"),
        "linalg.complement_basis_ms": (ms("linalg.complement_basis"), "ms"),
        "linalg.cluster_ms": (ms("linalg.cluster_multiplicities"), "ms"),
        "linalg.det_inverse_ms": (ms("linalg.det_inverse"), "ms"),
        "linalg.determinant_ms": (ms("linalg.determinant"), "ms"),
        "slgroup.gauss_map_ms": (ms("slgroup.gauss_map"), "ms"),
        "slgroup.gauss_map_preimage_ms": (ms("slgroup.gauss_map_preimage"), "ms"),
        "slgroup.random_sl_ms": (ms("slgroup.random_sl"), "ms"),
        "cli.process_start_ms": (process_start_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
    }
    for n in (2, 3, 4, 5):  # the sizes verify-sl accepts
        values[f"cli.run_verify_sl_ms.n{n}"] = (median_ms(f"cli.run_verify_sl.n{n}"), "ms")
    base, traced = tr["base_ms_per_op"], tr["traced_ms_per_op"]
    values["trace.base_ms_per_op"] = (base, "ms")
    values["trace.overhead_ratio"] = ((traced - base) / base, "ratio")
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


def _write_spans(workload, seed, tr):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "op", "key"], "processes": tr["spans"]}, fh)
    return os.path.relpath(path, ROOT)


def run_metadata(seed) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "slcurv")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "src_slcurv_lines": src_lines,
    }


def run_workload(workload, seed, seconds, trace, setup_runs, smoke=False):
    """The timed loop, set-up probes and metrics of one run."""
    os.makedirs(OUT, exist_ok=True)
    measure = measure_cli if workload == "cli_verify" else functools.partial(measure_library, workload)
    res = measure(seed, seconds, trace, setup_runs, smoke)
    tally = res["tally"]
    detail = {
        "workload": workload,
        "trace": int(trace),
        "meta": run_metadata(seed),
        "samples": {"passes": res["passes"], "report_ms": res["samples"], "setup_runs": len(res["setup"])},
        "pass_s": res["pass_s"],
        "host_speed": res["speed"],
        "failed_ratio": tally.failed / tally.attempted,
        "failures": tally.reasons,
    }
    if trace:
        metrics = per_layer(res["trace"], *start_and_import_ms())
        detail["absent"] = res["trace"]["absent"]
        detail["spans_file"] = _write_spans(workload, seed, res["trace"])
    else:
        metrics = end_to_end(res)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return detail, result


def _import_checkout_slcurv():
    """Import slcurv from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "slcurv", "__init__.py")):
        raise SystemExit(f"error: {os.path.relpath(SRC)}/slcurv not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import slcurv

    if os.path.dirname(os.path.dirname(os.path.abspath(slcurv.__file__))) != SRC:
        raise SystemExit(f"error: imported slcurv from {slcurv.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    _import_checkout_slcurv()
    if args.selftest:
        import selftest

        return selftest.main(args.seed)
    if args.smoke:
        ok = True
        for workload in wl.WORKLOADS:
            detail, result = run_workload(workload, args.seed, 0.0, True, setup_runs=1, smoke=True)
            missing = [m for m in per_layer_names() if m not in result["metrics"]]
            ok &= result["correct"] and not missing
            print(json.dumps({"workload": workload, "correct": result["correct"], "attempted": result["attempted"],
                              "failed": result["failed"], "missing_metrics": missing, "absent": detail["absent"]}))
        print("smoke:", "ok" if ok else "FAILED")
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required")
    # a traced run reports no set-up time, so it measures none
    detail, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), 0 if args.trace else SETUP_RUNS)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def per_layer_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
