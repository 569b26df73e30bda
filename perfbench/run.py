"""Time-to-solution benchmark of the fmmbem pipeline.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs make_sphere/make_scene -> BemOperator -> assemble_rhs -> solve on one
workload in this fresh process, checks the answer, prints every metric by
name and unit, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the layers of fmmbem are hooked and the
metrics are the per-layer split.  A full record of the run, with one entry
per GMRES iteration when traced, is written to perfbench/out/.

The program is imported from src/ of the checkout this file sits in.
"""

import os
import sys
import time

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: on 2 cores a second one made no run faster but exposed
# every GEMM to steal of the other core, widening the run-to-run spread.
# BLAS reads these once, when numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import layertrace as trace  # noqa: E402
from workloads import MU, WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def process_age_s():
    """Seconds since this process started (Linux /proc start time)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")   # field 22: starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def import_program():
    """Import fmmbem from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import fmmbem
    except ImportError as exc:
        raise SystemExit(f"cannot import fmmbem from {src}: {exc}")
    if src.resolve() not in Path(fmmbem.__file__).resolve().parents:
        raise SystemExit(f"fmmbem was imported from {fmmbem.__file__}, not from {src}")
    return fmmbem


def run_round(fm, work, seed, traced):
    """One pass of the pipeline; returns its timings, checks and trace."""
    age_at_start = process_age_s()
    tracer = trace.Tracer()
    with tracer.phase_span("mesh"):
        mesh = work.make_mesh(fm, seed)
    data = work.boundary_data(mesh)
    if traced:
        trace.install(tracer)
    with tracer.phase_span("setup"):
        op = fm.BemOperator(mesh, work.formulation, theta=0.5, n_crit=126, mu=MU)
    age_after_setup = process_age_s()
    with tracer.phase_span("rhs"):
        b = op.assemble_rhs(data)
    with tracer.phase_span("solve"):
        result = fm.solve(op, b, eta=work.tol, p_initial=work.p_initial,
                          p_min=work.p_min, relaxed=work.relaxed)
    tracer.uninstall()

    plan = op.plan
    found = [
        checks.rhs_identity(b, data, work.rhs_limit),
        checks.converged(result.converged),
        checks.true_residual(b, op.apply(result.x, work.p_initial), work.tol),
        checks.schedule(result.orders, work.p_min, work.p_initial),
        checks.interactions(plan.interaction_counts(), len(plan.src_tree.points)),
        *work.answer_checks(op, mesh, result.x),
    ]
    return {
        "tracer": tracer,
        "age_at_start": age_at_start,
        "age_after_setup": age_after_setup,
        "n_unknowns": op.shape[0],
        "orders": [int(p) for p in result.orders],
        "residuals": [float(r) for r in result.residuals],
        "checks": found,
    }


def end_to_end(rounds):
    """Medians over rounds; set-up is the first, cold one from process start."""
    phases = [r["tracer"].phase_s for r in rounds]

    def med(*names):
        return statistics.median(sum(ph[n] for n in names) for ph in phases)

    return {
        "time_to_solution_s": (med("setup", "rhs", "solve"), "s"),
        "setup_s": (rounds[0]["age_after_setup"], "s"),
        "rhs_s": (med("rhs"), "s"),
        "solve_s": (med("solve"), "s"),
        "peak_rss_mb": (trace.peak_rss_mb(), "MB"),
    }


def per_layer(rounds):
    """Per-round means of the layer self times, counts and phase figures."""
    n = len(rounds)

    def mean(f):
        return sum(f(r["tracer"]) for r in rounds) / n

    out = {}
    for name, (layer, phase) in trace.LAYER_TIMES.items():
        out[name] = (mean(lambda t: t.layer_s(layer, phase)), "s")
    for name in trace.COUNTS:
        unit = "Gflop" if name.endswith("gflop") else "MB" if name.endswith("_mb") else "count"
        out[name] = (mean(lambda t: t.counts[name]), unit)
    out["solver.iterations"] = (sum(len(r["orders"]) for r in rounds) / n, "count")
    out["mesh.generate_s"] = (mean(lambda t: t.phase_s["mesh"]), "s")
    # start-up and set-up as in end_to_end: the first, cold round
    out["phase.startup_s"] = (rounds[0]["age_at_start"], "s")
    out["phase.setup_s"] = (rounds[0]["age_after_setup"], "s")
    out["phase.operator_s"] = (mean(lambda t: t.phase_s["setup"]), "s")
    for phase in ("rhs", "solve"):
        out[f"phase.{phase}_s"] = (mean(lambda t: t.phase_s[phase]), "s")
    out["bemop.rss_setup_mb"] = (max(r["tracer"].rss_mb["setup"] for r in rounds), "MB")
    out["bemop.rss_rhs_mb"] = (max(r["tracer"].rss_mb["rhs"] for r in rounds), "MB")
    out["solver.rss_solve_mb"] = (max(r["tracer"].rss_mb["solve"] for r in rounds), "MB")
    return out


def machine_info():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="repeat whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work = WORKLOADS[args.workload]
    fm = import_program()

    start = time.perf_counter()
    rounds = []
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(fm, work, args.seed, bool(args.trace)))

    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    all_checks = [c for r in rounds for c in r["checks"]]
    correct = all(c.passed for c in all_checks)
    info = machine_info()

    print(f"workload {work.name}  seed {args.seed}  rounds {len(rounds)}  "
          f"unknowns {rounds[0]['n_unknowns']}  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for c in rounds[0]["checks"]:
        print(f"check {c.name:40s} {c.value:12.5g}  limit {c.limit:<10.3g} "
              f"{'ok' if c.passed else 'FAILED'}")
    print("p schedule " + " ".join(map(str, rounds[0]["orders"])))
    for name, (value, unit) in metrics.items():
        print(f"metric {name:32s} {value:14.6g} {unit}")

    record = {
        "workload": work.name, "seed": args.seed, "trace": args.trace,
        "machine": info, "correct": correct, "metrics": metrics_json,
        "rounds": [{
            "orders": r["orders"], "residuals": r["residuals"],
            "checks": [c.as_dict() for c in r["checks"]],
            "phase_s": r["tracer"].phase_s,
            "missing_hooks": r["tracer"].missing,
            "iterations": (trace.iteration_records(r["tracer"], r["orders"], r["residuals"])
                           if args.trace else []),
        } for r in rounds],
    }
    missing = sorted({m for r in rounds for m in r["tracer"].missing})
    if missing:
        print("missing hooks: " + ", ".join(missing))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{work.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": len(rounds),
        "failed": 0,
        "metrics": metrics_json,
    }))


if __name__ == "__main__":
    main()
