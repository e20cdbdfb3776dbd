"""Correspondence benchmark: time one workload and print its metrics.

    python3 perfbench/run.py --workload pipeline-5k --seed 1 --seconds 40 --trace 0

Builds the workload's inputs from ``--seed`` (three times, to time set-up),
then repeats whole rounds of ops until ``--seconds`` have passed, checks
every op's output, and prints as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every public function of the package is wrapped and the per-layer
metrics are printed instead.  Without ``--workload`` every workload of
``BENCHMARK.json`` runs, each in a process of its own; ``match-planted``
runs only when named.  perfbench/README.md describes the
workloads, metrics and reference figures.
"""

import os

# One BLAS thread: on a 2-core machine, the dense eigensolve at 1,802
# vertices spread over 0.55-1.28 s with OpenBLAS's default threads and
# over 0.86-0.92 s with one.
# This has to be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# the workloads of BENCHMARK.json
WORKLOAD_NAMES = ("pipeline-5k", "given-regions-1.8k")
# for profiling the matcher by hand: at run lengths the benchmark's time
# limit allows, its op_s drifts with the host (README "Workloads")
EXTRA_WORKLOADS = ("match-planted",)
SETUP_REPEATS = 3


def import_program():
    """Put the checkout's ``src`` and ``tests`` first on the path, or exit."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "shapecorr" / "__init__.py").is_file() or not (tests / "_meshes.py").is_file():
        sys.exit(f"run.py: {ROOT} holds no shapecorr sources (src/shapecorr, "
                 "tests/_meshes.py); run it from a checkout of the repository")
    sys.path[:0] = [str(HERE), str(src), str(tests)]
    import shapecorr
    if Path(shapecorr.__file__).resolve().parent != src / "shapecorr":
        sys.exit(f"run.py: imported shapecorr from {shapecorr.__file__}, not {src}")


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit}


def run_workload(name, seed, seconds, trace):
    import numpy as np

    import tracing
    from workloads import WORKLOADS, Verdict

    workload = WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(seed, workdir)
            setup_times.append(time.perf_counter() - t0)

        tracer = tracing.Tracer() if trace else None
        if tracer:
            tracer.install()
        check_rng = np.random.default_rng(seed)
        ops = []
        first_round_spans = None
        start = time.perf_counter()
        while True:
            for label, op in workload.round(state):
                first = len(tracer.spans) if tracer else 0
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                raised = False
                try:
                    out = op()
                except Exception:  # an op that raises is a failed op
                    traceback.print_exc()
                    raised = True
                seconds_taken = time.perf_counter() - t0
                cpu_s = time.process_time() - cpu0
                verdict = (Verdict(["raised an exception"]) if raised
                           else workload.check(state, out, check_rng))
                record = {"label": label, "seconds": seconds_taken, "cpu_s": cpu_s,
                          "ok": verdict.ok, "known_fault": verdict.known_fault}
                if tracer:
                    layer = tracing.op_metrics(tracing.rebase(tracer.spans, first),
                                               seconds_taken)
                    layer["matcher.planted_exact"] = verdict.info.get("planted_exact", 0)
                    layer["process.cpu_s"] = cpu_s
                    record["layers"] = layer
                ops.append(record)
                status = "ok" if verdict.ok else (
                    "FAILED (known fault): " if verdict.known_fault else "FAILED: ")
                print(f"[{name}] {label}: {seconds_taken:.3f} s {status}"
                      f"{'; '.join(verdict.problems)}", file=sys.stderr)
            if tracer and first_round_spans is None:
                first_round_spans = list(tracer.spans)
            if time.perf_counter() - start >= seconds:
                break
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_times = [r["seconds"] for r in ops]
    result = {
        "correct": all(r["ok"] or r["known_fault"] for r in ops),
        "attempted": len(ops),
        "failed": sum(not r["ok"] for r in ops),
    }
    if tracer:
        names = ops[0]["layers"].keys()
        result["metrics"] = {
            metric: median_metric([r["layers"][metric] for r in ops], unit_of(metric))
            for metric in names}
        result["metrics"].update({metric: {"value": value, "unit": "MB"}
                                  for metric, value in tracer.peak_metrics().items()})
        trace_path = OUT / f"trace-{name}-seed{seed}.json"
        trace_path.write_text(json.dumps({
            "workload": name, "seed": seed,
            "ops": [{k: r[k] for k in ("label", "seconds", "cpu_s", "ok", "layers")}
                    for r in ops],
            "first_round_spans": first_round_spans}))
        print(f"[{name}] traced op_s {statistics.median(op_times):.4f} s over "
              f"{len(ops)} ops; spans of the first round in {trace_path}",
              file=sys.stderr)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = {
            "op_s": median_metric(op_times, "s"),
            "setup_s": median_metric(setup_times, "s"),
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }
    return result


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric == "evaluate.mean_geo_err":
        return "diameter"
    if metric == "trace.outside_share":
        return "fraction"
    return "count"


def run_all(args):
    """Every workload in its own process; one result line per workload."""
    all_correct = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        metrics = ", ".join(f"{metric} {m['value']:.6g} {m['unit']}"
                            for metric, m in result["metrics"].items())
        print(f"{name}: {metrics}; attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {str(result['correct']).lower()}")
    return 0 if all_correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
