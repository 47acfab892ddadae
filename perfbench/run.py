"""taskgate benchmark: one workload per run, timed from outside the library.

    python3 perfbench/run.py --workload {toy,continual,conv} --seed N \\
        --seconds S --trace {0,1} [--fault] [--tiny]

Run from the repository root; taskgate is imported from ./src. The workload
repeats its iteration for about S seconds in this single process (a closed
loop: each optimizer step waits for the one before it), with BLAS on one
thread. Times are rescaled
by a reference job run around each timed segment (machine.py); the detail
line also gives them as measured. --trace 0 prints the
end-to-end metrics, measured with tracing off; --trace 1 runs S/2 seconds
untraced, then S/2 seconds with every public taskgate function wrapped, and
prints the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}, where attempted and
failed count correctness checks. Earlier lines give the environment, the
workload-specific numbers and the metrics as text.

--fault perturbs one completed task's weight after training (continual and
conv), to show that the checks catch it. --tiny shrinks every workload for
the self-tests.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

# BLAS reads its thread count once, when numpy loads it, so this must come
# before anything imports numpy (machine.py does)
BLAS_THREADS = 1  # at most nproc; 1 keeps BLAS from competing with itself
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("train_samples_per_s", "1/s"),
              ("batch_ms_p50", "ms"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["toy", "continual", "conv"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--fault", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_taskgate():
    """Import taskgate from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import taskgate
    where = os.path.dirname(os.path.abspath(taskgate.__file__))
    if where != os.path.join(SRC, "taskgate"):
        raise ImportError(f"taskgate imported from {where}, not {SRC}")
    return taskgate


def setup_seconds(args, reference):
    """Median time from starting a fresh interpreter to ready-to-train, as
    measured and rescaled by the reference job run around each start."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "1"] + (["--tiny"] if args.tiny else [])
    times, scaled = [], []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        before = reference()
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as probe:
            line = probe.stdout.readline()
            ready = time.perf_counter()
            probe.stdout.read()
            if probe.wait() != 0 or line.strip() != "ready":
                raise RuntimeError("setup probe failed")
        times.append(ready - start)
        scaled.append(times[-1] * 2 * reference.nominal_s / (before + reference()))
    return statistics.median(scaled), statistics.median(times)


def run_loop(workload, checks, seconds, iteration_cls):
    """Iterate until the next iteration would overrun `seconds`."""
    iters = []
    deadline = time.perf_counter() + seconds
    while True:
        it = iteration_cls(workload.reference)
        # tapes are reference cycles, freed only by the cyclic collector; a
        # full collection, untimed, before every iteration starts each one
        # from the same collector state, so that no memory, collection pause
        # or collector phase carries in from setup or an earlier iteration
        gc.collect()
        start = time.perf_counter()
        workload.iterate(it, checks)
        it.elapsed = time.perf_counter() - start
        iters.append(it)
        if time.perf_counter() + it.elapsed > deadline:
            return iters


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot say."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                query = getattr(lib, symbol)
                query.restype = ctypes.c_int
                return query()
    return None


def environment(args, np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    package = os.path.join(SRC, "taskgate")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "blas_threads_set": BLAS_THREADS,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "src_taskgate_lines": src_lines,
            "cpus": sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None}


def main(argv=None):
    args = parse_args(argv)
    try:
        taskgate = import_taskgate()
    except ImportError as exc:
        print(f"perfbench: cannot import taskgate from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import numpy as np
    import workloads
    from per_layer import PER_LAYER, layer_metrics, make_tracer, top_self

    workload_cls = workloads.WORKLOADS[args.workload]
    if args.fault and workload_cls is workloads.Toy:
        print("perfbench: --fault applies to continual and conv", file=sys.stderr)
        return 2
    if args.setup_probe:
        workload_cls(args.seed, tiny=args.tiny, workdir=OUT)
        print("ready", flush=True)
        return 0

    os.makedirs(OUT, exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the whole run, setup probes included: the reference
        # jobs then run where the workload runs, and nothing migrates
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps({"env": environment(args, np)}))
    setup_s, setup_s_wall = setup_seconds(args, workload_cls.reference)
    workload = workload_cls(args.seed, tiny=args.tiny, workdir=OUT,
                            fault=args.fault)
    checks = workloads.Checks()
    iters, traced = [], []
    tracer = None
    try:
        if not args.trace:
            iters = run_loop(workload, checks, args.seconds, workloads.Iteration)
        else:
            iters = run_loop(workload, checks, args.seconds / 2,
                             workloads.Iteration)
            tracer = make_tracer(taskgate)
            workload.untraced = tracer.paused
            try:
                traced = run_loop(workload, checks, args.seconds / 2,
                                  workloads.Iteration)
            finally:
                tracer.uninstall()
                workload.untraced = workloads.nullcontext
        extra = workload.finish(checks)
    except Exception:
        traceback.print_exc()
        checks.expect(False, "exception: " + traceback.format_exc(limit=1))
        extra = {}
        if not iters or (args.trace and not traced):
            return 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end, detail = workload.metrics(iters)
    end_to_end.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    detail.update(extra, setup_s_wall=setup_s_wall, iterations=len(iters),
                  checks=checks.attempted,
                  fail_ratio=checks.failed / max(checks.attempted, 1),
                  failures=checks.failures)
    if args.trace:
        values = layer_metrics(tracer, traced, iters, workload)
        units = dict(PER_LAYER)
        detail.update(traced_iterations=len(traced),
                      top_self_time=top_self(tracer),
                      trace_attributed_s=values.pop("trace.attributed_s"),
                      trace_timed_s=values.pop("trace.timed_s"))
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.npz"))
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name, _ in PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"detail": detail}))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
