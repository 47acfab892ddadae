"""Self-tests of the benchmark: python3 -m pytest -q perfbench/tests

Each workload runs at --tiny size for about a second, so the suite takes
well under a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("toy", "continual", "conv")
# self time of every span plus the tracer's own bookkeeping must account for
# the traced segments' wall time, clocked by the benchmark, to within this
# share; the rest is the benchmark's glue between calls and wrapper entry
SELF_TIME_TOLERANCE = 0.05
# slack for a spin loop's span over the time it spins
SPIN_SLACK_S = 0.01

SPIN_SOURCE = """
import time

def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass

def inner():
    _spin(0.02)

def outer():
    _spin(0.03)
    inner()
    inner()
"""

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, "--seed", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line)["detail"] for line in lines
                  if line.startswith('{"detail"'))
    return json.loads(lines[-1]), detail, lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_and_passes_checks(workload):
    out, detail, lines = result(run("--workload", workload, "--seconds", "1",
                                    "--trace", "0", "--tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert detail["fail_ratio"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for name, unit in expected.items():
        assert out["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_its_wall_time(workload):
    out, detail, _ = result(run("--workload", workload, "--seconds", "2",
                                "--trace", "1", "--tiny"))
    assert out["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    timed, attributed = detail["trace_timed_s"], detail["trace_attributed_s"]
    assert abs(attributed - timed) <= SELF_TIME_TOLERANCE * timed
    values = {k: v["value"] for k, v in out["metrics"].items()}
    assert values["tensor.nodes_per_batch"] > 0
    if workload == "toy":
        # the toy trains task 0 only, so nothing is ever nullified
        assert values["layers.grad_nullify.calls_per_batch"] == 0
    else:
        assert values["layers.grad_nullify.calls_per_batch"] > 0
        assert values["forgetting.entries_zeroed"] > 0
    if workload == "conv":
        assert detail["top_self_time"][0][0] == "tensor.conv2d"


def test_tracer_self_time_matches_known_work():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        from spans import Tracer
    finally:
        del sys.path[0]
    module = types.ModuleType("spinners")
    exec(SPIN_SOURCE, vars(module))
    tracer = Tracer([module])
    tracer.install()
    try:
        module.outer()
    finally:
        tracer.uninstall()
    tab = tracer.table()
    own = {}
    for nid, value in zip(tab["name"], tab["self"]):
        own.setdefault(tracer.names[nid], []).append(value)
    assert sorted(own) == ["spinners.inner", "spinners.outer"]
    assert len(own["spinners.inner"]) == 2
    assert all(0.02 <= s <= 0.02 + SPIN_SLACK_S for s in own["spinners.inner"])
    (outer,) = own["spinners.outer"]
    assert 0.03 <= outer <= 0.03 + SPIN_SLACK_S
    assert module.outer.__name__ == "outer" and not hasattr(module.outer,
                                                             "__wrapped__")


def test_tracer_restores_every_wrapped_attribute(tmp_path):
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    try:
        import taskgate
        import workloads
        from per_layer import make_tracer

        workload = workloads.Continual(0, tiny=True, workdir=str(tmp_path))
        tracer = make_tracer(taskgate)
        patched = tracer.patched()
        try:
            assert len(patched) > 50
            assert all(vars(owner)[attr] is not original
                       for owner, attr, original in patched)
            workload.untraced = tracer.paused
            workload.iterate(workloads.Iteration(workload.reference),
                             workloads.Checks())
        finally:
            tracer.uninstall()
            workload.finish(workloads.Checks())
        assert all(vars(owner)[attr] is original
                   for owner, attr, original in patched)
        assert len(tracer.start) > 0
    finally:
        del sys.path[:2]


@pytest.mark.parametrize("workload", ("continual", "conv"))
def test_fault_injection_is_caught(workload):
    out, detail, _ = result(run("--workload", workload, "--seconds", "1",
                                "--trace", "0", "--tiny", "--fault"))
    assert not out["correct"]
    assert out["failed"] > 0 and detail["fail_ratio"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "toy", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
