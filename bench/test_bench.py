"""Checks of the benchmark harness itself, at ``--smoke`` sizes.

Collected by tier-1 (``pytest.ini`` has no ``testpaths``).  Nothing
here asserts a timing: the tests pin the BENCHMARK.json contract, the
agreement between that file and what the harness prints, exact
repeatability of the count metrics, span bookkeeping, the failure
verdict, and that a run leaves nothing behind.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("peak_rank_bytes", "message_bytes", "cost_reduction_db")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}$")


def _shm():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload once traced and once untraced, as the driver
    would call it: ``{(workload, trace): (last stdout line, envelope)}``."""
    out = tmp_path_factory.mktemp("bench")
    shm_before = _shm()
    runs = {}
    for workload in WORKLOADS:
        for trace in (1, 0):
            envelope = out / f"{workload}-{trace}.json"
            done = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"),
                 "--workload", workload, "--seed", "3", "--smoke",
                 "--trace", str(trace), "--json", str(envelope)],
                cwd=out, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            last = json.loads(done.stdout.strip().splitlines()[-1])
            runs[workload, trace] = (last, json.loads(envelope.read_text()))
    runs["shm_leaked"] = _shm() - shm_before
    return runs


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"]
    assert all(isinstance(c, str) and len(c) <= 200 for c in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = (
        WORKLOADS
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # The driver's time cap: 4 + 22 x workloads runs in 3420 s.  A run is
    # the timed region plus three set-ups of at most a repetition each.
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (SPEC["run_seconds"] + 14) <= 3420
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_harness_and_benchmark_json_name_the_same_things(smoke):
    from bench import workloads

    assert list(workloads.BY_NAME) == WORKLOADS
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            last, envelope = smoke[workload, trace]
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] is True and last["failed"] == 0
            assert isinstance(last["attempted"], int) and last["attempted"] >= 1
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            assert {n: m["unit"] for n, m in last["metrics"].items()} == declared
            assert all(
                isinstance(m["value"], (int, float)) for m in last["metrics"].values()
            )
            assert envelope["failed_frac"] == 0
            for key in ("git_sha", "nproc", "python", "numpy", "scipy", "seed", "sizes"):
                assert key in envelope


def test_count_metrics_repeat_exactly(smoke):
    for workload in WORKLOADS:
        first, second = (smoke[workload, t][1]["end_to_end"] for t in (1, 0))
        for name in EXACT:
            assert first[name]["value"] == second[name]["value"], (workload, name)
            assert first[name]["value"] > 0
        costs = [smoke[workload, t][1]["final_costs"] for t in (1, 0)]
        assert costs[0] == costs[1] and costs[0]


def test_self_times_add_up_to_each_operation_root(smoke):
    from bench.spans import ROOT_NAME

    for workload in WORKLOADS:
        trace = ROOT / smoke[workload, 1][1]["trace_file"]
        events = json.loads(trace.read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        # Calls outside every operation (dataset synthesis, result
        # checks) carry no operation and are counted nowhere.
        events = [e for e in events if e["args"]["op"] is not None]
        children = defaultdict(float)
        for e in events:
            if e["args"]["parent"] is not None:
                children[e["args"]["parent"]] += e["dur"]
        self_by_op = defaultdict(float)
        roots = {}
        for e in events:
            self_by_op[e["args"]["op"]] += e["dur"] - children[e["args"]["id"]]
            if e["name"] == ROOT_NAME:
                roots[e["args"]["op"]] = e["dur"]
            else:
                # A call of an operation hangs off a span of that operation.
                assert e["args"]["parent"] is not None
        assert roots
        for op, duration in roots.items():
            assert self_by_op[op] == pytest.approx(duration, rel=0.01), (workload, op)


def test_service_spans_cross_threads(smoke):
    """A service job's root has children on the submitting thread and on
    a worker thread — the attribution by job directory works."""
    events = json.loads(
        (ROOT / smoke["service-burst", 1][1]["trace_file"]).read_text()
    )["traceEvents"]
    by_id = {e["args"]["id"]: e for e in events}
    tids = defaultdict(set)
    for e in events:
        parent = by_id.get(e["args"]["parent"])
        if parent is not None and parent["name"] == "bench.operation":
            tids[parent["args"]["op"]].add(e["tid"])
    jobs = [op for op in tids if op.startswith("t0-j")]
    assert jobs and all(len(tids[op]) == 2 for op in jobs)


def test_wrong_digest_counts_as_a_failed_operation(tmp_path, monkeypatch):
    from bench import workloads

    reference = workloads.Reference(history=(1.0, 0.1), digest="a" * 64, seconds=0.0)
    good = workloads.Outcome(
        op="x", latency_s=1.0, history=(1.0, 0.1), digest="a" * 64, finite=True
    )
    assert workloads.failure_reason(good, reference) is None
    for planted, reason in (
        ({"digest": "b" * 64}, "differs"),
        ({"history": (1.0, 0.11)}, "differs"),
        ({"history": (1.0, 0.3)}, "converge"),
        ({"finite": False}, "non-finite"),
        ({"state": "FAILED"}, "settled FAILED"),
        ({"error": "Traceback\nValueError: boom"}, "raised"),
    ):
        verdict = workloads.failure_reason(dataclasses.replace(good, **planted), reference)
        assert verdict is not None and reason in verdict

    # Planted in a whole run: the second repetition's volume digests wrong.
    real = workloads.volume_digest
    calls = []

    def digest(volume):
        calls.append(1)
        return "0" * 64 if len(calls) == 3 else real(volume)

    monkeypatch.setattr(workloads, "volume_digest", digest)
    run = workloads.run_workload(
        workloads.BY_NAME["gd-kernel"], seed=3, seconds=0.0, trace=False,
        smoke=True, scratch=tmp_path / "scratch",
    )
    assert (run.attempted, run.failed) == (2, 1)
    assert run.failures[0][0] == "r1-op0"


def test_a_run_leaves_nothing_behind(smoke):
    assert not smoke["shm_leaked"]
    assert multiprocessing.active_children() == []
    for workload in WORKLOADS:
        for trace in (0, 1):
            hygiene = smoke[workload, trace][1]["hygiene"]
            assert hygiene == {"leaked_processes": 0, "leaked_shm_segments": []}
    assert not list((ROOT / "bench" / "out").glob("run-*"))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
