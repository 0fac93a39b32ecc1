"""Per-rule fixtures: one violating snippet (asserting rule id and
line) and one conforming snippet for every repro-lint rule."""

from __future__ import annotations

import textwrap


def _src(code: str) -> str:
    return textwrap.dedent(code).lstrip("\n")


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------
class TestWallClock:
    def test_violation(self, make_tree):
        run = make_tree({
            "src/repro/service/sched.py": _src(
                """
                import time

                def stamp():
                    return time.time()
                """
            ),
        })
        findings = run(rules=["wall-clock"])
        assert [f.rule for f in findings] == ["wall-clock"]
        assert findings[0].line == 4
        assert findings[0].path == "src/repro/service/sched.py"

    def test_datetime_now_and_from_import(self, make_tree):
        run = make_tree({
            "src/repro/obs/clocky.py": _src(
                """
                from datetime import datetime
                from time import time as wall

                def a():
                    return datetime.now()

                def b():
                    return wall()
                """
            ),
        })
        assert len(run(rules=["wall-clock"])) == 2

    def test_conforming_monotonic(self, make_tree):
        run = make_tree({
            "src/repro/service/sched.py": _src(
                """
                import time

                def tick():
                    return time.perf_counter() + time.monotonic()
                """
            ),
        })
        assert run(rules=["wall-clock"]) == []

    def test_out_of_scope_module_is_ignored(self, make_tree):
        run = make_tree({
            "src/repro/physics/sim.py": _src(
                """
                import time

                def seed():
                    return time.time()
                """
            ),
        })
        assert run(rules=["wall-clock"]) == []


# ----------------------------------------------------------------------
# atomic-write
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_violation_write_text(self, make_tree):
        run = make_tree({
            "src/repro/service/store.py": _src(
                """
                def save(path, text):
                    path.write_text(text)
                """
            ),
        })
        findings = run(rules=["atomic-write"])
        assert [f.rule for f in findings] == ["atomic-write"]
        assert findings[0].line == 2

    def test_violation_open_and_json_dump(self, make_tree):
        run = make_tree({
            "src/repro/io/dump.py": _src(
                """
                import json

                def save(path, payload):
                    with open(path, "w") as fh:
                        json.dump(payload, fh)
                """
            ),
        })
        assert len(run(rules=["atomic-write"])) == 2

    def test_violation_every_numpy_save_writer(self, make_tree):
        run = make_tree({
            "src/repro/io/dump.py": _src(
                """
                import numpy as np

                def save(path, payload):
                    np.save(path, payload["a"])
                    np.savez(path, **payload)
                    np.savez_compressed(path, **payload)
                    np.savetxt(path, payload["a"])
                """
            ),
        })
        findings = run(rules=["atomic-write"])
        assert [f.line for f in findings] == [4, 5, 6, 7]

    def test_conforming_atomic_output_block(self, make_tree):
        run = make_tree({
            "src/repro/io/dump.py": _src(
                """
                import numpy as np

                from repro.utils.atomicio import atomic_output

                def save(path, payload):
                    with atomic_output(path) as tmp:
                        with open(tmp, "wb") as fh:
                            np.savez_compressed(fh, **payload)
                """
            ),
        })
        assert run(rules=["atomic-write"]) == []

    def test_read_mode_open_is_fine(self, make_tree):
        run = make_tree({
            "src/repro/service/load.py": _src(
                """
                def load(path):
                    with open(path) as fh:
                        return fh.read()
                """
            ),
        })
        assert run(rules=["atomic-write"]) == []


# ----------------------------------------------------------------------
# lock-blocking
# ----------------------------------------------------------------------
class TestLockBlocking:
    def test_violation_close_under_lock(self, make_tree):
        run = make_tree({
            "src/repro/backend/reg.py": _src(
                """
                import threading

                _LOCK = threading.RLock()
                _INSTANCES = {}

                def drop(name):
                    with _LOCK:
                        instance = _INSTANCES.pop(name, None)
                        instance.close()
                """
            ),
        })
        findings = run(rules=["lock-blocking"])
        assert [f.rule for f in findings] == ["lock-blocking"]
        assert findings[0].line == 9

    def test_violation_one_level_propagation(self, make_tree):
        run = make_tree({
            "src/repro/service/svc.py": _src(
                """
                import threading

                _LOCK = threading.Lock()

                def _load(path):
                    return path.read_text()

                def peek(path):
                    with _LOCK:
                        return _load(path)
                """
            ),
        })
        findings = run(rules=["lock-blocking"])
        assert [f.rule for f in findings] == ["lock-blocking"]
        assert findings[0].line == 10
        assert "_load" in findings[0].message

    def test_violation_cross_module_propagation(self, make_tree):
        run = make_tree({
            "src/repro/service/jobs2.py": _src(
                """
                def load_record(path):
                    return path.read_text()
                """
            ),
            "src/repro/service/svc.py": _src(
                """
                import threading

                from repro.service import jobs2 as jobstore

                _cond = threading.Condition()

                def wait(path):
                    with _cond:
                        return jobstore.load_record(path)
                """
            ),
        })
        findings = run(rules=["lock-blocking"])
        assert [
            (f.path, f.line) for f in findings
        ] == [("src/repro/service/svc.py", 9)]

    def test_conforming_evict_then_close_outside(self, make_tree):
        run = make_tree({
            "src/repro/backend/reg.py": _src(
                """
                import threading

                _LOCK = threading.RLock()
                _INSTANCES = {}

                def drop(name):
                    with _LOCK:
                        instance = _INSTANCES.pop(name, None)
                    if instance is not None:
                        instance.close()
                """
            ),
        })
        assert run(rules=["lock-blocking"]) == []

    def test_condition_wait_on_held_lock_is_exempt(self, make_tree):
        run = make_tree({
            "src/repro/service/q.py": _src(
                """
                import threading

                class Q:
                    def __init__(self):
                        self._cond = threading.Condition()

                    def wait(self, timeout):
                        with self._cond:
                            self._cond.wait(timeout=timeout)
                            self._cond.notify_all()
                """
            ),
        })
        assert run(rules=["lock-blocking"]) == []


# ----------------------------------------------------------------------
# lock-order
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_violation_cycle(self, make_tree):
        run = make_tree({
            "src/repro/service/two.py": _src(
                """
                import threading

                _A_LOCK = threading.Lock()
                _B_LOCK = threading.Lock()

                def ab():
                    with _A_LOCK:
                        with _B_LOCK:
                            pass

                def ba():
                    with _B_LOCK:
                        with _A_LOCK:
                            pass
                """
            ),
        })
        findings = run(rules=["lock-order"])
        assert findings
        assert {f.rule for f in findings} == {"lock-order"}

    def test_conforming_consistent_order(self, make_tree):
        run = make_tree({
            "src/repro/service/two.py": _src(
                """
                import threading

                _A_LOCK = threading.Lock()
                _B_LOCK = threading.Lock()

                def ab():
                    with _A_LOCK:
                        with _B_LOCK:
                            pass

                def ab_again():
                    with _A_LOCK:
                        with _B_LOCK:
                            pass
                """
            ),
        })
        assert run(rules=["lock-order"]) == []


# ----------------------------------------------------------------------
# registry-reachable
# ----------------------------------------------------------------------
class TestRegistryReachable:
    def test_unimported_registration(self, make_tree):
        run = make_tree({
            "src/repro/solvers/extra.py": _src(
                """
                from repro.api import register_solver

                @register_solver("extra")
                class ExtraSolver:
                    pass
                """
            ),
        })
        findings = run(rules=["registry-reachable"])
        assert [f.rule for f in findings] == ["registry-reachable"]
        assert findings[0].line == 3
        assert "extra" in findings[0].message

    def test_unimported_direct_registration(self, make_tree):
        run = make_tree({
            "src/repro/solvers/extra.py": _src(
                """
                from repro.api import register_solver
                from repro.solvers.impl import ExtraSolver

                register_solver("extra")(ExtraSolver)
                """
            ),
        })
        findings = run(rules=["registry-reachable"])
        assert [f.line for f in findings] == [4]
        assert "extra" in findings[0].message

    def test_imported_registration_is_fine(self, make_tree):
        run = make_tree({
            "src/repro/solvers/extra.py": _src(
                """
                from repro.api import register_solver

                @register_solver("extra")
                class ExtraSolver:
                    pass
                """
            ),
            "src/repro/solvers/__init__.py": _src(
                """
                from repro.solvers import extra  # noqa: F401
                """
            ),
        })
        assert run(rules=["registry-reachable"]) == []

    def test_hard_coded_cli_choices(self, make_tree):
        run = make_tree({
            "src/repro/cli.py": _src(
                """
                import argparse

                def build_parser():
                    p = argparse.ArgumentParser()
                    p.add_argument("--backend", choices=["numpy"])
                    return p
                """
            ),
        })
        findings = run(rules=["registry-reachable"])
        assert [f.rule for f in findings] == ["registry-reachable"]
        assert findings[0].line == 5

    def test_registry_driven_cli_choices(self, make_tree):
        run = make_tree({
            "src/repro/cli.py": _src(
                """
                import argparse

                from repro.backend import backend_names

                def build_parser():
                    p = argparse.ArgumentParser()
                    p.add_argument("--backend", choices=backend_names())
                    return p
                """
            ),
        })
        assert run(rules=["registry-reachable"]) == []


# ----------------------------------------------------------------------
# telemetry-guard
# ----------------------------------------------------------------------
class TestTelemetryGuard:
    def test_violation_unguarded_count(self, make_tree):
        run = make_tree({
            "src/repro/core/hot.py": _src(
                """
                from repro.obs import telemetry as _obs

                def work():
                    tel = _obs.current()
                    tel.count("work.calls")
                """
            ),
        })
        findings = run(rules=["telemetry-guard"])
        assert [f.rule for f in findings] == ["telemetry-guard"]
        assert findings[0].line == 5

    def test_conforming_guards(self, make_tree):
        run = make_tree({
            "src/repro/core/hot.py": _src(
                """
                from repro.obs import telemetry as _obs

                def guarded_if():
                    tel = _obs.current()
                    if tel.enabled:
                        tel.count("a")

                def early_return():
                    tel = _obs.current()
                    if not tel.enabled:
                        return compute()
                    tel.add({"b": 1})
                    return compute()

                def helper(tel, dt):
                    # parameter receivers are the caller's problem
                    tel.add({"c": dt})
                """
            ),
        })
        assert run(rules=["telemetry-guard"]) == []

    def test_constructed_recorder_is_exempt(self, make_tree):
        run = make_tree({
            "src/repro/core/hot.py": _src(
                """
                from repro.obs.telemetry import Telemetry

                def record():
                    tel = Telemetry()
                    tel.count("x")
                    return tel
                """
            ),
        })
        assert run(rules=["telemetry-guard"]) == []
