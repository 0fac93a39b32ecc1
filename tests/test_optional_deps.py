"""``cupy``, ``h5py`` and ``mpi4py`` are optional: every ``repro`` module
imports on a machine without them, and the features that need them say
so only when used.

The check runs in a fresh interpreter with the three blocked in
``sys.modules`` (an import of a blocked name raises ``ImportError``), so
it sees what an install without them sees, indirect imports included.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = textwrap.dedent(
    """
    import importlib, pkgutil, sys
    from pathlib import Path

    for name in ("cupy", "h5py", "mpi4py"):
        sys.modules[name] = None

    import repro

    def fail(name):
        raise

    for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail):
        importlib.import_module(info.name)

    from repro.backend import available_backend_names
    from repro.data import StoreUnavailableError, open_store

    assert "cupy" not in available_backend_names()
    path = Path(sys.argv[1]) / "store.h5"
    path.touch()
    try:
        open_store(path)
    except StoreUnavailableError:
        pass
    else:
        raise AssertionError("opening an .h5 store did not raise")
    """
)


def import_everything_without_optional_deps(src: Path, workdir: Path):
    return subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(workdir)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_module_imports_without_optional_deps(tmp_path):
    run = import_everything_without_optional_deps(SRC, tmp_path)
    assert run.returncode == 0, run.stderr


def test_an_eager_optional_import_fails_the_check(tmp_path):
    shutil.copytree(
        SRC / "repro", tmp_path / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    (tmp_path / "repro" / "backend" / "gpu.py").write_text("import cupy\n")
    run = import_everything_without_optional_deps(tmp_path, tmp_path)
    assert run.returncode != 0
    assert "import of cupy halted" in run.stderr
