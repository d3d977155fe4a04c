"""Fixtures for cluster tests: real ``repro worker`` processes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture()
def start_worker():
    """Start ``python -m repro worker --store-dir ROOT ARGS...`` the way a user
    would; every process still running at teardown is killed."""
    procs = []

    def start(store_root, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--store-dir", str(store_root), *args],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        procs.append(proc)
        return proc

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
