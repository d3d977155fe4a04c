"""Each entry point imports only what it runs.

The facades (``repro``, ``repro.core``, ``repro.common``, ``repro.store``)
resolve their names on first access, the command line's handlers import what
they run, and the simulation stack loads at the first simulation.  Every
check runs in a fresh interpreter, because this test process has long since
imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.core

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Packages and modules no set-up path may load: the simulators, their
#: timing kernel, traces and program models, and the layers only some
#: commands run.
HEAVY = (
    "repro.dva",
    "repro.refarch",
    "repro.engine",
    "repro.trace",
    "repro.workloads",
    "repro.service",
    "repro.core.figures",
    "repro.core.pool",
    "repro.common.intervals",
)

_REPORT = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"

#: Runs ``python -m repro ARGS...`` in this interpreter, then reports.
_CLI = """
import runpy, sys
sys.argv = ["repro", *sys.argv[1:]]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
"""


def _modules_after(code, *args, tmp_path):
    """The ``sys.modules`` names a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "store"))
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code + _REPORT, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return set(json.loads(completed.stdout.splitlines()[-1]))


def _heavy(modules):
    return sorted(
        name for name in modules if any(name == h or name.startswith(h + ".") for h in HEAVY)
    )


@pytest.mark.parametrize(
    "code, args",
    [
        pytest.param(
            "import sys\n"
            "import repro.core.cli\n"
            "from repro.core.experiment import Runner, SweepSpec\n"
            "Runner(store=sys.argv[1])\n"
            "SweepSpec(programs='trfd,dyfesm', latencies='1,50', architectures='ref,dva@lanes=2',"
            " axes={'ports': (1, 2)})\n",
            ("{tmp}/probe-store",),
            id="set-up probe",
        ),
        pytest.param("import repro\n", (), id="import repro"),
        pytest.param(_CLI, ("--help",), id="repro --help"),
        pytest.param(_CLI, ("cache", "stats"), id="repro cache stats"),
    ],
)
def test_set_up_paths_load_no_simulation_stack(code, args, tmp_path):
    args = [arg.format(tmp=tmp_path) for arg in args]
    modules = _modules_after(code, *args, tmp_path=tmp_path)
    assert "repro" in modules
    assert _heavy(modules) == []


def test_the_server_loads_the_simulators_before_any_worker_forks(tmp_path):
    # Workers fork only after the address is announced, so whatever the
    # server holds at its announcement every worker inherits.
    code = (
        "import json, os, signal, sys\n"
        "from repro.service import serve\n"
        "def announce(line):\n"
        "    if line.startswith('serving on'):\n"
        "        print(json.dumps(sorted(sys.modules)), flush=True)\n"
        "        os.kill(os.getpid(), signal.SIGINT)\n"
        "serve(port=0, store=sys.argv[1], jobs=1, announce=announce)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    completed = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "store")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    at_announcement = set(json.loads(completed.stdout.splitlines()[0]))
    assert {"repro.dva.simulator", "repro.refarch.simulator"} <= at_announcement
    assert "repro.workloads.perfect_club" in at_announcement


@pytest.mark.parametrize("package", [repro, repro.core], ids=lambda package: package.__name__)
def test_dir_lists_every_exported_name(package):
    assert set(package.__all__) <= set(dir(package))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Simulator'"):
        repro.core.Simulator  # noqa: B018
