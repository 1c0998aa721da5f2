"""The declarative smoke table and its runner."""

import os
import subprocess
import sys

from repro.workloads import smoke

_TINY_ALLTOALL = dict(num_ranks=4, degree=1, rounds=2)


def test_table_names_every_ci_smoke():
    assert [entry.name for entry in smoke.SMOKES] == [
        "sweep", "faulty", "halo", "storm", "multijob", "alltoall", "congestion"
    ]


def test_alltoall_entry_passes_through_the_runner(capsys):
    (entry,) = [entry for entry in smoke.SMOKES if entry.name == "alltoall"]
    assert smoke.main([entry]) == 0
    assert "alltoall smoke OK" in capsys.readouterr().out


def test_failing_check_fails_the_runner_and_is_named(capsys):
    doomed = smoke.Smoke(
        name="doomed",
        runs={"fifo": smoke.Run("alltoall", _TINY_ALLTOALL, nic="baseline")},
        checks=(
            ("rounds complete", lambda o: len(o.fifo.result.latencies_ns) == 2),
            ("median is negative", lambda o: o.fifo.result.median_ns < 0),
        ),
    )
    assert smoke.main([doomed]) == 1
    out = capsys.readouterr().out
    assert "FAIL doomed: check failed: median is negative" in out
    assert "rounds complete" not in out
    assert "smoke OK" not in out


def test_raising_run_fails_the_runner(capsys):
    broken = smoke.Smoke(
        name="broken",
        runs={"bad": smoke.Run("alltoall", dict(num_ranks=1), nic="baseline")},
        checks=(),
    )
    assert smoke.main([broken]) == 1
    assert "FAIL broken: a run raised" in capsys.readouterr().out


def test_package_import_leaves_smoke_unloaded():
    code = "import sys, repro.workloads; print('repro.workloads.smoke' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"
