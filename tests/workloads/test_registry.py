"""Every registered workload honours the one workload contract.

For one tiny point per ``BENCHMARKS`` entry: the run returns a
:class:`Result`, serial and fanned-out sweeps give identical rows, and
the row is exactly the result's median, columns and params.
"""

import pytest

from repro.workloads.result import Result
from repro.workloads.sweep import BENCHMARKS, SweepSpec, nic_preset, run_sweep

#: one small point per registered workload
TINY = {
    "preposted": dict(queue_length=4, traverse_fraction=1.0, iterations=2, warmup=1),
    "unexpected": dict(queue_length=4, iterations=2, warmup=1),
    "halo": dict(ranks=4, topology="torus3d", iterations=1, warmup=1),
    "storm": dict(workers=2, messages_per_worker=32, window=4),
    "alltoall": dict(num_ranks=4, degree=2, rounds=2),
    "multijob": dict(iterations=4, warmup=1, hog_messages=16),
}


def test_every_workload_has_a_tiny_point():
    assert set(TINY) == set(BENCHMARKS)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_registry_contract(name):
    workload = BENCHMARKS[name]
    spec = SweepSpec(
        benchmark=name, presets=("baseline",), axes=(), fixed=tuple(TINY[name].items())
    )
    serial = run_sweep(spec)
    assert run_sweep(spec, workers=2) == serial
    (row,) = serial
    result = workload.run(nic_preset("baseline"), workload.params_cls(**TINY[name]))
    assert isinstance(result, Result)
    assert (row.benchmark, row.preset) == (name, "baseline")
    assert row.latency_ns == result.median_ns
    assert row.columns == result.columns()
    assert workload.params_cls(**row.params) == result.params
