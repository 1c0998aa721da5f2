"""The runner's host-speed normalisation and worker hash seeds."""

import itertools

import calib
import run


def test_calibration_kernel_does_fixed_work():
    assert calib.kernel() == calib.CHECKSUM
    assert calib.calibrate() > 0


def test_hash_seeds_are_valid_distinct_and_repeatable():
    seeds = [run.hash_seed(seed, worker) for seed in range(10) for worker in range(run.WORKERS)]
    assert all(1 <= s <= 2**32 - 1 for s in seeds)
    assert len(set(seeds)) == len(seeds)
    assert seeds == [run.hash_seed(seed, worker) for seed in range(10) for worker in range(run.WORKERS)]


def test_repeat_scales_each_block_by_the_calibration_around_it(monkeypatch):
    kernel_times = iter([0.1, 0.3, 0.2, 0.2])
    monkeypatch.setattr(calib, "calibrate", lambda: next(kernel_times))
    monkeypatch.setattr(run, "CALIBRATE_EVERY_S", 0.0)
    counter = itertools.count()

    def once():
        return run.Sample(wall_s=1.0, setup_s=0.1, run_s=0.9, events=next(counter),
                          delivered=1, latencies_ns=[])

    samples = run.repeat(once, minimum=3, until=0.0)
    assert [s.events for s in samples] == [0, 1, 2]
    assert [s.calib_s for s in samples] == [0.2, 0.25, 0.2]
    assert [s.scale for s in samples] == [calib.NOMINAL_S / c for c in (0.2, 0.25, 0.2)]


def test_repeat_stops_at_a_failed_run(monkeypatch):
    monkeypatch.setattr(calib, "calibrate", lambda: calib.NOMINAL_S)
    results = iter([run.Sample(1.0, 0.1, 0.9, 5, 1, []), None])
    samples = run.repeat(lambda: next(results), minimum=3, until=0.0)
    assert len(samples) == 1 and samples[0].scale == 1.0
