"""Workload inputs come from the seed alone."""

import itertools
from collections import Counter

import numpy as np

from bench import workloads
from repro.serve.loadgen import DEFAULT_PRIORITY_MIX


def test_same_seed_gives_the_same_arrivals_scenes_and_priorities():
    first = workloads.open_loop_schedule(7, "serve.arrivals", 300, 240.0, ("mic", "ship"))
    again = workloads.open_loop_schedule(7, "serve.arrivals", 300, 240.0, ("mic", "ship"))
    other = workloads.open_loop_schedule(8, "serve.arrivals", 300, 240.0, ("mic", "ship"))
    assert first == again
    assert first != other


def test_schedule_is_sorted_balanced_and_follows_the_priority_mix():
    n, rate = 400, 200.0
    scenes = ("mic", "ship", "lego", "chair")
    schedule = workloads.open_loop_schedule(3, "fleet.arrivals", n, rate, scenes)
    times = [t for t, _, _ in schedule]
    assert times == sorted(times)
    assert 0.0 <= times[0] and times[-1] < n / rate
    assert Counter(s for _, s, _ in schedule) == {name: n // len(scenes) for name in scenes}
    expected = {p: round(n * w) for p, w in DEFAULT_PRIORITY_MIX}
    assert Counter(p for _, _, p in schedule) == expected


def test_apportion_splits_exactly():
    assert workloads.apportion(10, [0.5, 0.3, 0.2]) == [5, 3, 2]
    assert sum(workloads.apportion(7, [0.5, 0.3, 0.2])) == 7


def test_same_seed_gives_the_same_views():
    poses = workloads.view_poses(5, "train.holdout", 3)
    again = workloads.view_poses(5, "train.holdout", 3)
    assert all(np.array_equal(a, b) for a, b in zip(poses, again))
    other = workloads.view_poses(6, "train.holdout", 3)
    assert not np.array_equal(poses[0], other[0])


def test_camera_stream_prefix_does_not_depend_on_length():
    short = list(itertools.islice(workloads.camera_stream(2, "render.views", 64), 3))
    long = list(itertools.islice(workloads.camera_stream(2, "render.views", 64), 10))
    assert all(np.array_equal(a.c2w, b.c2w) for a, b in zip(short, long))
    assert short[0].width == short[0].height == 64


def test_streams_of_one_seed_are_independent():
    a = workloads.rng(1, "render.views").uniform(size=4)
    b = workloads.rng(1, "train.views").uniform(size=4)
    assert not np.array_equal(a, b)
