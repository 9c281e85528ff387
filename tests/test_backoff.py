"""Unit tests for repro.robustness.backoff."""

import numpy as np
import pytest

from repro.robustness.backoff import BackoffPolicy


def test_nominal_delays_grow_geometrically_and_cap():
    policy = BackoffPolicy(
        base_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0, max_retries=10
    )
    assert policy.nominal_delay_s(1) == pytest.approx(0.1)
    assert policy.nominal_delay_s(2) == pytest.approx(0.2)
    assert policy.nominal_delay_s(3) == pytest.approx(0.4)
    # Capped from here on.
    assert policy.nominal_delay_s(4) == pytest.approx(0.5)
    assert policy.nominal_delay_s(9) == pytest.approx(0.5)


def test_allows_is_one_based_and_bounded():
    policy = BackoffPolicy(max_retries=2)
    assert policy.allows(1)
    assert policy.allows(2)
    assert not policy.allows(3)
    with pytest.raises(ValueError):
        policy.allows(0)


def test_zero_retries_policy_never_allows():
    policy = BackoffPolicy(max_retries=0)
    assert not policy.allows(1)


def test_jitter_stays_within_band_and_is_mean_preserving():
    policy = BackoffPolicy(
        base_s=1.0, multiplier=1.0, max_delay_s=10.0, jitter=0.5, max_retries=5
    )
    rng = np.random.default_rng(7)
    draws = [policy.delay_s(1, rng) for _ in range(2000)]
    assert min(draws) >= 0.5
    assert max(draws) <= 1.5
    assert np.mean(draws) == pytest.approx(1.0, abs=0.02)


def test_jitter_is_deterministic_under_seeded_rng():
    policy = BackoffPolicy(jitter=0.5)
    a = [policy.delay_s(k, np.random.default_rng(3)) for k in (1, 2, 3)]
    b = [policy.delay_s(k, np.random.default_rng(3)) for k in (1, 2, 3)]
    assert a == b


def test_no_rng_means_nominal_delay():
    policy = BackoffPolicy(base_s=0.2, jitter=0.9, max_retries=3)
    assert policy.delay_s(1) == pytest.approx(policy.nominal_delay_s(1))


def test_budget_clips_delay():
    policy = BackoffPolicy(
        base_s=1.0, multiplier=1.0, max_delay_s=10.0, jitter=0.0, max_retries=5
    )
    assert policy.delay_s(1, budget_s=0.25) == pytest.approx(0.25)
    assert policy.delay_s(1, budget_s=-1.0) == 0.0
    assert policy.delay_s(1, budget_s=5.0) == pytest.approx(1.0)


def test_within_budget_refuses_spent_budget():
    policy = BackoffPolicy(max_retries=3)
    assert policy.within_budget(1)
    assert policy.within_budget(1, budget_s=0.5)
    assert not policy.within_budget(1, budget_s=0.0)
    assert not policy.within_budget(1, budget_s=-2.0)
    assert not policy.within_budget(4, budget_s=100.0)


def test_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        BackoffPolicy(base_s=-0.1)
    with pytest.raises(ValueError):
        BackoffPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        BackoffPolicy(max_delay_s=-1.0)
    with pytest.raises(ValueError):
        BackoffPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        BackoffPolicy(max_retries=-1)
