"""Baseline platform specs and analytical models."""

import numpy as np
import pytest

from repro.baselines import (
    ALL_BASELINES,
    AcceleratorModel,
    GpuModel,
    GpuModelConfig,
    INSTANT_3D,
    JETSON_XNX,
    METAVRAIN,
    NEUREX_EDGE,
    RT_NERF_EDGE,
    RTX_2080TI,
    TABLE3_BASELINES,
    TABLE4_BASELINES,
)
from repro.sim.trace import synthetic_trace


@pytest.fixture
def reference_trace(rng):
    return synthetic_trace(4000, 13.0, 0.3, rng)


def test_registry_covers_all_papers():
    expected = {
        "Nvidia Jetson Nano", "Nvidia Jetson XNX", "Nvidia RTX 2080 Ti",
        "RT-NeRF (Edge)", "RT-NeRF (Cloud)", "Instant-3D", "NeuRex (Edge)",
        "NeuRex (Server)", "MetaVRain", "NGPC", "Gen-NeRF",
    }
    assert set(ALL_BASELINES) == expected


def test_table3_key_figures():
    assert RT_NERF_EDGE.inference_mps == 288.0
    assert INSTANT_3D.training_mps == 32.0
    assert NEUREX_EDGE.inference_mps == 112.0
    assert METAVRAIN.silicon_prototype
    assert len(TABLE3_BASELINES) == 6


def test_table4_throughput_per_watt():
    assert RTX_2080TI.inference_mps_per_watt == pytest.approx(0.4)
    assert RTX_2080TI.training_mps_per_watt == pytest.approx(0.1)
    assert len(TABLE4_BASELINES) == 3


def test_throughput_per_watt_none_without_power():
    assert RT_NERF_EDGE.inference_mps_per_watt is None


def test_gpu_model_anchored_at_reference(reference_trace):
    gpu = GpuModel(RTX_2080TI, GpuModelConfig(reference_samples_per_ray=13.0))
    mps = gpu.throughput_mps(reference_trace)
    assert mps == pytest.approx(100.0, rel=0.10)


def test_gpu_model_efficiency_monotone_in_density(rng):
    gpu = GpuModel(RTX_2080TI)
    sparse = synthetic_trace(2000, 3.0, 0.1, rng)
    dense = synthetic_trace(2000, 25.0, 0.5, rng)
    assert gpu.throughput_mps(dense) > gpu.throughput_mps(sparse)


def test_gpu_energy_rises_on_sparse_scenes(rng):
    gpu = GpuModel(JETSON_XNX, GpuModelConfig(reference_samples_per_ray=13.0))
    sparse = synthetic_trace(2000, 3.0, 0.1, rng)
    dense = synthetic_trace(2000, 25.0, 0.5, rng)
    assert gpu.energy_per_point_j(sparse) > gpu.energy_per_point_j(dense)


def test_gpu_runtime_consistent_with_throughput(reference_trace):
    gpu = GpuModel(RTX_2080TI)
    runtime = gpu.runtime_s(reference_trace)
    mps = gpu.throughput_mps(reference_trace)
    assert runtime == pytest.approx(reference_trace.n_samples / (mps * 1e6))


def test_gpu_model_rejects_non_gpu():
    with pytest.raises(ValueError):
        GpuModel(RT_NERF_EDGE)


def test_gpu_training_supported_only_when_reported(reference_trace):
    gpu = GpuModel(RTX_2080TI)
    assert gpu.throughput_mps(reference_trace, training=True) > 0


def test_gpu_power_positive(reference_trace):
    gpu = GpuModel(RTX_2080TI)
    assert gpu.power_w(reference_trace) > 0


def test_accelerator_model_mild_sensitivity(rng):
    """Fixed-function designs degrade far less than GPUs on sparse work."""
    acc = AcceleratorModel(RT_NERF_EDGE)
    gpu = GpuModel(RTX_2080TI)
    sparse = synthetic_trace(2000, 2.0, 0.1, rng)
    dense = synthetic_trace(2000, 25.0, 0.5, rng)
    acc_ratio = acc.throughput_mps(dense) / acc.throughput_mps(sparse)
    gpu_ratio = gpu.throughput_mps(dense) / gpu.throughput_mps(sparse)
    assert acc_ratio < gpu_ratio


def test_accelerator_unsupported_mode_raises(reference_trace):
    acc = AcceleratorModel(RT_NERF_EDGE)
    with pytest.raises(ValueError):
        acc.throughput_mps(reference_trace, training=True)


def test_accelerator_model_rejects_gpu():
    with pytest.raises(ValueError):
        AcceleratorModel(RTX_2080TI)


def test_bandwidth_fields_match_table1():
    assert RT_NERF_EDGE.off_chip_bandwidth_gbps == 17.0
    assert INSTANT_3D.off_chip_bandwidth_gbps == 59.7
    assert ALL_BASELINES["NGPC"].off_chip_bandwidth_gbps == 231.0
    assert ALL_BASELINES["RT-NeRF (Cloud)"].off_chip_bandwidth_gbps == 510.0
