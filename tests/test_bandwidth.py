"""Data-volume / off-chip bandwidth model (Fig. 3, Table I, Fig. 13(b))."""

import pytest

from repro.core.bandwidth import (
    BandwidthModel,
    TrafficConstants,
    WorkloadVolume,
)
from repro.hw.interconnect import USB_3_2_GEN1


@pytest.fixture
def model():
    return BandwidthModel()


@pytest.fixture
def workload():
    return WorkloadVolume.instant_training()


def test_training_volume_matches_fig3(model, workload):
    volume = model.training_volume(workload)
    rates = volume.rates_gbps(workload.deadline_s)
    assert rates["inter_stage"] == pytest.approx(12.5, rel=0.10)
    assert rates["intra_stage"] == pytest.approx(77.5, rel=0.10)
    assert volume.io_bytes == pytest.approx(700e6, rel=0.15)
    assert volume.total_intermediate_bytes == pytest.approx(180e9, rel=0.10)


def test_paper_config_fits_usb(model, workload):
    """Table I's bottom row: the end-to-end chip needs <= 0.6 GB/s."""
    bw = model.required_training_bandwidth_gbps(
        workload, table_bytes=model.table_bytes(14)
    )
    assert bw <= 0.6
    assert bw <= USB_3_2_GEN1.bandwidth_gbps


def test_table_bytes_paper_config_is_640kb(model):
    assert model.table_bytes(14) == 640 * 1024


def test_partial_pipeline_needs_tens_of_gbps(model, workload):
    """Table I's top rows: a stage-II-only boundary needs DRAM-class BW."""
    bw = model.required_training_bandwidth_gbps(
        workload,
        table_bytes=model.table_bytes(18),
        on_chip_feature_bytes=1536 * 1024,
        end_to_end=False,
    )
    assert bw > 17.0


def test_end_to_end_reduction_near_76_percent(model, workload):
    i3d_tables = (2**16 + 2**18) * 2 * 2 * 8
    red = model.end_to_end_reduction(workload, i3d_tables)
    assert red["reduction"] == pytest.approx(0.76, abs=0.04)
    assert red["saved_gbps"] == pytest.approx(44.0, rel=0.10)
    assert red["partial_gbps"] == pytest.approx(59.7, rel=0.10)


def test_bandwidth_monotone_in_model_size(model, workload):
    curve = [
        model.required_training_bandwidth_gbps(workload, model.table_bytes(k))
        for k in range(12, 20)
    ]
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert curve[0] < 1.0
    assert curve[-1] > 10.0


def test_flat_until_tables_overflow(model, workload):
    fits = model.required_training_bandwidth_gbps(workload, model.table_bytes(12))
    still_fits = model.required_training_bandwidth_gbps(workload, model.table_bytes(14))
    assert fits == pytest.approx(still_fits)


def test_workload_factories():
    trn = WorkloadVolume.instant_training()
    assert trn.total_samples == pytest.approx(398e6)
    assert trn.deadline_s == 2.0


def test_custom_traffic_constants():
    constants = TrafficConstants(stage2_feature_read_bytes=256.0)
    model = BandwidthModel(constants)
    workload = WorkloadVolume.instant_training()
    default = BandwidthModel().training_volume(workload)
    custom = model.training_volume(workload)
    assert custom.intra_stage_bytes > default.intra_stage_bytes
