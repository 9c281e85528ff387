"""Reporting helpers."""

import pytest

from repro.core.metrics import fps_from_throughput


def test_fps_conversion_paper_point():
    """591 M samples/s at 800x800 x 13 samples/ray ~ 71 FPS; the
    prototype's half rate gives the paper's 36 FPS."""
    assert fps_from_throughput(591e6) == pytest.approx(71.0, rel=0.01)
    assert fps_from_throughput(295e6) == pytest.approx(35.5, rel=0.01)


def test_fps_custom_resolution():
    full = fps_from_throughput(100e6, width=800, height=800)
    quarter = fps_from_throughput(100e6, width=400, height=400)
    assert quarter == pytest.approx(4 * full)


def test_fps_validates_frame():
    with pytest.raises(ValueError):
        fps_from_throughput(1e6, width=0)

