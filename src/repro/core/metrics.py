"""Reporting helpers: the units and ratios the paper's tables use."""

from __future__ import annotations


def fps_from_throughput(
    samples_per_second: float,
    width: int = 800,
    height: int = 800,
    samples_per_ray: float = 13.0,
) -> float:
    """Frames per second sustained at a given sample throughput."""
    per_frame = width * height * samples_per_ray
    if per_frame <= 0:
        raise ValueError("frame must contain samples")
    return samples_per_second / per_frame


def _gaussian_kernel(size: int = 7, sigma: float = 1.5):
    import numpy as np

    half = size // 2
    x = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(x**2) / (2.0 * sigma**2))
    return g / g.sum()


def _filter2d(image, kernel):
    """Separable 2D convolution with edge padding (no SciPy needed)."""
    import numpy as np

    half = kernel.size // 2
    padded = np.pad(image, ((half, half), (half, half)), mode="edge")
    rows = np.apply_along_axis(
        lambda r: np.convolve(r, kernel, mode="valid"), 1, padded
    )
    return np.apply_along_axis(
        lambda c: np.convolve(c, kernel, mode="valid"), 0, rows
    )


def ssim(pred, target, max_value: float = 1.0) -> float:
    """Structural similarity (mean SSIM, Gaussian 7x7 window).

    Complements the paper's PSNR metric with the other standard
    view-synthesis quality number.  Color images are averaged over
    channels.
    """
    import numpy as np

    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError("pred and target must have the same shape")
    if pred.ndim == 3:
        return float(
            np.mean([ssim(pred[..., c], target[..., c], max_value)
                     for c in range(pred.shape[-1])])
        )
    if pred.ndim != 2:
        raise ValueError("ssim expects a 2D image or an HxWxC stack")
    kernel = _gaussian_kernel()
    c1 = (0.01 * max_value) ** 2
    c2 = (0.03 * max_value) ** 2
    mu_p = _filter2d(pred, kernel)
    mu_t = _filter2d(target, kernel)
    sigma_p = _filter2d(pred * pred, kernel) - mu_p**2
    sigma_t = _filter2d(target * target, kernel) - mu_t**2
    sigma_pt = _filter2d(pred * target, kernel) - mu_p * mu_t
    numerator = (2 * mu_p * mu_t + c1) * (2 * sigma_pt + c2)
    denominator = (mu_p**2 + mu_t**2 + c1) * (sigma_p + sigma_t + c2)
    return float(np.mean(numerator / denominator))
