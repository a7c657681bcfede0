"""The ``nn-train`` workload: ``repro.nn.fit`` of a small CNN, in-process.

Conv2D -> ReLU -> MaxPool, twice, then Dense, on a seed-generated set of
16x16x3 images.  Every fit starts from the same seed, so every fit of a
run must end at the same weights; the run reports the median fit time and
the samples trained per second at the reference host speed (``common.HostSpeed``), timed against a small
convolution-step kernel because the fit's time goes to numpy.
"""

from __future__ import annotations

import math
import time
from typing import Any

import numpy as np

from repro.nn import (
    Adam,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    TrainConfig,
    fit,
    model_digest,
)

from common import HostSpeed, median, metric, slowdown_header
from tracer import Tracer, install_nn

N_SAMPLES = 512
N_CLASSES = 4
IMAGE = (16, 16, 3)
EPOCHS = 2
BATCH = 32
#: (in, out) channels of the two 3x3 convolutions.
CONVS = ((3, 8), (8, 16))
KERNEL = 3
FITS_PER_S = 3
SETUPS = 25
#: ``conv_kernel`` time at the reference host speed.
KERNEL_S = 0.0020
_KERNEL_X = np.random.default_rng(0).normal(size=(8, 16, 16, 8))
_KERNEL_W = np.random.default_rng(1).normal(size=(72, 16))
TRACE_PAIRS = 3


def make_data(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Class prototypes plus noise: learnable, and different per seed."""
    rng = np.random.default_rng([seed, 3])
    prototypes = rng.normal(size=(N_CLASSES, *IMAGE))
    y = rng.integers(0, N_CLASSES, N_SAMPLES)
    x = 0.5 * prototypes[y] + rng.normal(size=(N_SAMPLES, *IMAGE))
    return x, y


def make_model(seed: int) -> Sequential:
    (c0, c1), (c2, c3) = CONVS
    side = IMAGE[0] // 4
    return Sequential([
        Conv2D(c0, c1, KERNEL, seed=seed), ReLU(), MaxPool2D(2),
        Conv2D(c2, c3, KERNEL, seed=seed + 1), ReLU(), MaxPool2D(2),
        Flatten(), Dense(side * side * c3, N_CLASSES, seed=seed + 2),
    ])


def conv_kernel() -> float:
    """Fixed numpy work of the kind a convolution step does, written here
    so that no change to ``repro.nn`` moves it: pad, patch matrix, forward
    GEMM and ReLU, the two gradient GEMMs and a tap-by-tap scatter back."""
    x = np.pad(_KERNEL_X, ((0, 0), (1, 1), (1, 1), (0, 0)))
    b, h, w, c = _KERNEL_X.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(1, 2))
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(-1, 9 * c)
    out = np.maximum(cols @ _KERNEL_W, 0.0)
    grad_w = cols.T @ out
    grad_cols = (out @ _KERNEL_W.T).reshape(b, h, w, 3, 3, c)
    grad_x = np.zeros_like(x)
    for i in range(3):
        for j in range(3):
            grad_x[:, i:i + h, j:j + w, :] += grad_cols[:, :, :, i, j, :]
    return float(grad_w.sum() + grad_x.sum())


def set_up(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The set-up a fit needs: its data, and a model built once to warm up."""
    make_model(seed)
    return make_data(seed)


def train(seed: int, x: np.ndarray, y: np.ndarray) -> tuple[float, str, float]:
    """One fit from scratch: (seconds, model digest, final loss)."""
    model = make_model(seed)
    optimizer = Adam(model.parameters(), lr=1e-3)
    t0 = time.perf_counter()
    history = fit(model, optimizer, x, y,
                  TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=seed))
    elapsed = time.perf_counter() - t0
    return elapsed, model_digest(model), history.final_loss


def reference_key(seed: int) -> str:
    return f"nn/samples={N_SAMPLES}/epochs={EPOCHS}/seed={seed}"


def conv_work() -> tuple[int, int]:
    """Conv flops and bytes of one fit, computed from the layer shapes.

    Forward: 2*B*Ho*Wo*K*K*Cin*Cout flops and 8-byte reads of the patch
    matrix and weights plus the output write; backward does the two
    gradient GEMMs, twice the flops and bytes.  Cache behaviour is ignored.
    """
    flops = moved = 0
    side = IMAGE[0]
    for cin, cout in CONVS:
        rows = N_SAMPLES * side * side  # "same" padding, stride 1
        k2c = KERNEL * KERNEL * cin
        flops += 2 * rows * k2c * cout
        moved += 8 * (rows * k2c + k2c * cout + rows * cout)
        side //= 2
    return 3 * flops * EPOCHS, 3 * moved * EPOCHS


def run_nn(seed: int, seconds: int, trace: bool, reference: dict[str, Any],
           corrupt: str | None) -> dict[str, Any]:
    speed = HostSpeed(conv_kernel, KERNEL_S)
    setups = []
    for _ in range(SETUPS):
        seconds_at_reference, (x, y) = speed.time(set_up, seed)
        setups.append(seconds_at_reference)
    n_fits = max(2, math.ceil(FITS_PER_S * seconds))
    fits, scaled = [], []
    for _ in range(n_fits):
        seconds_at_reference, fit_result = speed.time(train, seed, x, y)
        fits.append(fit_result)
        scaled.append(seconds_at_reference)
    problems = []
    outcomes = {(digest, loss) for _t, digest, loss in fits}
    if len(outcomes) != 1:
        problems.append("fits from one seed ended at different weights")
    digest, loss = fits[0][1], fits[0][2]
    if not math.isfinite(loss):
        problems.append(f"final loss is {loss}")
    expected = dict(reference.get(reference_key(seed)) or {})
    if corrupt == "nn-digest" and expected:
        expected["digest"] = "0" * 64
    if corrupt == "nn-loss" and expected:
        expected["loss"] = expected["loss"] * (1.0 + 1e-12)
    if expected:
        if digest != expected["digest"]:
            problems.append("model digest differs from the reference")
        if loss != expected["loss"]:
            problems.append("final loss differs from the reference")
    samples = N_SAMPLES * EPOCHS
    print(slowdown_header(speed.readings, {
        "latency_p50_ms": 1e3 * median([t for t, _d, _l in fits])}))
    # An op is one training sample; the latency is that of a whole fit.
    metrics: dict[str, Any] = {
        "setup_s": metric(median(setups), "s"),
        "latency_p50_ms": metric(1e3 * median(scaled), "ms"),
        "ops_per_s": metric(samples * n_fits / sum(scaled), "ops/s"),
    }
    if trace:
        metrics = _layer_metrics(seed, x, y)
    return {"attempted": n_fits, "failed": 0, "problems": problems,
            "metrics": metrics,
            "digests": {reference_key(seed): {"digest": digest, "loss": loss}}}


def _layer_metrics(seed: int, x: np.ndarray, y: np.ndarray) -> dict[str, Any]:
    """Per-step kernel times over ``TRACE_PAIRS`` traced fits; the overhead
    is the median over pairs of an untraced and a traced fit."""
    ratios = []
    tracer = Tracer(keep_spans=False)
    for _ in range(TRACE_PAIRS):
        untraced_s = train(seed, x, y)[0]
        restore = install_nn(tracer)
        try:
            traced_s = train(seed, x, y)[0]
        finally:
            restore()
        ratios.append(traced_s / untraced_s)
    steps = TRACE_PAIRS * EPOCHS * math.ceil(N_SAMPLES / BATCH)
    totals = tracer.totals

    def per_step_ms(*names: str) -> float:
        return 1e3 * sum(totals.get(n, [0, 0.0])[1] for n in names) / steps

    flops, moved = conv_work()
    return {
        "nn.conv.forward.ms": metric(per_step_ms("nn.conv.forward"), "ms"),
        "nn.conv.backward.ms": metric(per_step_ms("nn.conv.backward"), "ms"),
        "nn.dense.ms": metric(per_step_ms("nn.dense.forward", "nn.dense.backward"), "ms"),
        "nn.optim.step.ms": metric(per_step_ms("nn.optim.step"), "ms"),
        "nn.conv.flops": metric(flops, "flop_computed"),
        "nn.conv.bytes": metric(moved, "B_computed"),
        "trace.overhead_pct": metric(100.0 * (median(ratios) - 1.0), "%"),
    }
