"""Finite-difference gradient checker: the test oracle for the autodiff engine."""

from __future__ import annotations

import numpy as np

from posediff.exceptions import NumericsError


def gradient_check(
    build_loss,
    params: dict,
    *,
    step: float = 1e-5,
    rtol: float = 1e-4,
    atol: float = 1e-8,
    max_entries: int | None = None,
    seed: int = 0,
) -> dict:
    """Compare reverse-mode gradients against central finite differences.

    ``build_loss`` must rebuild the forward graph from the current parameter
    values. For each tensor, up to ``max_entries`` entries (all, when None)
    are perturbed by +-step. Returns {name: (max_abs_diff, max_ref)} and
    raises NumericsError when any entry violates atol + rtol * |grad|.
    """
    for p in params.values():
        p.grad = None
    loss = build_loss()
    loss.backward()
    analytic = {}
    for name, p in params.items():
        if p.grad is None:
            raise NumericsError(f"parameter {name!r} received no gradient")
        analytic[name] = p.grad.copy()

    rng = np.random.default_rng(seed)
    report = {}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        idxs = np.arange(flat.size)
        if max_entries is not None and flat.size > max_entries:
            idxs = rng.choice(flat.size, size=max_entries, replace=False)
        worst = (0.0, 0.0)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            hi = float(build_loss().data)
            flat[i] = orig - step
            lo = float(build_loss().data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            a = float(analytic[name].reshape(-1)[i])
            diff = abs(a - numeric)
            if diff > worst[0]:
                worst = (diff, max(abs(a), abs(numeric)))
            if diff > atol + rtol * max(abs(a), abs(numeric)):
                raise NumericsError(
                    f"gradient mismatch for {name!r}[{i}]: "
                    f"analytic={a:.3e} numeric={numeric:.3e}"
                )
        report[name] = worst
    return report
