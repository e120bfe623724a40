"""Central finite-difference gradient checking for composite modules.

Used by the test suite; a ``gradcheck`` command-line subcommand is planned
(ROADMAP item 5). The loss closure is re-run from scratch for every
perturbation, so the analytic path and the numeric path share nothing but
the parameter values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass
class GradCheckReport:
    name: str
    max_rel_error: float
    n_checked: int
    tolerance: float
    worst: str = ""

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def check_gradients(loss_fn, params: dict[str, ad.Tensor], name: str = "module",
                    h: float = 1e-4, tolerance: float = 1e-4,
                    sample_cap: int = 64, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients of ``loss_fn()`` against central differences.

    ``loss_fn`` must rebuild the graph on every call and return a scalar
    Tensor. At most ``sample_cap`` entries per parameter are perturbed
    (seeded choice), which covers every entry at the dims used in tests.
    An entry's error is divided by the largest of its two values and the
    parameter's largest analytic entry, so a gradient wrong by a constant
    factor fails however small the parameter's gradients are.
    """
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    ad.backward(loss)
    analytic = {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for k, p in params.items()}

    rng = np.random.default_rng(seed)
    max_rel = 0.0
    worst = ""
    n_checked = 0
    for key, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.shape[0]
        idxs = np.arange(n) if n <= sample_cap else rng.choice(n, size=sample_cap, replace=False)
        floor = float(np.abs(analytic[key]).max()) or 1.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            up = float(loss_fn().data)
            flat[i] = orig - h
            down = float(loss_fn().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            a = float(analytic[key].reshape(-1)[i])
            denom = max(abs(a), abs(numeric), floor)
            rel = abs(a - numeric) / denom
            n_checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = f"{key}[{int(i)}] analytic={a:.6g} numeric={numeric:.6g}"
    return GradCheckReport(name=name, max_rel_error=max_rel, n_checked=n_checked,
                           tolerance=tolerance, worst=worst)
