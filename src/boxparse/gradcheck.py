"""Central finite-difference gradient checking for composite modules.

Used by the test suite; a ``gradcheck`` command-line subcommand is planned
(ROADMAP item 5). The loss closure is re-run from scratch for every
perturbation, so the analytic path and the numeric path share nothing but
the parameter values.

The constants ``H``, ``TOLERANCE``, ``SAMPLE_CAP`` and ``SEED`` below fix the
check; item 5's CLI may add a knob back only when a caller needs another value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

H = 1e-4  # the central-difference step
TOLERANCE = 1e-4  # the largest relative error that passes
SAMPLE_CAP = 64  # entries perturbed per parameter, at most
SEED = 0  # chooses the entries of a parameter larger than the cap


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    worst: str = ""

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= TOLERANCE


def check_gradients(loss_fn, params: dict[str, ad.Tensor]) -> GradCheckReport:
    """Compare analytic gradients of ``loss_fn()`` against central differences.

    ``loss_fn`` must rebuild the graph on every call and return a scalar
    Tensor. At most ``SAMPLE_CAP`` entries per parameter are perturbed
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

    rng = np.random.default_rng(SEED)
    max_rel = 0.0
    worst = ""
    n_checked = 0
    for key, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.shape[0]
        idxs = np.arange(n) if n <= SAMPLE_CAP else rng.choice(n, size=SAMPLE_CAP, replace=False)
        floor = float(np.abs(analytic[key]).max(initial=0.0)) or 1.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + H
            up = float(loss_fn().data)
            flat[i] = orig - H
            down = float(loss_fn().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * H)
            a = float(analytic[key].reshape(-1)[i])
            denom = max(abs(a), abs(numeric), floor)
            rel = abs(a - numeric) / denom
            n_checked += 1
            if rel > max_rel:
                max_rel = rel
                worst = f"{key}[{int(i)}] analytic={a:.6g} numeric={numeric:.6g}"
    return GradCheckReport(max_rel, n_checked, worst)
