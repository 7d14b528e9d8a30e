"""Byzantine payload generators.

All attacks are full-knowledge: they read the honest clients' gradients for
the round and emit the compromised uploads. Attackers collude and send one
identical payload, except the Gaussian attack where each attacker draws
independent noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import as_matrix
from .errors import InsufficientClients, InvalidField, InvalidRatio

_LABELS = {
    "gaussian": "Gaussian",
    "signflip": "SignFlip",
    "lie": "LIE",
    "foe": "FoE",
    "negated_mean": "NegatedMean",
}
ATTACK_KINDS = tuple(_LABELS)


def attack_gaussian(dim: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Pure noise: i.i.d. N(0, variance) per coordinate."""
    return rng.normal(0.0, np.sqrt(variance), size=dim)


def attack_signflip(honest) -> np.ndarray:
    """Amplified sign flip: -3 times the sum of the honest gradients."""
    mat = as_matrix(honest)
    return -3.0 * np.sum(mat, axis=0)


def attack_lie(honest, offset: float = 0.7) -> np.ndarray:
    """Shift the honest mean by `offset` population standard deviations
    per coordinate. Small enough to hide inside the honest spread."""
    mat = as_matrix(honest)
    if mat.shape[0] < 2:
        raise InsufficientClients("lie needs at least two honest gradients")
    return np.mean(mat, axis=0) + offset * np.std(mat, axis=0)


def attack_foe(honest, scale: float, n_clients: int, n_byzantine: int) -> np.ndarray:
    """Inner-product manipulation: (scale / (M - B)) times the honest sum.

    scale is negative; the canonical small value -0.1 produces a short
    anti-parallel payload, while scale = -3 * (M - B) reproduces the
    amplified sign flip exactly.
    """
    if n_clients <= n_byzantine:
        raise InvalidRatio(f"need M > B, got M={n_clients} B={n_byzantine}")
    mat = as_matrix(honest)
    return (scale / (n_clients - n_byzantine)) * np.sum(mat, axis=0)


def attack_negated_mean(honest, n_clients: int, n_byzantine: int) -> np.ndarray:
    """Exactly negated honest mean: -(1 / (M - B)) times the honest sum.

    The payload norm equals the honest mean's norm, so norm-based penalties
    cannot separate it; only directional tests can.
    """
    if n_clients <= n_byzantine:
        raise InvalidRatio(f"need M > B, got M={n_clients} B={n_byzantine}")
    mat = as_matrix(honest)
    return -(np.sum(mat, axis=0) / (n_clients - n_byzantine))


@dataclass(frozen=True)
class AttackSpec:
    """Which attack to run, plus the knobs of the kinds that have them.

    foe_scale None is resolved per run, once the method and the compromised
    count B the run drew are known: -3 * (M - B) against a correntropy-style
    (MCA) victim, -0.1 otherwise (see flsim.Simulation).
    """

    kind: str
    variance: float = field(default=90.0, metadata={"kinds": ("gaussian",)})
    lie_offset: float = field(default=0.7, metadata={"key": "offset", "kinds": ("lie",)})
    foe_scale: float | None = field(default=None, metadata={"key": "scale", "kinds": ("foe",)})

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise InvalidField("kind", f"unknown attack kind {self.kind!r}")
        if self.variance <= 0.0:
            raise InvalidField("variance", "variance must be positive")

    @property
    def label(self) -> str:
        return _LABELS[self.kind]


def byzantine_payloads(
    spec: AttackSpec,
    honest,
    byzantine_ids,
    n_clients: int,
    rng_for: Callable[[int], np.random.Generator],
) -> dict[int, np.ndarray]:
    """Build the upload for every compromised client.

    honest holds the honest gradients (any order); byzantine_ids the
    compromised client ids. rng_for(m) must return client m's noise stream,
    used only by the Gaussian attack.
    """
    mat = as_matrix(honest)
    ids = sorted(int(m) for m in byzantine_ids)
    n_byz = len(ids)
    if spec.kind == "gaussian":
        return {m: attack_gaussian(mat.shape[1], spec.variance, rng_for(m)) for m in ids}
    if spec.kind == "signflip":
        payload = attack_signflip(mat)
    elif spec.kind == "lie":
        payload = attack_lie(mat, spec.lie_offset)
    elif spec.kind == "foe":
        if spec.foe_scale is None:
            raise ValueError("foe spec was not resolved: foe_scale is None")
        payload = attack_foe(mat, spec.foe_scale, n_clients, n_byz)
    else:
        payload = attack_negated_mean(mat, n_clients, n_byz)
    return {m: payload for m in ids}
