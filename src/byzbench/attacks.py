"""Byzantine payload generators.

All attacks are full-knowledge: they read the honest clients' gradients for
the round and emit the compromised uploads. Attackers collude and send one
identical payload, except the Gaussian attack where each attacker draws
independent noise.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import as_matrix
from .errors import InsufficientClients, InvalidRatio
from .specs import AttackSpec


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


def byzantine_payloads(
    spec: AttackSpec,
    honest,
    byzantine_ids,
    n_clients: int,
    rng_for: Callable[[int], np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """The compromised uploads as `(ids, rows)`, for `uploads[ids] = rows`.

    honest holds the honest gradients (any order); `ids` the sorted
    byzantine_ids. `rows` is the colluders' one (p,) payload, or the Gaussian
    attackers' (B, p) block, row i drawn from client ids[i]'s rng_for(ids[i]).
    """
    mat = as_matrix(honest)
    ids = np.array(sorted(int(m) for m in byzantine_ids), dtype=np.intp)
    n_byz, dim = ids.size, mat.shape[1]
    if spec.kind == "gaussian":
        noise = [attack_gaussian(dim, spec.variance, rng_for(m)) for m in ids.tolist()]
        return ids, np.array(noise).reshape(n_byz, dim)
    if spec.kind == "signflip":
        payload = attack_signflip(mat)
    elif spec.kind == "lie":
        payload = attack_lie(mat, spec.lie_offset)
    elif spec.kind == "foe":
        scale = -0.1 if spec.foe_scale is None else spec.foe_scale
        payload = attack_foe(mat, scale, n_clients, n_byz)
    else:
        payload = attack_negated_mean(mat, n_clients, n_byz)
    return ids, payload
