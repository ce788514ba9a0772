"""Saturated slotted-backoff fixed point for a pool of contending nodes.

For ``n_total`` saturated nodes sharing one channel, the per-slot transmit
probability ``tau``, the conditional collision probability ``p`` and the mean
backoff ``e_b`` (slots) solve the classic system

    e_b = (1 - p - p*(2p)^m) / (1 - 2p) * cw_min/2 - 1/2
    p   = 1 - (1 - tau)^(n_total - 1)
    tau = 1 / (e_b + 1)

The rational form of ``e_b`` has a removable singularity at p = 1/2; internally
the algebraically identical polynomial form

    e_b = (1 + p * sum_{j=0}^{m-1} (2p)^j) * cw_min/2 - 1/2

is used, which is exact for all p in [0, 1]; the solver also evaluates it at
p = 1.0, which large pools reach when (1 - tau)^(n_total - 1) underflows. The
solver is a damped fixed-point iteration with a guaranteed bisection fallback
(the map is monotone, so the root is unique and bracketed).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError, NumericalError

_DAMPING = 0.5
_MAX_ITER = 10_000
_STEP_TOL = 1e-15
_RESIDUAL_TOL = 1e-12
_BISECT_STEPS = 200


@dataclass(frozen=True)
class BianchiPoint:
    """Solved contention point for ``n_total`` nodes."""

    n_total: int
    tau: float
    p: float
    e_b: float


def expected_backoff(p: float, cw_min: int, m: int) -> float:
    """Mean backoff in slots under collision probability ``p``.

    Evaluates the singularity-free polynomial form; at p = 0 this collapses to
    ``cw_min/2 - 1/2`` and at m = 0 the window never grows.
    """
    if not 0.0 <= p < 1.0:
        raise InvalidParameterError(f"p must be in [0, 1), got {p}")
    if cw_min < 2:
        raise InvalidParameterError(f"cw_min must be >= 2, got {cw_min}")
    if m < 0:
        raise InvalidParameterError(f"m must be >= 0, got {m}")
    return _backoff(p, cw_min, m)


def _backoff(p: float, cw_min: int, m: int) -> float:
    # The polynomial form is exact on the closed interval [0, 1], so the solver
    # may evaluate it where (1 - tau)^(n_total - 1) underflows and p rounds to 1.
    geom = 0.0
    term = 1.0
    for _ in range(m):
        geom += term
        term *= 2.0 * p
    return (1.0 + p * geom) * cw_min / 2.0 - 0.5


def _collision_prob(tau: float, n_total: int) -> float:
    return 1.0 - (1.0 - tau) ** (n_total - 1)


def _tau_update(tau: float, n_total: int, cw_min: int, m: int) -> float:
    return 1.0 / (_backoff(_collision_prob(tau, n_total), cw_min, m) + 1.0)


def _bisect_tau(n_total: int, cw_min: int, m: int) -> float:
    # g(tau) = tau - 1/(e_b(p(tau)) + 1) is strictly increasing with a sign
    # change on (0, 1), so plain bisection cannot fail.
    lo, hi = 1e-12, 1.0 - 1e-12
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if mid - _tau_update(mid, n_total, cw_min, m) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_fixed_point(n_total: int, cw_min: int, m: int) -> BianchiPoint:
    """Solve the contention fixed point for ``n_total`` saturated nodes.

    Returns tau, p and e_b with residuals below 1e-10 on both defining
    equations. A single node never collides, so the solution is exact:
    p = 0, tau = 2/(cw_min + 1).
    """
    if n_total < 1:
        raise InvalidParameterError(f"n_total must be >= 1, got {n_total}")
    if cw_min < 2:
        raise InvalidParameterError(f"cw_min must be >= 2, got {cw_min}")
    if m < 0:
        raise InvalidParameterError(f"m must be >= 0, got {m}")

    tau = 2.0 / (cw_min + 1.0)
    for _ in range(_MAX_ITER):
        proposed = _tau_update(tau, n_total, cw_min, m)
        nxt = (1.0 - _DAMPING) * tau + _DAMPING * proposed
        if abs(nxt - tau) <= _STEP_TOL * tau:
            tau = nxt
            break
        tau = nxt

    if abs(tau - _tau_update(tau, n_total, cw_min, m)) > _RESIDUAL_TOL:
        tau = _bisect_tau(n_total, cw_min, m)

    p = _collision_prob(tau, n_total)
    e_b = _backoff(p, cw_min, m)
    residual = abs(tau - 1.0 / (e_b + 1.0))
    if residual > 1e-10:
        raise NumericalError(
            f"contention fixed point did not converge "
            f"(n_total={n_total}, cw_min={cw_min}, m={m}, residual={residual:.3e})"
        )
    return BianchiPoint(n_total=n_total, tau=tau, p=p, e_b=e_b)


def slot_probabilities(point: BianchiPoint, n_tagged: int) -> tuple[float, float, float, float]:
    """Per-slot event probabilities (a, b, c, d) with ``n_tagged`` tagged nodes.

    d/b equals n_tagged/n_total exactly: conditioned on a success, the winner
    is uniform over the contenders.
    """
    if not 1 <= n_tagged <= point.n_total:
        raise InvalidParameterError(
            f"n_tagged must be in [1, {point.n_total}], got {n_tagged}"
        )
    tau, n = point.tau, point.n_total
    idle_rest = (1.0 - tau) ** (n - 1)
    a = idle_rest * (1.0 - tau)
    b = n * tau * idle_rest
    c = 1.0 - a - b
    d = n_tagged * tau * idle_rest
    return a, b, c, d
