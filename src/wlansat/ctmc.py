"""State space and stationary distribution of the WLAN-activity Markov chain.

A feasible system state is a set of WLANs transmitting simultaneously, i.e. an
independent set of the conflict graph. States are plain ``int`` bitmasks (bit i
set = WLAN i active). The chain moves up by one WLAN at rate ``lambda_i`` and
down at rate ``mu``; it is reversible, so the stationary distribution has the
product form ``pi_s ∝ prod_{i in s} theta_i``.

Enumeration, maximality and the product-form weights are passes over a
``uint32`` array of all state masks: one numpy operation per WLAN acts on every
state at once.

:func:`stationary_generator_solve` computes the same distribution by direct
linear algebra on the explicit generator matrix. It exists purely as an
independent cross-check of the product form and is limited to small spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolationError, InvalidParameterError, NumericalError, StateSpaceTooLargeError
from .scenario import MAX_WLANS, Scenario

#: Largest state count accepted by the dense generator solve.
MAX_DENSE_STATES = 4096


def state_members(mask: int) -> tuple[int, ...]:
    """WLAN ids present in a state bitmask, ascending."""
    if mask < 0:
        raise ContractViolationError(f"a state mask must be >= 0, got {mask}")
    members = []
    i = 0
    while mask:
        if mask & 1:
            members.append(i)
        mask >>= 1
        i += 1
    return tuple(members)


def format_state(mask: int) -> str:
    """Render a state as ``{}`` or ``{0,2}`` (ids ascending)."""
    return "{" + ",".join(str(i) for i in state_members(mask)) + "}"


@dataclass(frozen=True)
class FeasibleStateSpace:
    """All independent sets of a scenario's conflict graph, in a fixed order.

    States are ordered by (size, numeric mask value); the empty state is always
    index 0. ``index`` maps a mask back to its ordinal; ``masks`` holds the same
    states, in the same order, as a ``uint32`` array for the vectorized passes.
    """

    scenario: Scenario
    states: tuple[int, ...]
    index: dict[int, int] = field(repr=False)
    masks: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, mask: int) -> bool:
        return mask in self.index

    def size_histogram(self) -> list[int]:
        """Number of states of each cardinality, from 0 up to the largest."""
        return np.bincount([s.bit_count() for s in self.states]).tolist()


@dataclass(frozen=True)
class StationaryDistribution:
    """Long-run occupancy probability of each feasible state."""

    space: FeasibleStateSpace
    pi: np.ndarray = field(repr=False)

    def __eq__(self, other: object) -> bool:  # numpy's == on ``pi`` is elementwise
        if not isinstance(other, StationaryDistribution):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.pi, other.pi)

    def prob(self, mask: int) -> float:
        k = self.space.index.get(mask)
        if k is None:
            raise ContractViolationError(f"{format_state(mask)} is not a feasible state")
        return float(self.pi[k])


def enumerate_states(scenario: Scenario) -> FeasibleStateSpace:
    """Enumerate every feasible state (independent set), including the empty one.

    Level k+1 extends, for each WLAN ``j``, the level-k masks below ``1 << j``
    that miss ``N(j)``, which visits each independent set exactly once and
    never an infeasible subset. The extensions by ``j`` lie in
    ``[1 << j, 2 << j)``, so joined in ascending ``j`` each level comes out
    sorted: the result is downward closed and ordered by (size, mask value).
    """
    n = scenario.n_wlans
    if n > MAX_WLANS:
        raise StateSpaceTooLargeError(f"{n} WLANs exceed the cap of {MAX_WLANS}")
    adj = [scenario.graph.neighbor_mask(j) for j in range(n)]
    level = np.zeros(1, dtype=np.uint32)
    levels = [level]
    while level.size:
        grown = []
        for j in range(n):
            below = level[: np.searchsorted(level, 1 << j)]  # max member < j
            grown.append(below[(below & adj[j]) == 0] | 1 << j)
        level = np.concatenate(grown)
        levels.append(level)
    masks = np.concatenate(levels)
    states = tuple(masks.tolist())
    index = dict(zip(states, range(len(states))))
    return FeasibleStateSpace(scenario=scenario, states=states, index=index, masks=masks)


def dominant_states(space: FeasibleStateSpace) -> tuple[int, ...]:
    """States to which no WLAN can be added: the maximal independent sets.

    One array test per WLAN ``j`` marks the states ``j`` could join; the
    unmarked ones are returned in state order. They carry most of the occupancy
    mass for typical parameters and are the basis of the reduced computation
    mode in :func:`wlansat.throughput.analyze`.
    """
    masks = space.masks
    extendable = np.zeros(masks.shape, dtype=bool)
    for j in range(space.scenario.n_wlans):
        extendable |= (masks & space.scenario.graph.closed_mask(j)) == 0
    return tuple(masks[~extendable].tolist())


def stationary_product_form(
    space: FeasibleStateSpace, thetas: Sequence[float]
) -> StationaryDistribution:
    """Closed-form stationary distribution ``pi_s = w_s / sum_z w_z``.

    ``thetas`` must contain one positive, finite ratio per WLAN id. ``theta_i``
    multiplies the weight of every state containing ``i``, in ascending ``i``,
    so each weight is the product a per-state loop would form, rounded alike.
    The normalizing sum is exact (``math.fsum``): pi sums to 1 within a few ulps.
    """
    n = space.scenario.n_wlans
    if len(thetas) != n:
        raise InvalidParameterError(f"thetas must have length {n}, got {len(thetas)}")
    for i, th in enumerate(thetas):
        if not math.isfinite(th) or th <= 0:
            raise InvalidParameterError(f"thetas[{i}] must be finite and > 0, got {th}")
    weights = np.ones(len(space))
    with np.errstate(over="ignore"):  # an overflow is reported as NumericalError below
        for i, th in enumerate(thetas):
            np.multiply(weights, th, out=weights, where=(space.masks & 1 << i) != 0)
    if not np.isfinite(weights).all():
        raise NumericalError("product-form weight overflowed double precision")
    try:
        z = math.fsum(weights.tolist())
    except OverflowError:  # finite weights whose exact sum is past double range
        raise NumericalError("product-form normalizing constant overflowed") from None
    return StationaryDistribution(space=space, pi=weights / z)


def stationary_generator_solve(
    space: FeasibleStateSpace, lambdas: Sequence[float], mu: float
) -> StationaryDistribution:
    """Stationary distribution via a dense linear solve of ``pi Q = 0``.

    Builds the explicit generator (up-transitions at ``lambda_i``, down at
    ``mu``), normalizes all rates by ``mu`` for conditioning (the null space is
    scale-invariant), and replaces one balance equation with the normalization
    row. Independent oracle for :func:`stationary_product_form`; restricted to
    ``MAX_DENSE_STATES`` states.
    """
    n_states = len(space.states)
    if n_states > MAX_DENSE_STATES:
        raise StateSpaceTooLargeError(
            f"{n_states} states exceed the dense-solve cap of {MAX_DENSE_STATES}"
        )
    n = space.scenario.n_wlans
    if len(lambdas) != n:
        raise InvalidParameterError(f"lambdas must have length {n}, got {len(lambdas)}")
    if not (math.isfinite(mu) and mu > 0):
        raise InvalidParameterError(f"mu must be finite and > 0, got {mu}")

    q = np.zeros((n_states, n_states))
    for row, s in enumerate(space.states):
        for i in range(n):
            if s >> i & 1:
                q[row, space.index[s & ~(1 << i)]] += 1.0  # departure, rate mu/mu
            else:
                up = s | 1 << i
                col = space.index.get(up)
                if col is not None:
                    q[row, col] += lambdas[i] / mu
    np.fill_diagonal(q, -q.sum(axis=1))

    a = q.T.copy()
    a[-1, :] = 1.0  # replace one balance equation with sum(pi) = 1
    b = np.zeros(n_states)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"generator solve failed (construction bug?): {exc}") from exc
    return StationaryDistribution(space=space, pi=pi)


def occupancy_mass(dist: StationaryDistribution, masks: Iterable[int]) -> float:
    """Total stationary probability carried by the given states.

    Clamped at 1: summing every state can land an ulp above 1.
    """
    return min(1.0, math.fsum(dist.prob(m) for m in set(masks)))
