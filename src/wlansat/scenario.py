"""Input domain: WLANs, the overlap (conflict) graph, and channel parameters.

A deployment is a list of WLANs plus an undirected conflict graph whose edges
mark overlapping coverage. Overlap is WLAN-level: when two WLANs overlap,
every node of one senses every node of the other, so carrier sensing, blocking
and collisions all act at WLAN granularity. Each WLAN has ``n_nodes`` saturated
stations (one of them the AP) that contend with the standard binary exponential
backoff.

From the MAC parameters each WLAN gets a channel-access rate ``lambda_i``
(attempts per second while its backoff is running) and the dimensionless ratio
``theta_i = lambda_i / mu`` against the service rate ``mu = 1/e_t``. These two
quantities drive the state-occupancy model in :mod:`wlansat.ctmc`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from importlib import resources
from typing import Iterable, Mapping

from .errors import InvalidParameterError, StateSpaceTooLargeError

#: Hard cap on WLANs per scenario. Feasible states are subsets of the WLAN
#: set, so enumeration is bounded by 2^W; 24 keeps the worst case in memory.
MAX_WLANS = 24

#: Cap on backoff stages, so cw_max = cw_min * 2**m stays a safe integer.
MAX_STAGES = 32


@dataclass(frozen=True)
class PhyMacParams:
    """Channel and MAC constants shared by every WLAN in a scenario.

    Durations are seconds, payload is bits:

    * ``t_e``    -- duration of one empty backoff slot
    * ``e_t``    -- expected duration of a successful transmission (1/mu)
    * ``e_tc``   -- expected duration of a collision (equals ``e_t`` without
      RTS/CTS, but kept free)
    * ``cw_min`` -- minimum contention window, in slots
    * ``m``      -- number of window-doubling stages (cw_max = cw_min * 2**m)
    * ``l_bits`` -- payload delivered by one successful channel access
    """

    t_e: float
    e_t: float
    e_tc: float
    cw_min: int
    m: int
    l_bits: float

    def __post_init__(self) -> None:
        for field in ("t_e", "e_t", "e_tc", "l_bits"):
            value = getattr(self, field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise InvalidParameterError(f"{field} must be a number, got {value!r}")
            if not value > 0:
                raise InvalidParameterError(f"{field} must be > 0, got {value}")
            if not value <= sys.float_info.max:  # inf, or an int past float range
                raise InvalidParameterError(f"{field} must be finite, got {value}")
        if not isinstance(self.cw_min, int) or isinstance(self.cw_min, bool):
            raise InvalidParameterError(f"cw_min must be an integer, got {self.cw_min!r}")
        if self.cw_min < 2:
            # the access rate uses 1/(cw_min - 1), so cw_min = 1 is meaningless
            raise InvalidParameterError(f"cw_min must be >= 2, got {self.cw_min}")
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise InvalidParameterError(f"m must be an integer, got {self.m!r}")
        if self.m < 0:
            raise InvalidParameterError(f"m must be >= 0, got {self.m}")
        if self.m > MAX_STAGES:
            raise InvalidParameterError(f"m must be <= {MAX_STAGES}, got {self.m}")
        # derived rates, named by their formula, so an extreme finite input is
        # reported here instead of as inf, 0 or an OverflowError downstream
        node_rate = 2.0 / ((self.cw_min - 1) * self.t_e) if self.cw_min <= sys.float_info.max else 0.0
        for what, value in (
            ("mu = 1 / e_t", 1.0 / self.e_t),
            ("mu * L = l_bits / e_t", self.mu * self.l_bits),
            ("one node's access rate 2 / ((cw_min - 1) * t_e)", node_rate),
            ("one node's theta 2 * e_t / ((cw_min - 1) * t_e)", node_rate / self.mu),
            ("the success airtime in slots e_t / t_e", self.e_t / self.t_e),
            ("the collision airtime in slots e_tc / t_e", self.e_tc / self.t_e),
        ):
            if not 0.0 < value < math.inf:
                raise InvalidParameterError(f"{what} must be finite and > 0, got {value}")

    @property
    def mu(self) -> float:
        """Service rate: transmissions completed per second while active."""
        return 1.0 / self.e_t

    @property
    def cw_max(self) -> int:
        return self.cw_min << self.m


@dataclass(frozen=True)
class Wlan:
    """One WLAN: an AP plus ``n_nodes - 1`` stations, all saturated."""

    id: int
    n_nodes: int

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or isinstance(self.id, bool) or self.id < 0:
            raise InvalidParameterError(f"wlan id must be a non-negative integer, got {self.id!r}")
        if not isinstance(self.n_nodes, int) or isinstance(self.n_nodes, bool) or self.n_nodes < 1:
            raise InvalidParameterError(f"n_nodes must be an integer >= 1, got {self.n_nodes!r}")


class ConflictGraph:
    """Undirected overlap graph over WLAN ids, stored as adjacency bitmasks."""

    def __init__(self, n_wlans: int, edges: Iterable[tuple[int, int]]):
        if n_wlans < 1:
            raise InvalidParameterError(f"n_wlans must be >= 1, got {n_wlans}")
        masks = [0] * n_wlans
        normalized = set()
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError):
                raise InvalidParameterError(f"edges must be [id, id] pairs, got {edge!r}") from None
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in (a, b)):
                raise InvalidParameterError(f"edges must contain integer ids, got {edge!r}")
            if a == b:
                raise InvalidParameterError(f"edges may not be self-loops, got {edge!r}")
            if not (0 <= a < n_wlans and 0 <= b < n_wlans):
                raise InvalidParameterError(
                    f"edges reference unknown wlan id: {edge!r} with {n_wlans} wlans"
                )
            masks[a] |= 1 << b
            masks[b] |= 1 << a
            normalized.add((min(a, b), max(a, b)))
        self._n = n_wlans
        self._masks = tuple(masks)
        self._edges = tuple(sorted(normalized))

    @property
    def n_wlans(self) -> int:
        return self._n

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as sorted (low, high) pairs, deduplicated."""
        return self._edges

    def adjacent(self, a: int, b: int) -> bool:
        return bool(self._masks[a] >> b & 1)

    def neighbor_mask(self, i: int) -> int:
        """Bitmask of WLANs overlapping WLAN ``i`` (excluding ``i``)."""
        return self._masks[i]

    def closed_mask(self, i: int) -> int:
        """Bitmask of the sensing neighborhood of WLAN ``i`` (including ``i``)."""
        return self._masks[i] | (1 << i)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(self._n) if self._masks[i] >> j & 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConflictGraph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"ConflictGraph(n_wlans={self._n}, edges={list(self._edges)})"


@dataclass(frozen=True)
class Scenario:
    """A complete model input: WLANs, their overlap graph, and parameters."""

    wlans: tuple[Wlan, ...]
    graph: ConflictGraph
    params: PhyMacParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "wlans", tuple(sorted(self.wlans, key=lambda w: w.id)))
        n = len(self.wlans)
        if n < 1:
            raise InvalidParameterError("wlans must contain at least one entry")
        if n > MAX_WLANS:
            raise StateSpaceTooLargeError(
                f"scenario has {n} WLANs; at most {MAX_WLANS} are supported"
            )
        ids = [w.id for w in self.wlans]
        if ids != list(range(n)):
            raise InvalidParameterError(f"wlan ids must be dense 0..{n - 1}, got {ids}")
        if self.graph.n_wlans != n:
            raise InvalidParameterError(
                f"graph covers {self.graph.n_wlans} wlans but scenario has {n}"
            )
        for w in self.wlans:  # one node's theta is in range, so only n_nodes can overflow it
            if w.n_nodes > sys.float_info.max or theta_of(w, self.params) == math.inf:
                raise InvalidParameterError(f"wlans[{w.id}].n_nodes is too large: its theta overflows")

    @property
    def n_wlans(self) -> int:
        return len(self.wlans)

    def lambdas(self) -> tuple[float, ...]:
        return tuple(lambda_of(w, self.params) for w in self.wlans)

    def thetas(self) -> tuple[float, ...]:
        return tuple(theta_of(w, self.params) for w in self.wlans)


def lambda_of(wlan: Wlan, params: PhyMacParams) -> float:
    """Channel-access rate of a WLAN in attempts per second of active backoff.

    Each of the ``n_nodes`` saturated nodes spends on average
    ``(cw_min - 1)/2`` slots of countdown per attempt, so the WLAN as a whole
    attempts at ``n_nodes * 2 / ((cw_min - 1) * t_e)``.
    """
    return wlan.n_nodes * 2.0 / ((params.cw_min - 1) * params.t_e)


def theta_of(wlan: Wlan, params: PhyMacParams) -> float:
    """Ratio of the WLAN's access rate to the service rate ``mu = 1/e_t``."""
    return lambda_of(wlan, params) / params.mu


# --- scenario files ---------------------------------------------------------
#
# A scenario file is a JSON document:
#
#   {"wlans": [{"id": 0, "n_nodes": 16}, ...],
#    "edges": [[0, 1], ...],
#    "params": {"t_e_s": 9e-6, "e_t_s": 6.63e-3, "e_tc_s": 6.63e-3,
#               "cw_min": 32, "m": 5, "l_bits": 768000}}
#
# Field names are exact; unknown keys are rejected.

_TOP_KEYS = frozenset({"wlans", "edges", "params"})
_PARAM_KEYS = frozenset({"t_e_s", "e_t_s", "e_tc_s", "cw_min", "m", "l_bits"})
_WLAN_KEYS = frozenset({"id", "n_nodes"})

_BUNDLED = {
    "scenario1": "scenario1.json",
    "scenario2": "scenario2.json",
    "scenario3": "scenario3.json",
    "i": "scenario1.json",
    "ii": "scenario2.json",
    "iii": "scenario3.json",
}


def _check_keys(doc: Mapping, allowed: frozenset, where: str) -> None:
    if not isinstance(doc, Mapping):
        raise InvalidParameterError(f"{where} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise InvalidParameterError(f"unknown key in {where}: {sorted(unknown)[0]!r}")
    missing = allowed - set(doc)
    if missing:
        raise InvalidParameterError(f"missing key in {where}: {sorted(missing)[0]!r}")


def scenario_from_dict(doc: Mapping) -> Scenario:
    """Build a :class:`Scenario` from a scenario-file dictionary (strict)."""
    _check_keys(doc, _TOP_KEYS, "scenario")
    _check_keys(doc["params"], _PARAM_KEYS, "params")
    p = doc["params"]
    params = PhyMacParams(
        t_e=p["t_e_s"],
        e_t=p["e_t_s"],
        e_tc=p["e_tc_s"],
        cw_min=p["cw_min"],
        m=p["m"],
        l_bits=p["l_bits"],
    )
    if not isinstance(doc["wlans"], list) or not doc["wlans"]:
        raise InvalidParameterError("wlans must be a non-empty array")
    wlans = []
    for entry in doc["wlans"]:
        _check_keys(entry, _WLAN_KEYS, "wlans entry")
        wlans.append(Wlan(id=entry["id"], n_nodes=entry["n_nodes"]))
    if not isinstance(doc["edges"], list):
        raise InvalidParameterError("edges must be an array of [id, id] pairs")
    graph = ConflictGraph(len(wlans), [tuple(e) for e in doc["edges"]])
    return Scenario(wlans=tuple(wlans), graph=graph, params=params)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of :func:`scenario_from_dict`."""
    p = scenario.params
    return {
        "wlans": [{"id": w.id, "n_nodes": w.n_nodes} for w in scenario.wlans],
        "edges": [list(e) for e in scenario.graph.edges],
        "params": {
            "t_e_s": p.t_e,
            "e_t_s": p.e_t,
            "e_tc_s": p.e_tc,
            "cw_min": p.cw_min,
            "m": p.m,
            "l_bits": p.l_bits,
        },
    }


def load_scenario(path: str) -> Scenario:
    """Load a scenario from a JSON file path or a bundled name.

    Bundled names (case-insensitive): ``scenario1``/``i``, ``scenario2``/``ii``,
    ``scenario3``/``iii``.
    """
    key = str(path).lower()
    if key in _BUNDLED:
        return bundled_scenario(key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InvalidParameterError(f"scenario file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"scenario file is not valid JSON: {path}: {exc}") from None
    return scenario_from_dict(doc)


def bundled_scenario(name: str) -> Scenario:
    """Return one of the three packaged reference scenarios."""
    key = str(name).lower()
    if key not in _BUNDLED:
        raise InvalidParameterError(
            f"unknown bundled scenario {name!r}; expected one of {sorted(set(_BUNDLED))}"
        )
    text = resources.files("wlansat").joinpath("scenarios", _BUNDLED[key]).read_text("utf-8")
    return scenario_from_dict(json.loads(text))


def with_n_nodes(scenario: Scenario, n_nodes: int) -> Scenario:
    """Copy of ``scenario`` with ``n_nodes`` applied uniformly to every WLAN."""
    wlans = tuple(replace(w, n_nodes=n_nodes) for w in scenario.wlans)
    return replace(scenario, wlans=wlans)


def with_cw_min(scenario: Scenario, cw_min: int, *, fixed_cw_max: bool = False) -> Scenario:
    """Copy of ``scenario`` with a new minimum contention window.

    By default the stage count ``m`` is held fixed, so ``cw_max`` scales with
    ``cw_min``. With ``fixed_cw_max=True`` the original ``cw_max`` is kept and
    ``m`` is recomputed; the new window must then divide ``cw_max`` by a power
    of two.
    """
    params = scenario.params
    if not fixed_cw_max:
        return replace(scenario, params=replace(params, cw_min=cw_min))
    target = params.cw_max
    if cw_min < 2 or target % cw_min or (target // cw_min) & (target // cw_min - 1):
        raise InvalidParameterError(
            f"cw_min={cw_min} cannot reach cw_max={target} by doubling"
        )
    return replace(scenario, params=replace(params, cw_min=cw_min, m=(target // cw_min).bit_length() - 1))
