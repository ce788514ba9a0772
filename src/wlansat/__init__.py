"""Saturation throughput of dense, partially overlapping WLAN deployments.

The package combines three layers:

* an occupancy model: a reversible Markov chain over the independent sets of
  the WLAN conflict graph, solved in product form (:mod:`wlansat.ctmc`);
* a slotted-backoff contention model that converts each state transition into
  a collision discount ``gamma`` (:mod:`wlansat.bianchi`,
  :mod:`wlansat.throughput`);
* a discrete-event CSMA/CA simulator used to validate the analytical results
  (:mod:`wlansat.sim`).

The ``wlansat`` command-line tool exposes all of it; see the README.
"""

from .bianchi import BianchiPoint, expected_backoff, slot_probabilities, solve_fixed_point
from .ctmc import (
    FeasibleStateSpace,
    StationaryDistribution,
    dominant_states,
    enumerate_states,
    format_state,
    occupancy_mass,
    state_members,
    stationary_generator_solve,
    stationary_product_form,
)
from .errors import (
    ContractViolationError,
    InvalidParameterError,
    NumericalError,
    StateSpaceTooLargeError,
    WlansatError,
)
from .scenario import (
    ConflictGraph,
    PhyMacParams,
    Scenario,
    Wlan,
    bundled_scenario,
    lambda_of,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    theta_of,
    with_cw_min,
    with_n_nodes,
)
from .sim import ProbeRecord, SimConfig, SimulationResult, kernel_backend, simulate
from .throughput import (
    Contribution,
    GammaRecord,
    ThroughputReport,
    analyze,
    conditional_throughput,
    contender_set,
    dominant_closure,
    gamma_factor,
)

__version__ = "0.1.0"

__all__ = [
    "BianchiPoint",
    "ConflictGraph",
    "ContractViolationError",
    "Contribution",
    "FeasibleStateSpace",
    "GammaRecord",
    "InvalidParameterError",
    "NumericalError",
    "PhyMacParams",
    "ProbeRecord",
    "Scenario",
    "SimConfig",
    "SimulationResult",
    "StateSpaceTooLargeError",
    "StationaryDistribution",
    "ThroughputReport",
    "Wlan",
    "WlansatError",
    "analyze",
    "bundled_scenario",
    "conditional_throughput",
    "contender_set",
    "dominant_closure",
    "dominant_states",
    "enumerate_states",
    "expected_backoff",
    "format_state",
    "gamma_factor",
    "kernel_backend",
    "lambda_of",
    "load_scenario",
    "occupancy_mass",
    "scenario_from_dict",
    "scenario_to_dict",
    "simulate",
    "slot_probabilities",
    "solve_fixed_point",
    "state_members",
    "stationary_generator_solve",
    "stationary_product_form",
    "theta_of",
    "with_cw_min",
    "with_n_nodes",
]
