"""Simulator for ion chains in a static axial magnetic-field gradient.

Pipeline: a validated TrapConfig feeds the chain solver (equilibrium
positions and normal modes), whose output feeds the coupling report
(gradient-induced J matrix, carrier shifts, effective Lamb-Dicke
parameters); the report parameterizes exact spin dynamics driven either
directly or through the pulse-program DSL.
"""

from .chain import ChainSolution, dynamical_matrix, length_scale, normal_modes, solve_chain, solve_equilibrium
from .config import TrapConfig, load_config, validate_config
from .constants import CONSTANTS, SPECIES_REGISTRY, PhysicalConstants, Species
from .coupling import (
    CouplingReport,
    build_report,
    effective_lamb_dicke,
    epsilon_matrix,
    j_matrix,
    omega_gradients,
    qubit_frequencies,
    sideband_spectrum,
    validity_epsilon,
)
from .pulse import PulseProgram, RunRecord, interpret, parse
from .spins import (
    PulseSpec,
    SpinHamiltonian,
    SpinState,
    apply_pulse,
    expectation,
    free_evolution,
    initialize,
)
from .units import parse_quantity

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "ChainSolution",
    "CouplingReport",
    "PhysicalConstants",
    "PulseProgram",
    "PulseSpec",
    "RunRecord",
    "SPECIES_REGISTRY",
    "Species",
    "SpinHamiltonian",
    "SpinState",
    "TrapConfig",
    "apply_pulse",
    "build_report",
    "dynamical_matrix",
    "effective_lamb_dicke",
    "epsilon_matrix",
    "expectation",
    "free_evolution",
    "initialize",
    "interpret",
    "j_matrix",
    "length_scale",
    "load_config",
    "normal_modes",
    "omega_gradients",
    "parse",
    "parse_quantity",
    "qubit_frequencies",
    "sideband_spectrum",
    "solve_chain",
    "solve_equilibrium",
    "validate_config",
    "validity_epsilon",
]
