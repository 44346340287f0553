"""Simulator for ion chains in a static axial magnetic-field gradient.

Pipeline: a validated TrapConfig feeds the chain solver (equilibrium
positions and normal modes), whose output feeds the coupling report
(gradient-induced J matrix, carrier shifts, effective Lamb-Dicke
parameters); the report parameterizes exact spin dynamics driven either
directly or through the pulse-program DSL.

The spin layer, `spins` and `pulse`, loads on first use: `import gradchain`
(and every command but `simulate`) binds both modules without running
them. Each is in `sys.modules` and on the package from the start, and its
code runs at the first attribute read, through the module or through one of
the names re-exported here.
"""

import importlib.util
import sys

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
from .units import parse_quantity


def _lazy_submodule(name: str):
    """Bind gradchain.<name> in sys.modules and on the package; its code runs at the first attribute read.

    LazyLoader is not safe when two threads make that first read at once
    (fixed in Python 3.12); gradchain starts no threads.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spins = _lazy_submodule("spins")
pulse = _lazy_submodule("pulse")

# re-exported spin-layer name -> the submodule that defines it
_LAZY_NAMES = {
    **dict.fromkeys(("PulseProgram", "RunRecord", "interpret", "parse"), "pulse"),
    **dict.fromkeys(("PulseSpec", "SpinHamiltonian", "SpinState", "apply_pulse", "expectation",
                     "free_evolution", "initialize"), "spins"),
}


def __getattr__(name: str):
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_LAZY_NAMES[name]], name)


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
