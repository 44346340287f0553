"""Simulator for ion chains in a static axial magnetic-field gradient.

Pipeline: a validated TrapConfig feeds the chain solver (equilibrium
positions and normal modes), whose output feeds the coupling report
(gradient-induced J matrix, carrier shifts, effective Lamb-Dicke
parameters); the report parameterizes exact spin dynamics driven either
directly or through the pulse-program DSL.

The package root exports four names: validate_config, solve_chain,
solve_equilibrium and build_report. Every other name is imported from its
module (gradchain.config, gradchain.chain, gradchain.coupling,
gradchain.spins, gradchain.pulse, ...).

The spin layer, `spins` and `pulse`, loads on first use: `import gradchain`
(and every command but `simulate`) binds both modules without running
them. Each is in `sys.modules` and on the package from the start, and its
code runs at the first attribute read.
"""

import importlib.util
import sys

from .chain import solve_chain, solve_equilibrium
from .config import validate_config
from .coupling import build_report


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

__version__ = "0.1.0"

__all__ = ["build_report", "solve_chain", "solve_equilibrium", "validate_config"]
