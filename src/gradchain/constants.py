"""Physical constants and the ion species registry.

Constants are CODATA 2022 values, frozen as literals so results are
reproducible regardless of the environment. They are not configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.0545718176461565e-34       # J s (h exact / 2 pi)
    bohr_magneton: float = 9.2740100657e-24    # J/T
    elementary_charge: float = 1.602176634e-19  # C (exact)
    vacuum_permittivity: float = 8.8541878188e-12  # F/m
    atomic_mass_unit: float = 1.66053906892e-27    # kg
    speed_of_light: float = 299792458.0            # m/s (exact)


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class Species:
    """One ion species usable as a qubit.

    Magnetic moments of the two qubit states are stored as dimensionless
    multiples of the Bohr magneton; the differential moment
    (moment_state1 - moment_state0) is what couples to field gradients.
    """

    name: str
    mass: float                    # kg
    transition_frequency_hz: float  # qubit splitting, ordinary frequency
    moment_state0: float           # units of mu_B
    moment_state1: float           # units of mu_B

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError(f"species {self.name}: mass must be positive")
        if self.transition_frequency_hz <= 0:
            raise ValueError(f"species {self.name}: transition frequency must be positive")

    @property
    def omega0(self) -> float:
        """Qubit transition frequency in rad/s."""
        return 2.0 * math.pi * self.transition_frequency_hz

    @property
    def differential_moment(self) -> float:
        """(mu_1 - mu_0) in units of mu_B."""
        return self.moment_state1 - self.moment_state0


# 171Yb+ hyperfine qubit: |0> = |S1/2, F=0>, |1> = |S1/2, F=1, mF=1>.
# Only |1> sees a linear Zeeman shift (one Bohr magneton per tesla).
SPECIES_REGISTRY: dict[str, Species] = {
    "Yb171": Species(
        name="Yb171",
        mass=171.0 * CONSTANTS.atomic_mass_unit,
        transition_frequency_hz=12.6e9,
        moment_state0=0.0,
        moment_state1=1.0,
    ),
}


def get_species(name: str) -> Species:
    """The registered species called `name`; KeyError if there is none."""
    return SPECIES_REGISTRY[name]
