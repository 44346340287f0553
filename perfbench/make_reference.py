"""Regenerate perfbench/reference.json, the stored references of the output checks.

Run from the repository root:

    python3 perfbench/make_reference.py

It stores the dimensionless equilibrium positions of every chain size
N = 1..50 and three Yb171 constants. The benchmark derives everything it
checks from these: positions in metres scale with the Coulomb length,
mode eigenvalues are those of the dynamical matrix at the stored
positions, and the J matrix is

    J[n, l] = hbar / (2 m w1^2) * g_n g_l * inv(A)[n, l],   g_n = kappa * B'(z_n),

which is independent of the mode-sign convention. Before writing, the
script checks the stored positions against the force balance and the J
formula against gradchain's own J matrix.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

import checks

OUT = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    sys.path.insert(0, str(Path("src").resolve()))
    from gradchain import build_report, solve_equilibrium, validate_config, solve_chain
    from gradchain.chain import length_scale
    from gradchain.constants import CONSTANTS, get_species

    species = get_species("Yb171")
    positions = {}
    for n in range(1, 51):
        u = solve_equilibrium(n)
        force = u.copy()
        for i in range(n):
            for k in range(n):
                if k != i:
                    force[i] -= math.copysign(1.0, u[i] - u[k]) / (u[i] - u[k]) ** 2
        if np.max(np.abs(force)) > 1e-12:
            raise SystemExit(f"N={n}: force residual {np.max(np.abs(force)):.2e}")
        positions[str(n)] = [float(x) for x in u]

    unit = validate_config({"species": "Yb171", "N": 2, "nu1": 1.0, "field": {"uniform": {"b": 1.0}}})
    ref = {
        "species": "Yb171",
        "kappa_rad_per_s_per_tesla": species.differential_moment * CONSTANTS.bohr_magneton / CONSTANTS.hbar,
        "hbar_over_2m": CONSTANTS.hbar / (2.0 * species.mass),
        "zeta_m_at_1hz": length_scale(unit),
        "positions": positions,
    }

    table = checks.Reference(ref)
    for n, nu1, b in ((2, 1e5, 10.0), (10, 1e5, 10.0), (16, 1.5e5, 20.0), (50, 8e4, 3.0)):
        config = validate_config({"species": "Yb171", "N": n, "nu1": nu1, "field": {"uniform": {"b": b}}})
        j_code = build_report(config, solve_chain(config)).j_matrix / (2.0 * math.pi)
        j_formula = table.j_matrix_hz(n, nu1, np.full(n, b))
        err = np.max(np.abs(j_code - j_formula)) / np.max(np.abs(j_code))
        if err > 1e-10:
            raise SystemExit(f"N={n}: J formula differs from build_report by {err:.2e}")

    OUT.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
