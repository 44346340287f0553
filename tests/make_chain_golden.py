"""Write tests/golden/chain_coulomb_units.json: the chain's lambda^2 and A^-1 in Coulomb units, to 25 digits.

For each ion count N in SIZES it takes the 50-digit equilibrium of
oracles.equilibrium_oracle, builds the dynamical matrix A there at 50
digits (oracles.dynamical_matrix_oracle), and writes A's eigenvalues
lambda^2 (mpmath.eigsy, ascending) and the upper triangle of A^-1
(mpmath.inverse, row by row, diagonal included) as decimal strings of 25
significant digits. Nothing of gradchain's Newton, eigensolver or float64
arithmetic is used. test_chain.py reads the file; a trap's mode
frequencies are nu1 lambda and its J is
J_nl = (hbar / 2 m nu1^2) g_n g_l (A^-1)_nl.

Run once, offline, from the repository root:

    PYTHONPATH=src python tests/make_chain_golden.py

It takes about a minute: the N = 50 root alone takes ~20 s. This script is
not a test module and pytest does not collect it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath

from oracles import dynamical_matrix_oracle, equilibrium_oracle

SIZES = (*range(2, 13), 20, 30, 40, 49, 50)
WORKING_DIGITS = 50
WRITTEN_DIGITS = 25
OUT = Path(__file__).parent / "golden" / "chain_coulomb_units.json"


def golden_entry(n: int) -> dict:
    with mpmath.workdps(WORKING_DIGITS):
        u = equilibrium_oracle(n, WORKING_DIGITS)
        residual = max(abs(u[m] - sum(mpmath.sign(u[m] - u[p]) / (u[m] - u[p]) ** 2 for p in range(n) if p != m))
                       for m in range(n))
        if residual > mpmath.mpf(10) ** (-(WRITTEN_DIGITS + 10)):
            raise RuntimeError(f"N = {n}: force balance residual {mpmath.nstr(residual, 3)} at the root")
        a = dynamical_matrix_oracle(u)
        eigenvalues = sorted(mpmath.eigsy(a, eigvals_only=True))
        inverse = mpmath.inverse(a)
        return {"lambda_squared": [mpmath.nstr(x, WRITTEN_DIGITS) for x in eigenvalues],
                "inverse_upper": [mpmath.nstr(inverse[i, k], WRITTEN_DIGITS) for i in range(n) for k in range(i, n)]}


def main() -> int:
    golden = {}
    for n in SIZES:
        golden[str(n)] = golden_entry(n)
        print(f"N = {n} done", file=sys.stderr)
    OUT.write_text(json.dumps(golden, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
