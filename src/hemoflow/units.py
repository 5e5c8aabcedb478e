"""Unit conversion constants.

Clinical quantities arrive in mmHg / l/min / CGS (dyne, cm); the solver
works in SI. Conversion factors are fixed project-wide so that table
reproduction is deterministic.
"""

MMHG_TO_PA = 133.322
MMHG_TO_DYN_CM2 = 1333.22
LMIN_TO_M3S = 1.6667e-5
LMIN_TO_CM3S = LMIN_TO_M3S * 1e6
M3S_TO_CM3S = 1.0e6
DYN_CM2_TO_PA = 0.1


def lmin_to_m3s(q):
    return q * LMIN_TO_M3S
