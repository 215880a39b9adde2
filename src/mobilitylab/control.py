"""PI roll-rate gains and torque allocation.

KP, KI and INTEGRATOR_LIMIT are the gains the planar closed loop
(``dynamics.simulate_closed_loop``) applies to the roll rate. The 8-rotor
two-agent vehicle is actuated through four propeller pairs (A..D); each
pair force is the difference of two opposed rotors, of which only one spins
at a time. The allocation map is

    [f_cmd, tau_x, tau_y, tau_z]^T = M [f_A, f_B, f_C, f_D]^T

with M as printed below; allocation solves pure torque (f_cmd = 0).

Rotor-index convention: pair A = rotors (1, 5), B = (2, 6), C = (3, 7),
D = (4, 8); the first index of each pair spins for a positive pair force.
Any column permutation consistent with M would be equally valid.

M has orthogonal rows, so M^-1 (0, tau) is M's column sign pattern on
X = tau_x/(4c), Y = tau_y/(4c), Z = tau_z/(4 k_tau), c = a/sqrt(2):
(f_A, f_B, f_C, f_D) = (-X-Y-Z, X-Y+Z, X+Y-Z, -X+Y+Z). These are the sign
triples with product -1, their negatives the other four, so the peak pair
force is max |f_i| = |X| + |Y| + |Z|. No model allocates through M: the
planar ones load every pair with the one force |tau_y|/(4c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: roll-rate PI gains, tuned so the closed rolling loop tracks a 1 rad/s
#: step to < 2%: KP in N m s/rad, KI in N m/rad, the integrator clamp in rad
KP, KI, INTEGRATOR_LIMIT = 0.4, 0.2, 0.5


@dataclass(frozen=True)
class MixerGeometry:
    matrix_m: np.ndarray
    inverse_rows: tuple[tuple[float, ...], ...]  # rows of M^-1


def mixer_matrix(arm_length_a: float, k_tau: float) -> MixerGeometry:
    """Build the pair-force allocation matrix for arm length a and k_tau."""
    if arm_length_a <= 0 or k_tau <= 0:
        raise ValueError("arm_length_a and k_tau must be > 0")
    c = arm_length_a / math.sqrt(2.0)
    rows = ((1.0, 1.0, 1.0, 1.0),
            (-c, c, c, -c),
            (-c, -c, c, c),
            (-k_tau, k_tau, -k_tau, k_tau))
    # M has orthogonal rows, row i of one magnitude s_i = |M_i0|:
    # M^-1 = sign(M)^T diag(4 s)^-1, with no square to underflow
    matrix = np.array(rows)
    inverse = np.sign(matrix.T) / (4.0 * abs(matrix[:, 0]))
    return MixerGeometry(matrix_m=matrix,
                         inverse_rows=tuple(map(tuple, inverse.tolist())))


def allocate(torque: Sequence[float], mixer: MixerGeometry
             ) -> tuple[float, ...]:
    """Pair forces (f_A..f_D) with M @ f = (0, torque): the sign pattern
    of M's columns on X, Y, Z, M^-1's diagonal times the torque, bit for
    bit M^-1's rows times (0, torque)."""
    (t_x, t_y, t_z), rows = torque, mixer.inverse_rows
    x, y, z = rows[1][1] * t_x, rows[2][2] * t_y, rows[3][3] * t_z
    return -x - y - z, x - y + z, x + y - z, -x + y + z
