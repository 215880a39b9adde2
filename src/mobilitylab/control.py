"""PI body-rate control and torque allocation.

The PI gains are the module constants KP, KI (the same on every axis) and
INTEGRATOR_LIMIT. The 8-rotor two-agent vehicle is actuated through four
propeller pairs (A..D); each pair force is the difference of two opposed
rotors, of which only one spins at a time. The allocation map is

    [f_cmd, tau_x, tau_y, tau_z]^T = M [f_A, f_B, f_C, f_D]^T

with M as printed below; allocation solves pure torque (f_cmd = 0).

Rotor-index convention: pair A = rotors (1, 5), B = (2, 6), C = (3, 7),
D = (4, 8); the first index of each pair spins for a positive pair force.
Any column permutation consistent with M would be equally valid.

The closed loop (``dynamics.simulate_closed_loop``) writes the PI law and
``allocate`` out on Python floats in its tick, and scales the pair forces
uniformly into the thrust limit; a test pins it to ``allocate`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: PI gains on every axis, tuned so the closed rolling loop tracks a 1 rad/s
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
    # M has orthogonal rows: M^-1 = M^T diag(4, 4c^2, 4c^2, 4 k_tau^2)^-1
    d = (4.0, 4.0 * c ** 2, 4.0 * c ** 2, 4.0 * k_tau ** 2)
    inverse = tuple(tuple(m / dj for m, dj in zip(col, d))
                    for col in zip(*rows))
    return MixerGeometry(matrix_m=np.array(rows), inverse_rows=inverse)


def allocate(torque: Sequence[float], mixer: MixerGeometry
             ) -> tuple[float, ...]:
    """Pair forces (f_A..f_D) with M @ f = (0, torque)."""
    tx, ty, tz = torque
    (_, b_a, c_a, d_a), (_, b_b, c_b, d_b), (_, b_c, c_c, d_c), \
        (_, b_d, c_d, d_d) = mixer.inverse_rows
    return (b_a * tx + c_a * ty + d_a * tz, b_b * tx + c_b * ty + d_b * tz,
            b_c * tx + c_c * ty + d_c * tz, b_d * tx + c_d * ty + d_d * tz)
