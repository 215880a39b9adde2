"""PI body-rate control, torque allocation and thrust-to-speed mapping.

The PI gains are the module constants KP, KI (the same on every axis) and
INTEGRATOR_LIMIT. The 8-rotor two-agent vehicle is actuated through four
propeller pairs (A..D); each pair force is the difference of two opposed
rotors, of which only one spins at a time. The allocation map is

    [f_cmd, tau_x, tau_y, tau_z]^T = M [f_A, f_B, f_C, f_D]^T

with M as printed below; allocation solves pure torque (f_cmd = 0).

Rotor-index convention: pair A = rotors (1, 5), B = (2, 6), C = (3, 7),
D = (4, 8); the first index of each pair spins for a positive pair force.
Any column permutation consistent with M would be equally valid.
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


def pi_rate_control(omega_des: Sequence[float], omega_meas: Sequence[float],
                    integrator_state: Sequence[float], dt: float
                    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """One PI step: tau = KP e + KI I, I clamped at +-INTEGRATOR_LIMIT.

    Takes 3-sequences (tuples or ndarrays); returns the body torque and the
    new integrator state as tuples.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    if type(omega_des) is np.ndarray:  # unpacking yields slow numpy scalars
        omega_des = omega_des.tolist()
    try:
        (d_x, d_y, d_z), (m_x, m_y, m_z), (i_x, i_y, i_z) = (
            omega_des, omega_meas, integrator_state)
    except ValueError:
        raise ValueError("omega_des, omega_meas and integrator_state must "
                         "each have 3 entries") from None
    e_x, e_y, e_z = (float(d_x) - float(m_x), float(d_y) - float(m_y),
                     float(d_z) - float(m_z))
    i_x = min(max(i_x + e_x * dt, -INTEGRATOR_LIMIT), INTEGRATOR_LIMIT)
    i_y = min(max(i_y + e_y * dt, -INTEGRATOR_LIMIT), INTEGRATOR_LIMIT)
    i_z = min(max(i_z + e_z * dt, -INTEGRATOR_LIMIT), INTEGRATOR_LIMIT)
    return ((KP * e_x + KI * i_x, KP * e_y + KI * i_y, KP * e_z + KI * i_z),
            (i_x, i_y, i_z))


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


def saturate_pair_forces(forces: Sequence[float], max_rotor_thrust: float
                         ) -> tuple[Sequence[float], bool]:
    """Scale pair forces uniformly into the rotor thrust limit.

    Uniform scaling preserves the commanded torque direction. Returns the
    forces (the input itself when inside the limit, else a scaled tuple)
    and a saturation flag.
    """
    peak = max(map(abs, forces))
    if peak <= max_rotor_thrust:
        return forces, False
    scale = max_rotor_thrust / peak
    return tuple(f * scale for f in forces), True


def pair_to_rotor_speeds(f_pair: float, k_t: float) -> tuple[float, float]:
    """Rotor speeds (n_i, n_j) of a pair; exactly one spins, f = k_t n^2."""
    if k_t <= 0:
        raise ValueError(f"k_t must be > 0, got {k_t!r}")
    if f_pair >= 0:
        return math.sqrt(f_pair / k_t), 0.0
    return 0.0, math.sqrt(-f_pair / k_t)
