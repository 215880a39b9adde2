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
    torque, integ = [], []
    for des, meas, i_old in zip(omega_des, omega_meas, integrator_state,
                                strict=True):
        e = float(des) - float(meas)
        i_new = min(max(i_old + e * dt, -INTEGRATOR_LIMIT), INTEGRATOR_LIMIT)
        torque.append(KP * e + KI * i_new)
        integ.append(i_new)
    return tuple(torque), tuple(integ)


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
    return tuple(b * tx + c * ty + d * tz
                 for _, b, c, d in mixer.inverse_rows)


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
