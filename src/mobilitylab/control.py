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

``rate_loop`` builds the closed loop's per-run control tick (PI law,
``allocate``, uniform saturation) on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


def rate_loop(mixer: MixerGeometry, max_rotor_thrust: float, dt: float
              ) -> Callable[[Sequence[float], float], tuple[float, bool]]:
    """The closed loop's control tick for one run, (omega_des, omega_y) ->
    (torque_y, saturated): PI on the body-rate error (measured rates other
    than omega_y are zero), ``allocate``, then uniform scaling of the pair
    forces into the thrust limit, which keeps the torque direction.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    m_a, m_b, m_c, m_d = mixer.matrix_m[2].tolist()
    lo, hi = -INTEGRATOR_LIMIT, INTEGRATOR_LIMIT
    i_x = i_y = i_z = 0.0

    def tick(omega_des, omega_y: float) -> tuple[float, bool]:
        nonlocal i_x, i_y, i_z
        if type(omega_des) is np.ndarray:  # unpacking yields numpy scalars
            omega_des = omega_des.tolist()
        try:
            d_x, d_y, d_z = omega_des
        except ValueError:
            raise ValueError("omega_des must have 3 entries") from None
        e_x, e_y, e_z = float(d_x), float(d_y) - omega_y, float(d_z)
        i_x, i_y, i_z = i_x + e_x * dt, i_y + e_y * dt, i_z + e_z * dt
        # min(max(i, lo), hi) written out: the builtin calls cost more
        i_x = lo if i_x < lo else hi if i_x > hi else i_x
        i_y = lo if i_y < lo else hi if i_y > hi else i_y
        i_z = lo if i_z < lo else hi if i_z > hi else i_z
        f_a, f_b, f_c, f_d = allocate(
            (KP * e_x + KI * i_x, KP * e_y + KI * i_y, KP * e_z + KI * i_z),
            mixer)
        peak = max(abs(f_a), abs(f_b), abs(f_c), abs(f_d))
        if peak <= max_rotor_thrust:
            return m_a * f_a + m_b * f_b + m_c * f_c + m_d * f_d, False
        s = max_rotor_thrust / peak
        return (m_a * (f_a * s) + m_b * (f_b * s) + m_c * (f_c * s)
                + m_d * (f_d * s)), True

    return tick


def pair_to_rotor_speeds(f_pair: float, k_t: float) -> tuple[float, float]:
    """Rotor speeds (n_i, n_j) of a pair; exactly one spins, f = k_t n^2."""
    if k_t <= 0:
        raise ValueError(f"k_t must be > 0, got {k_t!r}")
    if f_pair >= 0:
        return math.sqrt(f_pair / k_t), 0.0
    return 0.0, math.sqrt(-f_pair / k_t)
