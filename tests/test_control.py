import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mobilitylab import control

A = 0.14
K_TAU = 0.016


@pytest.fixture
def mixer():
    return control.mixer_matrix(A, K_TAU)


def test_mixer_determinant(mixer):
    c = A / math.sqrt(2.0)
    assert abs(np.linalg.det(mixer.matrix_m)) == pytest.approx(
        16 * c ** 2 * K_TAU, rel=1e-10)


def test_mixer_inverse_is_exact(mixer):
    ident = mixer.matrix_m @ np.array(mixer.inverse_rows)
    assert np.allclose(ident, np.eye(4), atol=1e-13)


def test_mixer_rejects_bad_geometry():
    with pytest.raises(ValueError):
        control.mixer_matrix(0.0, K_TAU)
    with pytest.raises(ValueError):
        control.mixer_matrix(A, -1.0)


def test_pure_pitch_torque_allocation(mixer):
    # tau_y = 0.1 N m, zero thrust: pair forces +-tau/(4c)
    forces = control.allocate(np.array([0.0, 0.1, 0.0]), mixer)
    c = A / math.sqrt(2.0)
    expect = 0.1 / (4 * c)
    assert np.allclose(np.abs(forces), expect, rtol=1e-12)
    assert np.allclose(sorted(forces), [-expect, -expect, expect, expect])
    # zero net thrust and zero roll/yaw torque
    wrench = mixer.matrix_m @ forces
    assert np.allclose(wrench, [0.0, 0.0, 0.1, 0.0], atol=1e-14)


@given(tx=st.floats(-1, 1), ty=st.floats(-1, 1), tz=st.floats(-0.05, 0.05))
def test_allocation_round_trip(tx, ty, tz):
    mixer = control.mixer_matrix(A, K_TAU)
    forces = control.allocate(np.array([tx, ty, tz]), mixer)
    wrench = mixer.matrix_m @ forces
    assert np.allclose(wrench, [0.0, tx, ty, tz], rtol=1e-12, atol=1e-12)


def test_saturation_scales_uniformly():
    forces = (10.0, -5.0, 2.5, -10.0)
    scaled, flag = control.saturate_pair_forces(forces, 8.0)
    assert flag
    assert type(scaled) is tuple
    assert np.max(np.abs(scaled)) == pytest.approx(8.0)
    # direction preserved
    assert np.allclose(np.divide(scaled, scaled[0]),
                       np.divide(forces, forces[0]))


def test_saturation_noop_inside_limit():
    forces = (1.0, -1.0, 0.5, -0.5)
    scaled, flag = control.saturate_pair_forces(forces, 8.0)
    assert not flag
    assert scaled is forces


def test_pair_to_rotor_speeds_one_spins():
    k_t = 2.0e-6
    n_i, n_j = control.pair_to_rotor_speeds(8.0, k_t)
    assert n_j == 0.0
    assert k_t * n_i ** 2 == pytest.approx(8.0, rel=1e-12)
    assert n_i == pytest.approx(2000.0, rel=1e-12)  # 8 N at 2000 rad/s
    n_i, n_j = control.pair_to_rotor_speeds(-0.5, k_t)
    assert n_i == 0.0
    assert k_t * n_j ** 2 == pytest.approx(0.5, rel=1e-12)


def test_pair_to_rotor_speeds_validation():
    with pytest.raises(ValueError):
        control.pair_to_rotor_speeds(1.0, 0.0)


def test_pi_controller_proportional_term():
    torque, integ = control.pi_rate_control(np.array([0, 1.0, 0]),
                                            np.zeros(3), np.zeros(3),
                                            dt=0.01)
    # tau = Kp e + Ki I with I = e dt
    assert torque[1] == pytest.approx(0.4 * 1.0 + 0.2 * 0.01)
    assert integ[1] == pytest.approx(0.01)


def test_pi_integrator_clamps():
    integ = np.zeros(3)
    for _ in range(2000):
        _, integ = control.pi_rate_control(np.array([0, 10.0, 0]),
                                           np.zeros(3), integ, dt=0.01)
    assert integ[1] == pytest.approx(control.INTEGRATOR_LIMIT)


def test_pi_rejects_bad_dt():
    with pytest.raises(ValueError):
        control.pi_rate_control(np.zeros(3), np.zeros(3), np.zeros(3),
                                dt=0.0)
