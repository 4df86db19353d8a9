"""Reference computations the benchmark checks program outputs against.

Everything here is computed from first principles with numpy, independently
of the closed forms under test: symplectic spectra from the eigenvalues of
i*Omega*V, optimized squeezing from the smallest eigenvalue of 2V, and the
step-filter overlap from its defining integral.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_OMEGA = np.array([[0.0, 1.0, 0.0, 0.0],
                   [-1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0],
                   [0.0, 0.0, -1.0, 0.0]])
_PT = np.diag([1.0, 1.0, 1.0, -1.0])


def symplectic_eigenvalues(v: np.ndarray) -> np.ndarray:
    """The two symplectic eigenvalues of a 4x4 covariance, ascending.

    The eigenvalues of i*Omega*V come in pairs +-nu_k.
    """
    ev = np.linalg.eigvals(1j * _OMEGA @ v)
    return np.sort(np.abs(ev.real))[::2]


def spectral_outputs(v: np.ndarray) -> dict[str, float]:
    """E_N, purity and optimized squeezing of a two-mode covariance V.

    With the vacuum at V = I/2: E_N = max(0, -ln 2 nu-~) for the partial
    transpose, purity = 1 / (4 nu_1 nu_2), and the minimal hybrid-quadrature
    variance is the smallest eigenvalue of 2V, since every unit 4-vector is
    (mu_i cos phi_i, mu_i sin phi_i, mu_s cos phi_s, mu_s sin phi_s).
    """
    nu = symplectic_eigenvalues(v)
    nu_pt = symplectic_eigenvalues(_PT @ v @ _PT)
    return {
        "e_n": max(0.0, -math.log(2.0 * nu_pt[0])),
        "purity": 1.0 / (4.0 * nu[0] * nu[1]),
        "s_q_opt": float(np.linalg.eigvalsh(2.0 * v)[0]),
    }


def step_overlap(omega_k: float, tau_i: float, omega_l: float, tau_s: float) -> tuple[float, float]:
    """(K_f, L_f) of two step filters: the integral over [0, min tau] of
    exp(i (omega_k - omega_l) t) / sqrt(tau_i tau_s)."""
    delta = omega_k - omega_l
    tau = min(tau_i, tau_s)
    if delta == 0.0:
        val = complex(tau)
    else:
        val = (cmath.exp(1j * delta * tau) - 1.0) / (1j * delta)
    val /= math.sqrt(tau_i * tau_s)
    return val.real, val.imag


def close(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= abs_ + rel * abs(want)
