"""State-independent machinery for two-mode Gaussian states.

All states handled here are zero-mean and specified by a 4x4 covariance
matrix over the quadrature vector (X_I, Y_I, X_S, Y_S), normalized so the
vacuum matrix is I/2.  All covariances handled here carry a restricted
block structure,

    V = 1/2 [[D_I, 0,   C11,  C12 ],
             [0,   D_I, C12, -C11 ],
             [C11, C12, D_S,  0   ],
             [C12, -C11, 0,   D_S ]],

which makes the symplectic spectrum, purity and quadrature optimization
closed forms in the invariants (D_I, D_S, |C|, D_x), with
C^2 = C11^2 + C12^2 and D_x = D_I D_S - C^2.  Every function is pure;
inputs are immutable.
Blocks and matrices may hold a whole grid of states as arrays; the checks
then raise for the first state that fails them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_BLOCK_TOL = 1e-9
_VACUUM_FLOOR = 1.0 - 1e-10
_SYMPLECTIC_FLOOR = 0.5 - 1e-10


def _at(x, i):
    """Element i of x (x itself if scalar), as a Python number."""
    return np.ravel(x)[i].item()


def _reject(bad, error) -> None:
    """Raise error(i) for the first element i where bad holds (a scalar skips the array search)."""
    hits = np.flatnonzero(bad) if np.ndim(bad) else [0] * bool(bad)
    if len(hits):
        raise error(int(hits[0]))


def _check_seed(seed) -> None:
    """Raise ValueError unless seed is a non-negative integer (not a bool)."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _each(fn, x):
    """fn, a formula in math functions, elementwise: numpy's sinh and cosh
    differ from math's in the last bit, on about a quarter of inputs, and
    the Bell optimizer amplifies that.  fn runs once per distinct value, so
    a grid pays per grid line, not per point."""
    if np.ndim(x) == 0:
        return fn(x)
    # distinct bit patterns keep -0.0 apart from 0.0
    distinct, inverse = np.unique(np.asarray(x, dtype=float).view(np.int64), return_inverse=True)
    out = np.array([fn(v) for v in distinct.view(np.float64).tolist()], dtype=float)
    return out[inverse].reshape(np.shape(x))


@dataclass(frozen=True)
class CovarianceBlocks:
    """Independent elements (D_I, D_S, C11, C12) of the block covariance, and
    the invariant D_x = D_I D_S - C11^2 - C12^2 (16 det V = D_x^2).

    Fields are floats, or equal-shape arrays for a grid of states.  The models
    supply D_x as a sum of non-negative terms, exact where the subtraction
    cancels at large squeezing; blocks built without it (from a matrix or by
    hand) take it from their entries.  Model-generated blocks satisfy
    d_i, d_s >= 1 (vacuum floor) and are physical; ``check_blocks`` enforces
    both.  A D_x past the float range is an OverflowError for its row.
    """

    d_i: float
    d_s: float
    c11: float
    c12: float
    d_x: float | None = field(default=None, compare=False)

    def __post_init__(self):
        vals = (self.d_i, self.d_s, self.c11, self.c12)
        _reject(~np.isfinite(np.broadcast_arrays(*vals)).all(axis=0), lambda i: ValueError(
            f"covariance blocks must be finite, got {tuple(_at(v, i) for v in vals)}"))
        if self.d_x is None:
            with np.errstate(over="ignore", invalid="ignore"):
                d_x = self.d_i * self.d_s - self.c11 * self.c11 - self.c12 * self.c12
            object.__setattr__(self, "d_x", d_x)
        _reject(~np.isfinite(self.d_x), lambda i: OverflowError(34, "Numerical result out of range"))

    def correlation_strength(self):
        """sqrt(C11**2 + C12**2), the magnitude of the cross-mode coupling."""
        return np.hypot(self.c11, self.c12)


class CovarianceMatrix:
    """Immutable 4x4 covariance matrix with the restricted block structure,
    or an (..., 4, 4) stack of them checked all at once."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        m = np.array(entries, dtype=float)
        if m.shape[-2:] != (4, 4):
            raise ValueError(f"covariance matrix must be 4x4, got {m.shape}")
        each = (-2, -1)
        _reject(~np.isfinite(m).all(axis=each),
                lambda i: ValueError("covariance matrix must be finite"))
        _reject(np.abs(m - np.swapaxes(m, -1, -2)).max(axis=each) > 1e-12,
                lambda i: ValueError("covariance matrix must be symmetric to 1e-12"))
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        scale = np.maximum(1.0, np.abs(m).max(axis=each))
        _reject(np.abs(m - _assemble(self.blocks())).max(axis=each) > _BLOCK_TOL * scale,
                lambda i: ValueError("matrix does not have the restricted block structure"))
        check_blocks(self.blocks())

    def __setattr__(self, name, value):
        raise AttributeError("CovarianceMatrix is immutable")

    def __repr__(self):
        return f"CovarianceMatrix({self.blocks()})"

    def blocks(self) -> CovarianceBlocks:
        m = self.entries
        return CovarianceBlocks(
            2.0 * m[..., 0, 0], 2.0 * m[..., 2, 2], 2.0 * m[..., 0, 2], 2.0 * m[..., 0, 3])


def _assemble(b: CovarianceBlocks) -> np.ndarray:
    """The restricted block matrix (global 1/2 included) per set of blocks."""
    d_i, d_s, c11, c12 = np.broadcast_arrays(b.d_i, b.d_s, b.c11, b.c12)
    z = np.zeros(d_i.shape)
    rows = [[d_i, z, c11, c12], [z, d_i, c12, -c11], [c11, c12, d_s, z], [c12, -c11, z, d_s]]
    return 0.5 * np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _nu_minus(b: CovarianceBlocks):
    """Smaller symplectic eigenvalue of V, for D_x > 0:
    D_x / (sqrt((D_I - D_S)^2 + 4 D_x) + |D_I - D_S|), from the invariants
    det V = D_x^2/16 and Delta = ((D_I - D_S)^2 + 2 D_x)/4 (Serafini,
    Illuminati & De Siena 2004), rationalized so that nothing cancels."""
    u = np.abs(b.d_i - b.d_s)
    return b.d_x / (np.hypot(u, 2.0 * np.sqrt(b.d_x)) + u)


def check_blocks(blocks: CovarianceBlocks) -> None:
    """Reject blocks below the vacuum floor, blocks whose matrix is not
    positive definite (D_x > 0 for this block structure), or below the
    symplectic floor nu- >= 1/2: the one physicality check, in closed form."""
    _reject((blocks.d_i < _VACUUM_FLOOR) | (blocks.d_s < _VACUUM_FLOOR), lambda i: ValueError(
        f"diagonal blocks below the vacuum floor: d_i={_at(blocks.d_i, i)}, "
        f"d_s={_at(blocks.d_s, i)}"))
    _reject(np.logical_not(blocks.d_x > 0.0),
            lambda i: ValueError("covariance matrix must be positive definite"))
    _reject(_nu_minus(blocks) < _SYMPLECTIC_FLOOR,
            lambda i: ValueError("blocks assemble to a non-physical covariance matrix"))


def build_covariance(blocks: CovarianceBlocks) -> CovarianceMatrix:
    """Assemble the 4x4 covariance matrix (global 1/2 prefactor included);
    array blocks give a stack of matrices."""
    return CovarianceMatrix(_assemble(blocks))


def log_negativity(blocks: CovarianceBlocks):
    """Logarithmic negativity E_N = max(0, -ln 2 nu~-) of a two-mode state.

    For this block structure the smaller symplectic eigenvalue of the
    partial transpose is nu~- = s_q_opt / 2, half the optimized
    hybrid-quadrature variance, so E_N = max(0, -ln s_q_opt) exactly:
    the squeezing and the entanglement of these states are one quantity.
    """
    s = optimized_squeezing(blocks)
    _reject(np.logical_not(s > 0.0), lambda i: ValueError(
        "non-physical covariance: vanishing symplectic eigenvalue"))
    e_n = -np.log(s)
    return np.where(e_n > 0.0, e_n, 0.0)[()]


def purity(blocks: CovarianceBlocks):
    """Tr[rho^2] = 1 / D_x = 1 / (4 sqrt(det V)) for block-structured states;
    a purity above one (D_x < 1) means sub-vacuum input and is rejected."""
    d_x = blocks.d_x
    _reject(np.logical_not(d_x >= 1.0 - 1e-9), lambda i: ValueError(
        f"sub-vacuum covariance: D_I D_S - C11^2 - C12^2 = {_at(d_x, i):g} < 1"))
    return 1.0 / d_x


def apply_loss(state, eta_i, eta_s):
    """Beamsplitter loss map V -> E V E + (I - E^2)/2, E = diag over modes,
    on a ``CovarianceMatrix`` or ``CovarianceBlocks``; returns the same kind.

    On the blocks, with e = sqrt(eta): D -> (e D) e + (1 - e e) and
    C -> (e_i C) e_s, the product's own operations on the entries that hold
    the blocks (unit efficiency returns the blocks unchanged), and
    D_x -> eta_i eta_s D_x + eta_i (1 - eta_s) D_I + eta_s (1 - eta_i) D_S
    + (1 - eta_i)(1 - eta_s), a sum of non-negative terms.  Frequency-flat
    loss commutes with the filter kernel, so applying this to lossless
    filtered blocks reproduces the lossy steady-state blocks exactly.  Array
    blocks or a stack of matrices take efficiencies of their shape.
    """
    for name, eta in (("eta_i", eta_i), ("eta_s", eta_s)):
        _reject(np.logical_not((0.0 <= eta) & (eta <= 1.0)), lambda i: ValueError(
            f"{name} must lie in [0, 1], got {_at(eta, i)}"))
    b = state.blocks() if isinstance(state, CovarianceMatrix) else state
    e_i, e_s = np.sqrt(eta_i), np.sqrt(eta_s)
    d_x = (eta_i * eta_s * b.d_x + eta_i * (1.0 - eta_s) * b.d_i
           + eta_s * (1.0 - eta_i) * b.d_s + (1.0 - eta_i) * (1.0 - eta_s))
    lossy = CovarianceBlocks(e_i * b.d_i * e_i + (1.0 - e_i * e_i),
                             e_s * b.d_s * e_s + (1.0 - e_s * e_s),
                             e_i * b.c11 * e_s, e_i * b.c12 * e_s, d_x)
    return build_covariance(lossy) if isinstance(state, CovarianceMatrix) else lossy


def _half_turn(y, x):
    """atan2(y, x) folded into (-pi/2, pi/2]; floats or arrays."""
    z = np.arctan2(y, x)
    return np.where(z > math.pi / 2.0, z - math.pi, np.where(z <= -math.pi / 2.0, z + math.pi, z))


def squeezing_angle(blocks: CovarianceBlocks) -> float:
    """Angle zeta = arctan(-C12/C11) in (-pi/2, pi/2], 0 when C12 = 0; the
    maximally squeezed phase sum phi_i + phi_s is pi - zeta where C11 > 0 and
    -zeta where C11 < 0."""
    z = _half_turn(-blocks.c12, blocks.c11)
    return np.where((blocks.c11 == 0.0) & (blocks.c12 == 0.0), 0.0, z)[()]


def optimal_weight_ratio(blocks: CovarianceBlocks) -> float:
    """Weight ratio mu_i/mu_s minimizing the variance at the optimal phase.

    (D_S - D_I + sqrt(4 C11^2 + 4 C12^2 + (D_I - D_S)^2)) / (2 sqrt(C11^2 + C12^2))
    """
    r = blocks.correlation_strength()
    _reject(r == 0.0, lambda i: ValueError(
        "uncorrelated state: weight ratio undefined for C11 = C12 = 0"))
    diff = blocks.d_s - blocks.d_i
    return (diff + np.hypot(diff, 2.0 * r)) / (2.0 * r)


def optimized_squeezing(blocks: CovarianceBlocks) -> float:
    """Minimal hybrid-quadrature variance over phases and weights.

    (D_I + D_S - sqrt(4 C11^2 + 4 C12^2 + (D_I - D_S)^2)) / 2, evaluated as
    2 D_x / (D_I + D_S + sqrt(...)) so that nothing cancels; below 1 exactly
    when the state is two-mode squeezed beyond the SQL, and equal to twice
    the smaller partially transposed symplectic eigenvalue.
    """
    b = blocks
    u = np.abs(b.d_i - b.d_s)
    h = np.hypot(u, 2.0 * b.correlation_strength())
    # D_I + D_S + h = 2 max(D_I, D_S) + (h - u), exact for product states (C = 0)
    return b.d_x / (np.maximum(b.d_i, b.d_s) + 0.5 * (h - u))
