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
available in closed form.  Every function is pure; inputs are immutable.
Blocks and matrices may hold a whole grid of states as arrays; the checks
then name the first state that fails them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BLOCK_TOL = 1e-9
_SYMPLECTIC_FLOOR = 0.5 - 1e-10


def _at(x, i):
    """Element i of x (x itself if scalar), as a Python number."""
    return np.ravel(x)[i].item()


def _reject(bad, error) -> None:
    """Raise error(i), tagged with ``row`` = i, for the first element i where
    bad holds; a sweep uses the tag to name its first failing point."""
    hits = np.flatnonzero(bad)
    if hits.size:
        exc = error(int(hits[0]))
        exc.row = int(hits[0])
        raise exc


def _each(fn, x):
    """fn, a formula in math functions, elementwise (errors tagged as by
    ``_reject``): numpy's sinh and cosh differ from math's in the last bit,
    on about a quarter of inputs, and the Bell optimizer amplifies that.
    fn runs once per distinct value, so a grid pays per grid line, not per
    point; the values go in row order, so an error names the first failing
    row."""
    if np.ndim(x) == 0:
        return fn(x)
    flat = np.ravel(np.asarray(x, dtype=float))
    # distinct bit patterns keep -0.0 apart from 0.0
    _, first, inverse = np.unique(flat.view(np.int64), return_index=True, return_inverse=True)
    order = np.argsort(first)
    out = np.empty(first.size)
    for k, i, v in zip(order.tolist(), first[order].tolist(), flat[first[order]].tolist()):
        try:
            out[k] = fn(v)
        except (ArithmeticError, ValueError) as exc:
            exc.row = i
            raise
    return out[inverse].reshape(np.shape(x))


@dataclass(frozen=True)
class CovarianceBlocks:
    """Independent elements (D_I, D_S, C11, C12) of the block covariance.

    Fields are floats, or equal-shape arrays for a grid of states.
    Model-generated blocks satisfy d_i, d_s >= 1 (vacuum floor) and assemble
    into a physical matrix; ``build_covariance`` enforces both.
    """

    d_i: float
    d_s: float
    c11: float
    c12: float

    def __post_init__(self):
        vals = (self.d_i, self.d_s, self.c11, self.c12)
        _reject(~np.isfinite(np.broadcast_arrays(*vals)).all(axis=0), lambda i: ValueError(
            f"covariance blocks must be finite, got {tuple(_at(v, i) for v in vals)}"))

    def correlation_strength(self):
        """sqrt(C11**2 + C12**2), the magnitude of the cross-mode coupling."""
        return np.hypot(self.c11, self.c12)


@dataclass(frozen=True)
class QuadratureSpec:
    """Phases and positive weights of a two-party hybrid quadrature.

    The variance of the hybrid quadrature is invariant under joint
    rescaling of (mu_i, mu_s); only phi_i + phi_s and mu_i/mu_s matter.
    """

    phi_i: float
    phi_s: float
    mu_i: float = 1.0
    mu_s: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.phi_i, self.phi_s, self.mu_i, self.mu_s)):
            raise ValueError("quadrature parameters must be finite")
        if self.mu_i <= 0 or self.mu_s <= 0:
            raise ValueError("quadrature weights must be strictly positive")


@dataclass(frozen=True)
class EntanglementResult:
    """Smallest partial-transpose symplectic eigenvalue and log-negativity."""

    nu_minus: float
    e_n: float


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


def _nu_minus(b: CovarianceBlocks, transposed: bool):
    # Sigma = det V_I + det V_S -+ 2 det V_corr for the (partially transposed) state
    sign = -2.0 if transposed else 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = b.d_i**2 / 4.0 + b.d_s**2 / 4.0 + sign * (-(b.c11**2 + b.c12**2) / 4.0)
        det_v = (b.d_i * b.d_s - b.c11**2 - b.c12**2) ** 2 / 16.0
        rad = sigma**2 - 4.0 * det_v
        # rationalized minus branch: exact where the direct subtraction
        # sigma - sqrt(rad) cancels catastrophically at large squeezing; a 0/0
        # here (nan) fails the positive-definiteness test of check_blocks
        nusq = 2.0 * det_v / (sigma + np.sqrt(np.maximum(rad, 0.0)))
    # float ** raises where numpy's square overflows quietly
    _reject(np.isinf(sigma**2), lambda i: OverflowError(34, "Numerical result out of range"))
    # rad >= 0 for every positive-definite V (Williamson); check_blocks checks
    # V > 0 in closed form, so only a negative rad beyond rounding is rejected
    _reject(rad < -1e-10 * np.maximum(1.0, sigma**2), lambda i: ValueError(
        f"non-physical covariance: Sigma^2 - 4 det V = {_at(rad, i):g} < 0"))
    _reject(nusq <= 0.0, lambda i: ValueError(
        "non-physical covariance: vanishing symplectic eigenvalue"))
    return np.sqrt(nusq)


def check_blocks(blocks: CovarianceBlocks, tol: float = 1e-10) -> None:
    """Reject blocks below the vacuum floor or the symplectic floor 1/2, or
    whose matrix is not positive definite (D_I D_S > C11^2 + C12^2 for this
    block structure): the one physicality check, in closed form."""
    _reject((blocks.d_i < 1.0 - tol) | (blocks.d_s < 1.0 - tol), lambda i: ValueError(
        f"diagonal blocks below the vacuum floor: d_i={_at(blocks.d_i, i)}, "
        f"d_s={_at(blocks.d_s, i)}"))
    _reject(_nu_minus(blocks, transposed=False) < _SYMPLECTIC_FLOOR,
            lambda i: ValueError("blocks assemble to a non-physical covariance matrix"))
    _reject(~(blocks.d_i * blocks.d_s - blocks.c11**2 - blocks.c12**2 > 0.0),
            lambda i: ValueError("covariance matrix must be positive definite"))


def build_covariance(blocks: CovarianceBlocks) -> CovarianceMatrix:
    """Assemble the 4x4 covariance matrix (global 1/2 prefactor included);
    array blocks give a stack of matrices."""
    return CovarianceMatrix(_assemble(blocks))


def log_negativity(state) -> EntanglementResult:
    """Logarithmic negativity E_N = max(0, -ln 2 nu-) of a two-mode state,
    given as a ``CovarianceMatrix`` or as its ``CovarianceBlocks``.

    nu- is the smaller symplectic eigenvalue of the partially transposed
    covariance, taken from the minus branch of
    nu**2 = (Sigma - sqrt(Sigma**2 - 4 det V)) / 2; the minus branch is the
    one that reproduces E_N = 2r for the ideal two-mode squeezed vacuum.
    """
    nu = _nu_minus(state.blocks() if isinstance(state, CovarianceMatrix) else state, True)
    e_n = -np.log(2.0 * nu)
    return EntanglementResult(nu_minus=nu, e_n=np.where(e_n > 0.0, e_n, 0.0)[()])


def purity(v: CovarianceMatrix):
    """Tr[rho^2] = 1 / |C11^2 + C12^2 - D_I D_S| for block-structured states.

    Cross-checked internally against the general Gaussian result
    1/(4 sqrt(det V)); a disagreement beyond 1e-10 means the block
    structure was violated.
    """
    b = v.blocks()
    denom = np.abs(b.c11**2 + b.c12**2 - b.d_i * b.d_s)
    _reject(denom < 1e-14, lambda i: ValueError(
        "degenerate covariance: |C11^2 + C12^2 - D_I D_S| ~ 0"))
    closed = 1.0 / denom
    det = np.linalg.det(v.entries)
    _reject(det < 0.0, lambda i: ValueError("math domain error"))
    general = 1.0 / (4.0 * np.sqrt(det))
    _reject(np.abs(closed - general) > 1e-10 * np.maximum(1.0, closed), lambda i: ValueError(
        f"purity cross-check failed: closed form {_at(closed, i):.15g} "
        f"vs 1/(4 sqrt(det V)) {_at(general, i):.15g}"))
    return closed


def wigner(v: CovarianceMatrix, u) -> float:
    """Gaussian Wigner density W(u) = exp(-u^T V^-1 u / 2) / (pi^2 sqrt(det V)).

    With the vacuum normalization V = I/2 this gives W(0) = 4/pi^2 and the
    purity integral Tr[rho^2] = (pi^2/4) \\int W^2.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (4,):
        raise ValueError(f"phase-space point must be a 4-vector, got shape {u.shape}")
    det = float(np.linalg.det(v.entries))
    if det < 1e-300:
        raise ValueError("singular covariance matrix")
    sol = np.linalg.solve(v.entries, u)
    return float(math.exp(-0.5 * float(u @ sol)) / (math.pi**2 * math.sqrt(det)))


def apply_loss(state, eta_i, eta_s):
    """Beamsplitter loss map V -> E V E + (I - E^2)/2, E = diag over modes,
    on a ``CovarianceMatrix`` or ``CovarianceBlocks``; returns the same kind.

    On the blocks, with e = sqrt(eta): D -> (e D) e + (1 - e e) and
    C -> (e_i C) e_s, the product's own operations on the entries that hold
    the blocks (unit efficiency returns the blocks unchanged).  Frequency-flat
    loss commutes with the filter kernel, so applying this to lossless
    filtered blocks reproduces the lossy steady-state blocks exactly.  Array
    blocks or a stack of matrices take efficiencies of their shape.
    """
    for name, eta in (("eta_i", eta_i), ("eta_s", eta_s)):
        _reject(np.logical_not((0.0 <= eta) & (eta <= 1.0)), lambda i: ValueError(
            f"{name} must lie in [0, 1], got {_at(eta, i)}"))
    is_matrix = isinstance(state, CovarianceMatrix)
    b = state.blocks() if is_matrix else state
    e_i, e_s = np.sqrt(eta_i), np.sqrt(eta_s)
    lossy = CovarianceBlocks(e_i * b.d_i * e_i + (1.0 - e_i * e_i),
                             e_s * b.d_s * e_s + (1.0 - e_s * e_s),
                             e_i * b.c11 * e_s, e_i * b.c12 * e_s)
    return build_covariance(lossy) if is_matrix else lossy


def quadrature_variance(v: CovarianceMatrix, q: QuadratureSpec) -> float:
    """Variance of the weighted two-party quadrature, SQL-normalized.

    Equals [mu_i^2 D_I + mu_s^2 D_S + 2 mu_i mu_s (cos(phi_i + phi_s) C11
    + sin(phi_i + phi_s) C12)] / (mu_i^2 + mu_s^2); vacuum gives exactly 1
    for every spec.
    """
    c = np.array(
        [
            q.mu_i * math.cos(q.phi_i),
            q.mu_i * math.sin(q.phi_i),
            q.mu_s * math.cos(q.phi_s),
            q.mu_s * math.sin(q.phi_s),
        ]
    )
    return float(2.0 * c @ v.entries @ c / (q.mu_i**2 + q.mu_s**2))


def _half_turn(y, x):
    """atan2(y, x) folded into (-pi/2, pi/2]; floats or arrays."""
    z = np.arctan2(y, x)
    return np.where(z > math.pi / 2.0, z - math.pi, np.where(z <= -math.pi / 2.0, z + math.pi, z))


def squeezing_angle(blocks: CovarianceBlocks) -> float:
    """Angle zeta = arctan(-C12/C11) in (-pi/2, pi/2], 0 when C12 = 0; the
    maximally squeezed phase sum phi_i + phi_s is pi - zeta where C11 > 0 and
    -zeta where C11 < 0 (``optimal_phase_sum`` gives it at every sign)."""
    z = _half_turn(-blocks.c12, blocks.c11)
    return np.where((blocks.c11 == 0.0) & (blocks.c12 == 0.0), 0.0, z)[()]


def optimal_phase_sum(blocks: CovarianceBlocks) -> float:
    """The phase sum phi_i + phi_s minimizing the hybrid-quadrature variance."""
    return math.pi - math.atan2(-blocks.c12, blocks.c11)


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

    (D_I + D_S - sqrt(4 C11^2 + 4 C12^2 + (D_I - D_S)^2)) / 2; below 1
    exactly when the state is two-mode squeezed beyond the SQL.
    """
    b = blocks
    return 0.5 * (
        b.d_i + b.d_s - np.hypot(b.d_i - b.d_s, 2.0 * b.correlation_strength())
    )
