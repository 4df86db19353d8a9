"""The block invariant D_x = D_I D_S - C11^2 - C12^2 and the closed forms built
on it, against 50-digit mpmath evaluations of the defining formulas.

The model supplies D_x as a sum of non-negative terms, lossy or not, and so
does the loss map; the float subtraction D_I D_S - C^2 loses every digit
once the blocks pass ~1e8 (r ~ 9), while these forms stay exact to rounding
up to r = 20.
"""

import math

import mpmath as mp
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from filtered_tms import gaussian, thermal, tmsv
from filtered_tms.filters import OverlapFactors

DPS = 50

squeezing = st.floats(0.0, 20.0)
efficiency = st.floats(0.0, 1.0, exclude_min=True)
occupation = st.floats(0.0, 5.0)


@st.composite
def overlaps(draw):
    """(K_f, L_f) inside the Cauchy-Schwarz disc.  D_I D_S - C^2 cancels only
    near the identical pair (1, 0), where two of the three branches draw."""
    k_f = draw(st.one_of(st.floats(0.0, 1.0), st.floats(0.999, 1.0), st.just(1.0)))
    return OverlapFactors(k_f, draw(st.floats(-1.0, 1.0)) * math.sqrt(1.0 - k_f * k_f))


def exact_tmsv(r, eta_i, eta_s, k_f):
    """(D_I, D_S, C11, C12) of the lossy filtered TMSV at mpmath precision."""
    r, eta_i, eta_s, k_f = (mp.mpf(x) for x in (r, eta_i, eta_s, k_f))
    s2 = mp.sinh(r) ** 2
    return (1 + 2 * eta_i * s2, 1 + 2 * eta_s * s2,
            mp.sqrt(eta_i * eta_s) * k_f * mp.sinh(2 * r), mp.mpf(0))


def exact_thermal(r, n_i, n_s, k_f, l_f):
    """(D_I, D_S, C11, C12) of filtered squeezed thermal light at mpmath precision."""
    r, n_i, n_s, k_f, l_f = (mp.mpf(x) for x in (r, n_i, n_s, k_f, l_f))
    a, b = n_i + n_s + 1, n_i - n_s
    ch, sh = mp.cosh(2 * r), mp.sinh(2 * r)
    return b + a * ch, -b + a * ch, a * k_f * sh, -b * l_f * sh


def exact_loss(blocks, eta_i, eta_s):
    """The loss map D -> eta D + 1 - eta, C -> sqrt(eta_i eta_s) C."""
    d_i, d_s, c11, c12 = blocks
    eta_i, eta_s = mp.mpf(eta_i), mp.mpf(eta_s)
    e = mp.sqrt(eta_i * eta_s)
    return eta_i * d_i + 1 - eta_i, eta_s * d_s + 1 - eta_s, e * c11, e * c12


def exact_d_x(blocks):
    d_i, d_s, c11, c12 = blocks
    return d_i * d_s - c11**2 - c12**2


def rel_err(got, want) -> float:
    return float(abs(mp.mpf(float(got)) - want) / abs(want))


@st.composite
def states(draw):
    """(float blocks from the program, exact blocks) for one state: the
    vacuum, thermal light at unit efficiency, lossy thermal light from the
    model, and thermal light through the loss map."""
    r = draw(squeezing)
    ov = draw(overlaps())
    model = draw(st.sampled_from(["tmsv", "thermal", "lossy thermal", "loss map"]))
    with mp.workdps(DPS):
        if model == "tmsv":
            eta_i, eta_s = draw(efficiency), draw(efficiency)
            blocks = tmsv.covariance(tmsv.TmsvParams(r, eta_i, eta_s, ov))
            return blocks, exact_tmsv(r, eta_i, eta_s, ov.k_f)
        n_i, n_s = draw(occupation), draw(occupation)
        exact = exact_thermal(r, n_i, n_s, ov.k_f, ov.l_f)
        if model == "thermal":
            return thermal.covariance(thermal.ThermalParams(r, n_i, n_s, ov)), exact
        eta_i, eta_s = draw(efficiency), draw(efficiency)
        if model == "lossy thermal":
            blocks = thermal.covariance(thermal.ThermalParams(r, n_i, n_s, ov, eta_i, eta_s))
        else:
            blocks = gaussian.apply_loss(thermal.covariance(thermal.ThermalParams(r, n_i, n_s, ov)),
                                         eta_i, eta_s)
        return blocks, exact_loss(exact, eta_i, eta_s)


class TestModelDx:
    @given(squeezing, efficiency, efficiency, overlaps())
    def test_tmsv(self, r, eta_i, eta_s, ov):
        got = tmsv.covariance(tmsv.TmsvParams(r, eta_i, eta_s, ov)).d_x
        with mp.workdps(DPS):
            assert rel_err(got, exact_d_x(exact_tmsv(r, eta_i, eta_s, ov.k_f))) <= 1e-13

    @given(squeezing, occupation, occupation, overlaps())
    def test_thermal(self, r, n_i, n_s, ov):
        got = thermal.covariance(thermal.ThermalParams(r, n_i, n_s, ov)).d_x
        with mp.workdps(DPS):
            assert rel_err(got, exact_d_x(exact_thermal(r, n_i, n_s, ov.k_f, ov.l_f))) <= 1e-13

    @given(squeezing, occupation, occupation, overlaps(), efficiency, efficiency)
    def test_lossy_thermal(self, r, n_i, n_s, ov, eta_i, eta_s):
        blocks = thermal.covariance(thermal.ThermalParams(r, n_i, n_s, ov, eta_i, eta_s))
        with mp.workdps(DPS):
            exact = exact_loss(exact_thermal(r, n_i, n_s, ov.k_f, ov.l_f), eta_i, eta_s)
            assert rel_err(blocks.d_x, exact_d_x(exact)) <= 1e-13
            scale = max(exact[:2])
            for got, want in zip((blocks.d_i, blocks.d_s, blocks.c11, blocks.c12), exact):
                assert abs(mp.mpf(float(got)) - want) <= 1e-13 * scale

    @given(squeezing, occupation, occupation, overlaps(), efficiency, efficiency)
    def test_loss(self, r, n_i, n_s, ov, eta_i, eta_s):
        blocks = thermal.covariance(thermal.ThermalParams(r, n_i, n_s, ov))
        got = gaussian.apply_loss(blocks, eta_i, eta_s).d_x
        with mp.workdps(DPS):
            want = exact_d_x(exact_loss(exact_thermal(r, n_i, n_s, ov.k_f, ov.l_f),
                                        eta_i, eta_s))
            assert rel_err(got, want) <= 1e-13


class TestOutputs:
    @given(states())
    def test_closed_forms_match_the_direct_formulas(self, state):
        blocks, exact = state
        with mp.workdps(DPS):
            d_i, d_s, c11, c12 = exact
            s_q = (d_i + d_s - mp.sqrt((d_i - d_s) ** 2 + 4 * (c11**2 + c12**2))) / 2
            assert rel_err(gaussian.optimized_squeezing(blocks), s_q) <= 1e-13
            e_n = max(mp.mpf(0), -mp.log(s_q))
            assert abs(gaussian.log_negativity(blocks) - float(e_n)) <= 1e-13
            assert rel_err(gaussian.purity(blocks), 1 / exact_d_x(exact)) <= 1e-13


class TestLandmarks:
    @given(occupation, occupation, overlaps(), efficiency, efficiency)
    def test_entanglement_cutoffs_do_not_depend_on_the_efficiencies(self, n_i, n_s, ov,
                                                                   eta_i, eta_s):
        # (D_I - 1)(D_S - 1) < C^2 carries eta_i eta_s on both sides
        lossless = thermal.landmarks(thermal.ThermalParams(0.0, n_i, n_s, ov))
        lossy = thermal.landmarks(thermal.ThermalParams(0.0, n_i, n_s, ov, eta_i, eta_s))
        for name in ("r_lcf_en", "r_ucf_en"):
            assert getattr(lossy, name).tobytes() == getattr(lossless, name).tobytes()


def test_blocks_without_d_x_take_it_from_their_entries():
    m = np.array([[3.5, 0.0, 2.0, 0.25], [0.0, 3.5, 0.25, -2.0],
                  [2.0, 0.25, 4.0, 0.0], [0.25, -2.0, 0.0, 4.0]]) / 2.0
    by_hand = gaussian.CovarianceBlocks(3.5, 4.0, 2.0, 0.25)
    for b in (gaussian.CovarianceMatrix(m).blocks(), by_hand):
        assert b.d_x == 3.5 * 4.0 - 2.0 * 2.0 - 0.25 * 0.25
