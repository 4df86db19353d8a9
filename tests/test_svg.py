"""SVG heatmaps byte for byte against the cell-by-cell reference writer."""

import math

import numpy as np
import pytest

from filtered_tms.svg import render_heatmap
from oracles import render_heatmap_reference

# grid values that land exactly on the ramp anchors (t = 0, 1/4, ..., 1) and
# on exact .5 rounding ties of a channel (for example t = 1/8 puts the red
# channel at 68 - 9/2 = 63.5), with lo = 0 and hi = 1
ANCHORS = [0.0, 0.25, 0.5, 0.75, 1.0]
TIES = [0.125, 0.3125, 0.375, 0.5625, 0.8125, 0.9375]


def grids():
    rng = np.random.default_rng(19)
    smooth = np.sin(np.linspace(0.0, 3.0, 9))[:, None] * np.linspace(0.5, 2.0, 13)[None, :]
    nonfinite = rng.normal(size=(6, 7))
    nonfinite[1, 2], nonfinite[3, 0], nonfinite[5, 6] = math.nan, math.inf, -math.inf
    return {
        "smooth": smooth,
        "random": rng.uniform(-3.0, 7.0, (11, 5)),
        "nan and infinite cells": nonfinite,
        "constant": np.full((4, 3), 2.5),
        "all nan": np.full((3, 4), math.nan),
        "all infinite": np.array([[math.inf, -math.inf], [math.inf, math.nan]]),
        "anchors and ties": np.array([ANCHORS + TIES[:1], TIES[1:] + [0.0]]),
        "one cell": np.array([[0.3]]),
        "one row": np.linspace(-1.0, 1.0, 17)[None, :],
        "tiny span": 1.0 + np.arange(12).reshape(3, 4) * 1e-15,
    }


@pytest.mark.parametrize("name", sorted(grids()))
def test_bytes_match_the_reference(name):
    grid = grids()[name]
    ny, nx = grid.shape
    args = (grid, np.linspace(0.8, 1.0, nx), np.linspace(0.0, 3.0, ny), "k_f", "r",
            f"{name} (tmsv)")
    assert render_heatmap(*args) == render_heatmap_reference(*args)


def test_ties_round_half_to_even():
    # the tie cases are real ties, resolved the way Python's round resolves them
    ramp = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)]
    ties = 0
    for t in TIES:
        pos = t * 4
        i = int(pos)
        for a, b in zip(ramp[i], ramp[i + 1]):
            ties += (a + (b - a) * (pos - i)) % 1.0 == 0.5
    assert ties >= 6


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="grid shape"):
        render_heatmap(np.zeros((2, 3)), [0, 1], [0, 1], "x", "y", "t")


def test_span_past_the_float_range_rejected():
    # (v - lo) / span would be nan for the top cell, drawn grey as if missing
    with pytest.raises(ValueError, match="span more than a float holds"):
        render_heatmap(np.array([[-1e308, 0.0, 1e308]]), [0, 1, 2], [0], "x", "y", "t")
