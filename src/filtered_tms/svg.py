"""Self-contained SVG heatmaps for 2-D sweep grids (no plotting deps).

Cells are filled from a linear color scale between the finite minimum and
maximum of the grid; nan cells render grey.  The output embeds all styling
inline so the file stands alone as an archival artifact.
"""

from __future__ import annotations

import numpy as np

# anchor colors of a viridis-like ramp, interpolated linearly
_RAMP = np.array([
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
], dtype=float)

_NAN_RGB = 0xB0B0B0

_CELL = 14
_MARGIN_LEFT = 70
_MARGIN_BOTTOM = 46
_MARGIN_TOP = 34
_BAR_WIDTH = 18
_BAR_GAP = 24
_BAR_STEPS = 32


def _fills(t: np.ndarray) -> np.ndarray:
    """24-bit RGB of the ramp at each t in [0, 1] (clipped), _NAN_RGB where t
    is not finite; numpy rounds half to even, as Python's round does."""
    finite = np.isfinite(t)
    pos = np.clip(np.where(finite, t, 0.0), 0.0, 1.0) * (len(_RAMP) - 1)
    i = np.minimum(pos.astype(int), len(_RAMP) - 2)
    lo, hi = _RAMP[i], _RAMP[i + 1]
    rgb = np.round(lo + (hi - lo) * (pos - i)[:, None]).astype(int)
    return np.where(finite, (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2], _NAN_RGB)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_heatmap(
    grid,
    x_values,
    y_values,
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """SVG text for grid[y, x] with a labelled linear color bar."""
    grid = np.asarray(grid, dtype=float)
    ny, nx = grid.shape
    if ny != len(y_values) or nx != len(x_values):
        raise ValueError("grid shape does not match the axis lengths")

    finite = grid[np.isfinite(grid)]
    lo = float(finite.min()) if finite.size else 0.0
    hi = float(finite.max()) if finite.size else 1.0
    if not np.isfinite(hi - lo):
        # the colour of a cell would be nan, and the cell drawn as missing
        raise ValueError(f"grid values from {lo:g} to {hi:g} span more than a float holds")
    span = hi - lo if hi > lo else 1.0

    width = _MARGIN_LEFT + nx * _CELL + _BAR_GAP + _BAR_WIDTH + 60
    height = _MARGIN_TOP + ny * _CELL + _MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{_MARGIN_LEFT}" y="18" font-size="13">{title}</text>',
    ]
    # row 0 at the bottom so the y axis increases upward
    iy, ix = np.divmod(np.arange(ny * nx), nx)
    bar_t = 1.0 - np.arange(_BAR_STEPS) / (_BAR_STEPS - 1)
    fills = _fills(np.concatenate([(grid.ravel() - lo) / span, bar_t]))
    cell = f'<rect x="%d" y="%d" width="{_CELL}" height="{_CELL}" fill="#%06x"/>'
    cells = np.column_stack([_MARGIN_LEFT + ix * _CELL, _MARGIN_TOP + (ny - 1 - iy) * _CELL,
                             fills[:-_BAR_STEPS]])
    parts.append("\n".join([cell] * len(cells)) % tuple(cells.ravel().tolist()))

    x0, x1 = _fmt(float(x_values[0])), _fmt(float(x_values[-1]))
    y0, y1 = _fmt(float(y_values[0])), _fmt(float(y_values[-1]))
    base = _MARGIN_TOP + ny * _CELL
    parts += [
        f'<text x="{_MARGIN_LEFT}" y="{base + 14}">{x0}</text>',
        f'<text x="{_MARGIN_LEFT + nx * _CELL}" y="{base + 14}" text-anchor="end">{x1}</text>',
        f'<text x="{_MARGIN_LEFT + nx * _CELL / 2}" y="{base + 32}" text-anchor="middle">{x_label}</text>',
        f'<text x="{_MARGIN_LEFT - 6}" y="{base}" text-anchor="end">{y0}</text>',
        f'<text x="{_MARGIN_LEFT - 6}" y="{_MARGIN_TOP + 10}" text-anchor="end">{y1}</text>',
        f'<text x="14" y="{_MARGIN_TOP + ny * _CELL / 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MARGIN_TOP + ny * _CELL / 2})">{y_label}</text>',
    ]

    # linear color bar, annotated with the grid minimum and maximum
    bar_x = _MARGIN_LEFT + nx * _CELL + _BAR_GAP
    bar_h = ny * _CELL
    step = (f'<rect x="{bar_x}" y="%.2f" width="{_BAR_WIDTH}" '
            f'height="{bar_h / _BAR_STEPS + 0.5:.2f}" fill="#%06x"/>')
    bar_y = (_MARGIN_TOP + np.arange(_BAR_STEPS) * bar_h / _BAR_STEPS).tolist()
    parts += [step % pair for pair in zip(bar_y, fills[-_BAR_STEPS:].tolist())]
    parts += [
        f'<text x="{bar_x + _BAR_WIDTH + 4}" y="{_MARGIN_TOP + 10}">{_fmt(hi)}</text>',
        f'<text x="{bar_x + _BAR_WIDTH + 4}" y="{base}">{_fmt(lo)}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
