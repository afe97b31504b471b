"""File emitters for range samples and reports: CSV, JSON, and SVG.

All writers are atomic — content goes to a temporary file in the target
directory and is renamed into place — so a failed run never leaves a partial
file behind.  All formatting is deterministic: floats are rendered with
``repr`` (shortest round-trip form) in CSV and JSON, and with fixed precision
in SVG coordinates, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

__all__ = ["atomic_write_text", "write_csv", "write_json", "write_svg"]


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file and os.replace.

    The file gets mode 0o666 less the process umask, as a plain open() would.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            # mkstemp creates the file 0600
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path, sample) -> None:
    """RangeSample -> CSV with header r,theta,re,im, rows in r-major order."""
    rows = ["r,theta,re,im"]
    values = np.asarray(sample.values)
    thetas = [repr(theta) + "," for theta in sample.grid.theta_values.tolist()]
    for r, re_row, im_row in zip(
        sample.grid.r_values.tolist(), values.real.tolist(), values.imag.tolist()
    ):
        prefix = repr(r) + ","
        rows.extend(
            prefix + theta + repr(re) + "," + repr(im)
            for theta, re, im in zip(thetas, re_row, im_row)
        )
    atomic_write_text(path, "\n".join(rows) + "\n")


def write_json(path, payload: dict) -> None:
    """Serialize a report dict with a schema-version stamp, sorted keys."""
    body = {"schema": 1, **payload}
    atomic_write_text(path, json.dumps(body, indent=2, sort_keys=True) + "\n")


def _svg_coords(xy: np.ndarray, half_width: float, size: int = 800):
    scale = size / (2.0 * half_width)
    px = (xy[:, 0] + half_width) * scale
    py = (half_width - xy[:, 1]) * scale
    return px, py


def write_svg(path, points, title: str = "Berezin range") -> None:
    """Scatter plot of planar points in a fixed 800x800 viewport.

    Axes and the unit circle are drawn as guides.  The world window is the
    square [-h, h]^2 with h = max(1.1, 1.05 * max coordinate), so the unit
    disk is always visible and no data point is clipped.
    """
    xy = np.asarray(points, dtype=float).reshape(-1, 2)
    size = 800
    half = 1.1
    if xy.size:
        half = max(half, 1.05 * float(np.max(np.abs(xy))))
    scale = size / (2.0 * half)
    cx = cy = size / 2.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f"<title>{title}</title>",
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{cy:.1f}" x2="{size}" y2="{cy:.1f}" '
        'stroke="#999" stroke-width="1"/>',
        f'<line x1="{cx:.1f}" y1="0" x2="{cx:.1f}" y2="{size}" '
        'stroke="#999" stroke-width="1"/>',
        f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{scale:.3f}" '
        'fill="none" stroke="#bbb" stroke-width="1" stroke-dasharray="4 3"/>',
    ]
    if xy.size:
        px, py = _svg_coords(xy, half, size)
        for x, y in zip(px, py):
            parts.append(
                f'<circle cx="{x:.3f}" cy="{y:.3f}" r="1.6" '
                'fill="#1f77b4" fill-opacity="0.55"/>'
            )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
