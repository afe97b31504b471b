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

from .kernels import row_blocks

__all__ = ["atomic_write_text", "write_csv", "write_json", "write_svg"]

# Points per formatted block of an SVG file.
_SVG_BLOCK = 4096


def atomic_write_text(path, text) -> None:
    """Write text to path via a same-directory temp file and os.replace.

    ``text`` is a string or an iterable of strings written one after the
    other, so a large file need not exist as one string in memory.  The file
    gets mode 0o666 less the process umask, as a plain open() would.
    """
    if isinstance(text, str):
        text = (text,)
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            # mkstemp creates the file 0600
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_csv(path, sample) -> None:
    """RangeSample -> CSV with header r,theta,re,im, rows in r-major order."""
    values = np.asarray(sample.values)
    thetas = [repr(theta) + "," for theta in sample.grid.theta_values.tolist()]

    def lines():
        yield "r,theta,re,im\n"
        for r, re_row, im_row in zip(sample.grid.r_values.tolist(), values.real, values.imag):
            prefix = repr(r) + ","
            yield "".join([
                f"{prefix}{theta}{re!r},{im!r}\n"
                for theta, re, im in zip(thetas, re_row.tolist(), im_row.tolist())
            ])

    atomic_write_text(path, lines())


def write_json(path, payload: dict) -> None:
    """Serialize a report dict with a schema-version stamp, sorted keys."""
    body = {"schema": 1, **payload}
    atomic_write_text(path, json.dumps(body, indent=2, sort_keys=True) + "\n")


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
        half = max(half, 1.05 * float(max(np.max(xy), -np.min(xy))))  # max |coordinate|
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
    # One % per block of points: the bytes of a per-point f"{x:.3f}".
    marker = '<circle cx="%.3f" cy="%.3f" r="1.6" fill="#1f77b4" fill-opacity="0.55"/>\n'

    def lines():
        yield "\n".join(parts) + "\n"
        for b in row_blocks(len(xy), _SVG_BLOCK):
            block = xy[b]
            coords = np.column_stack([(block[:, 0] + half) * scale, (half - block[:, 1]) * scale])
            yield (marker * len(block)) % tuple(coords.ravel().tolist())
        yield "</svg>\n"

    atomic_write_text(path, lines())
