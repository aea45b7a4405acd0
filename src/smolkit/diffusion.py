"""Heat semigroup on the periodic grid, exact in time via spectral multipliers.

The propagator for u_t = D * Laplacian(u) multiplies each Fourier mode by
exp(-D |k|^2 t), which is unconditionally stable and exact in time: any
splitting error in the full solver is then attributable to the coagulation
coupling alone.  :func:`heat_step_batched` is the one heat step: it
advances a stack of fields, one diffusivity per row, in one transform.

Rough data can ring below zero after a spectral step.  Negative undershoot
is clipped to zero and the clip deficit removed proportionally from the
remaining cells, so nonnegativity and the exact mean are both preserved;
clipped mass is logged, never silently discarded.
"""

from __future__ import annotations

import logging
from functools import lru_cache

import numpy as np

from .field import Grid

__all__ = ["heat_step_batched"]

log = logging.getLogger(__name__)


@lru_cache(maxsize=64)
def _laplacian_symbol(grid: Grid) -> np.ndarray:
    """Symbol of -Laplacian on the rfftn output layout: the squared angular
    wavenumbers |k|^2."""
    m = grid.cells_per_side
    full = (2.0 * np.pi * np.fft.fftfreq(m, d=grid.h)) ** 2
    half = (2.0 * np.pi * np.fft.rfftfreq(m, d=grid.h)) ** 2
    sym = np.zeros(())
    for vals in [full] * (grid.dim - 1) + [half]:
        sym = np.add.outer(sym, vals)
    sym.flags.writeable = False
    return sym


def _apply_multipliers(g: np.ndarray, mult: np.ndarray, grid: Grid) -> np.ndarray:
    spatial_axes = tuple(range(g.ndim - grid.dim, g.ndim))
    coeffs = np.fft.rfftn(g, axes=spatial_axes)
    coeffs *= mult
    return np.fft.irfftn(coeffs, s=grid.shape, axes=spatial_axes)


def _clip_preserving_mean(before: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Clip ringing undershoot to zero, rescaling to keep each row's sum.

    Only rows that entered nonnegative are clipped: undershoot there is a
    discretization artifact, whereas signed data is propagated untouched.
    All rows are handled at once; row sums run along the contiguous last
    axis of the flattened stack, so each row gets the same bits as a
    per-row loop would give it.
    """
    rows = out.reshape(out.shape[0], -1)
    neg = rows < 0
    # ~(min < 0) rather than min >= 0, so rows holding NaN are treated as before.
    clip = np.flatnonzero(neg.any(axis=1) & ~(before.reshape(rows.shape).min(axis=1) < 0))
    if clip.size == 0:
        return out
    f = rows[clip]
    neg = neg[clip]
    target = f.sum(axis=1)
    clipped = float(f[neg].sum())
    f[neg] = 0.0
    total = f.sum(axis=1)
    scale = np.divide(target, total, out=np.ones_like(total), where=(total > 0) & (target > 0))
    f *= scale[:, None]
    rows[clip] = f
    log.debug("clipped %g of ringing undershoot in %d rows (redistributed)", -clipped, clip.size)
    return rows.reshape(out.shape)


def heat_step_batched(data: np.ndarray, Ds: np.ndarray, t: float, grid: Grid) -> np.ndarray:
    """Advance a stack of fields, one diffusivity per leading row.

    ``data`` has shape (rows,) + grid.shape; a single field g is the stack
    ``g[None]``.  Each row becomes the exact periodic solution of
    u_t = D*Laplacian(u) at time t: every Fourier mode decays by
    exp(-D |k|^2 t), a factor in (0, 1].  The zero mode is untouched, so
    each row's mean is preserved exactly; nonnegativity is preserved up to
    spectral ringing, which is clipped with the deficit redistributed (see
    module docstring).  t = 0 or all D = 0 is the identity.

    One batched transform serves all rows; rows with equal diffusivity and
    equal data produce bitwise-equal results, which the heat-majorant
    monitor relies on.
    """
    Ds = np.asarray(Ds, dtype=float)
    if np.any(Ds < 0):
        raise ValueError("diffusivity must be >= 0")
    if t < 0:
        raise ValueError("duration must be >= 0")
    data = np.asarray(data, dtype=float)
    if t == 0.0 or not Ds.any():
        return data.copy()
    mult = np.exp(-(t * Ds.reshape((-1,) + (1,) * grid.dim) * _laplacian_symbol(grid)))
    return _clip_preserving_mean(data, _apply_multipliers(data, mult, grid))
