"""Heat semigroup on the periodic grid, exact in time via spectral multipliers.

The propagator for u_t = D * Laplacian(u) multiplies each Fourier mode by
exp(-D |k|^2 t), which is unconditionally stable and exact in time: any
splitting error in the full solver is then attributable to the coagulation
coupling alone.  A Crank-Nicolson variant (the exact solve of the
second-order real-space discretization, diagonalized by the same transform)
is provided for cross-validation.

Rough data can ring below zero after a spectral step.  Negative undershoot
is clipped to zero and the clip deficit removed proportionally from the
remaining cells, so nonnegativity and the exact mean are both preserved;
clipped mass is logged, never silently discarded.
"""

from __future__ import annotations

import logging
from functools import lru_cache

import numpy as np

from .field import Grid, MassField, MomentSpec, moment
from .kernels import DiffusionProfile

__all__ = ["heat_step", "heat_step_batched", "heat_majorant", "comparison_multiplier"]

log = logging.getLogger(__name__)

SPECTRAL = "spectral"
CRANK_NICOLSON = "cn"


@lru_cache(maxsize=64)
def _laplacian_symbol(grid: Grid, scheme: str) -> np.ndarray:
    """Symbol of -Laplacian on the rfftn output layout.

    SPECTRAL: the squared angular wavenumbers |k|^2.  CRANK_NICOLSON: the
    symbol of the second-order discrete Laplacian.
    """
    m = grid.cells_per_side
    if scheme == SPECTRAL:
        full = (2.0 * np.pi * np.fft.fftfreq(m, d=grid.h)) ** 2
        half = (2.0 * np.pi * np.fft.rfftfreq(m, d=grid.h)) ** 2
    elif scheme == CRANK_NICOLSON:
        full = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(m))) / grid.h**2
        half = (2.0 - 2.0 * np.cos(2.0 * np.pi * np.fft.rfftfreq(m))) / grid.h**2
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
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


def heat_step_batched(
    data: np.ndarray, Ds: np.ndarray, t: float, grid: Grid, scheme: str = SPECTRAL
) -> np.ndarray:
    """Advance a stack of fields, one diffusivity per leading row.

    Each row is the exact periodic solution of u_t = D*Laplacian(u) at time
    t (SPECTRAL: every mode decays by exp(-D |k|^2 t), a factor in (0, 1]),
    or its Crank-Nicolson approximation.  The zero mode is untouched, so
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
    x = t * Ds.reshape((-1,) + (1,) * grid.dim) * _laplacian_symbol(grid, scheme)
    mult = np.exp(-x) if scheme == SPECTRAL else (1.0 - 0.5 * x) / (1.0 + 0.5 * x)
    return _clip_preserving_mean(data, _apply_multipliers(data, mult, grid))


def heat_step(g: np.ndarray, D: float, t: float, grid: Grid, scheme: str = SPECTRAL) -> np.ndarray:
    """:func:`heat_step_batched` for a single field (trailing axes = grid.shape)."""
    return heat_step_batched(np.asarray(g, dtype=float)[None], [D], t, grid, scheme)[0]


def heat_majorant(F0: MassField, dp: DiffusionProfile, t: float) -> np.ndarray:
    """Heat evolution of the initial mass density at the fastest rate d(1).

    For a non-increasing profile, d(1)^(dim/2) times this field dominates
    the weighted moment sum_n n d(n)^(dim/2) f_n(x,t) at all later times;
    the hypothesis is enforced because the domination can fail otherwise.
    """
    if not dp.non_increasing:
        raise ValueError("heat majorant requires a non-increasing diffusion profile")
    x1 = moment(F0, MomentSpec(1.0))
    return heat_step(x1, dp.value(1), t, F0.grid)


def comparison_multiplier(D1: float, D2: float, g: np.ndarray, t: float, grid: Grid) -> float:
    """Max pointwise violation of D1^(d/2) S_t^{D1} g >= D2^(d/2) S_t^{D2} g.

    Requires D1 >= D2 > 0 and g >= 0.  The inequality is exact for the
    continuum periodic semigroup; on the grid the returned violation should
    not exceed spectral-ringing size.
    """
    if not D1 >= D2 > 0:
        raise ValueError("requires D1 >= D2 > 0")
    g = np.asarray(g, dtype=float)
    if np.any(g < 0):
        raise ValueError("requires g >= 0")
    s1, s2 = heat_step_batched(np.stack([g, g]), [D1, D2], t, grid)
    d = grid.dim
    return float(np.maximum(D2 ** (d / 2.0) * s2 - D1 ** (d / 2.0) * s1, 0.0).max())
