"""Spatial state on a periodic grid, plus moment and initial-data functionals.

The spatial domain is a d-dimensional torus (d in {1,2,3}) discretized into
``cells_per_side`` cells per axis; the space-free model lives on the
zero-dimensional :meth:`Grid.point`, one cell of unit volume.  A
:class:`MassField` holds the number densities ``f_n(x)`` for masses
``n = 1..n_max`` in a mass-major layout: ``data[n-1]`` is a contiguous
spatial slab, so per-species spectral transforms operate on contiguous
memory.  Every moment weight n^a comes from :func:`moment_weights`, which
rejects a < 0 and raises OverflowError when a weight overflows float64.

The torus stands in for free space; initial data should be supported well
inside the wrap scale (constructors warn beyond length/4) so that periodic
images do not contaminate the free-space bounds being checked.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .kernels import DiffusionProfile, Kernel

__all__ = [
    "Grid",
    "MassField",
    "moment_weights",
    "moment",
    "pair_weights",
    "kernel_pair_weights",
    "potential_kernel",
    "initial_data_functionals",
]

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class Grid:
    """Periodic d-dimensional grid: cells_per_side cells of size h = length/M."""

    dim: int
    length: float
    cells_per_side: int

    def __post_init__(self):
        if self.dim not in (0, 1, 2, 3):
            raise ValueError(f"dim must be 0, 1, 2 or 3, got {self.dim}")
        if self.length <= 0:
            raise ValueError("length must be > 0")
        m = self.cells_per_side
        if self.dim == 0 and m != 1:
            raise ValueError(f"the zero-dimensional grid has one cell, got cells_per_side={m}")
        if self.dim and (m < 2 or (m & (m - 1)) != 0):
            raise ValueError(f"cells_per_side must be a power of two >= 2, got {m}")

    @classmethod
    def point(cls) -> "Grid":
        """The zero-dimensional grid: shape (), one cell of volume 1."""
        return cls(0, 1.0, 1)

    @property
    def h(self) -> float:
        return self.length / self.cells_per_side

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_side,) * self.dim

    @property
    def n_cells(self) -> int:
        return self.cells_per_side**self.dim

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def cell_centers(self) -> np.ndarray:
        """Coordinates of cell centers along one axis."""
        return (np.arange(self.cells_per_side) + 0.5) * self.h

    def min_image(self, dx: np.ndarray) -> np.ndarray:
        """Wrap displacements to the minimal periodic image."""
        half = 0.5 * self.length
        return (np.asarray(dx) + half) % self.length - half


class MassField:
    """Densities f_n(x) for n = 1..n_max plus the gel mass reservoir.

    ``data`` has shape (n_max, *grid.shape) and units of number density;
    ``gel_reservoir`` is in mass units and collects mass that escapes the
    sectional range under the gel-reservoir truncation policy.
    """

    __slots__ = ("grid", "n_max", "data", "gel_reservoir")

    def __init__(self, grid: Grid, data: np.ndarray, gel_reservoir: float = 0.0, validate: bool = True):
        data = np.ascontiguousarray(data, dtype=float)
        if data.ndim != grid.dim + 1 or data.shape[1:] != grid.shape:
            raise ValueError(f"data shape {data.shape} incompatible with grid {grid.shape}")
        if validate:
            if not np.all(np.isfinite(data)):
                raise ValueError("field contains non-finite entries")
            if np.any(data < 0):
                n, *cell = np.argwhere(data < 0)[0]
                raise ValueError(f"negative density for mass {n + 1} at cell {tuple(cell)}")
            if gel_reservoir < 0:
                raise ValueError("gel reservoir must be >= 0")
        self.grid = grid
        self.n_max = data.shape[0]
        self.data = data
        self.gel_reservoir = float(gel_reservoir)

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid, n_max: int) -> "MassField":
        return cls(grid, np.zeros((n_max,) + grid.shape), validate=False)

    @classmethod
    def monodisperse(cls, grid: Grid, n_max: int, amplitude: float = 1.0) -> "MassField":
        """Uniform mass-1 field of the given density."""
        f = cls.zeros(grid, n_max)
        f.data[0] = amplitude
        return f

    @classmethod
    def gaussian_blob(
        cls,
        grid: Grid,
        n_max: int,
        amplitude: float = 1.0,
        width: float | None = None,
        center: tuple[float, ...] | None = None,
        species: int = 1,
    ) -> "MassField":
        """Periodic Gaussian bump in a single species.

        ``width`` is the standard deviation (default length/10).  Widths
        beyond length/4 defeat the free-space reading of the torus and are
        logged as a warning.
        """
        if not 1 <= species <= n_max:
            raise ValueError("species outside 1..n_max")
        width = grid.length / 10.0 if width is None else float(width)
        if width > grid.length / 4.0:
            log.warning("blob width %.3g exceeds length/4; wrap effects will be significant", width)
        center = center or (grid.length / 2.0,) * grid.dim
        x = grid.cell_centers()
        r2 = 0.0
        for axis in range(grid.dim):
            dx = grid.min_image(x - center[axis])
            shape = [1] * grid.dim
            shape[axis] = grid.cells_per_side
            r2 = r2 + (dx.reshape(shape)) ** 2
        prof = amplitude * np.exp(-r2 / (2.0 * width**2))
        f = cls.zeros(grid, n_max)
        f.data[species - 1] = prof
        return f

    # -- helpers --------------------------------------------------------

    def copy(self) -> "MassField":
        return MassField(self.grid, self.data.copy(), self.gel_reservoir, validate=False)

    def flat(self) -> np.ndarray:
        """(n_max, n_cells) view of the data."""
        return self.data.reshape(self.n_max, self.grid.n_cells)

    def species_integrals(self) -> np.ndarray:
        """Number integral of each species: integral of f_n dx."""
        return self.flat().sum(axis=1) * self.grid.cell_volume


def _finite(x: np.ndarray, a: float, n_max: int) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise OverflowError(f"moment of exponent a={a:g} overflows float64 at n_max={n_max}")
    return x


@np.errstate(over="ignore")  # _finite reports the overflow
def moment_weights(a: float, n_max: int) -> np.ndarray:
    """The weights n^a, n = 1..n_max, of the moment X_a = sum_n n^a f_n.

    The one source of moment weights: raises ValueError for a < 0 and
    OverflowError when a weight overflows float64.
    """
    if a < 0:
        raise ValueError(f"moment exponent must be >= 0, got a={a:g}")
    return _finite(np.arange(1, n_max + 1, dtype=float) ** a, a, n_max)


def moment(F: MassField, a: float) -> np.ndarray:
    """Per-cell moment X_a(x) = sum_n n^a f_n(x), checked finite."""
    return _finite(np.tensordot(moment_weights(a, F.n_max), F.data, axes=(0, 0)), a, F.n_max)


@np.errstate(over="ignore")
def pair_weights(a: float, dp: DiffusionProfile, n_max: int) -> np.ndarray:
    """(n_max, n_max) weights of Y_a = sum_{n,m} n m (n^a + m^a)(d(n) + d(m)) f_n f_m."""
    w, n = moment_weights(a, n_max), moment_weights(1.0, n_max)
    dsum = dp.values[:n_max, None] + dp.values[None, :n_max]
    return _finite(n[:, None] * n[None, :] * (w[:, None] + w[None, :]) * dsum, a, n_max)


@np.errstate(over="ignore")
def kernel_pair_weights(a: float, kernel: Kernel, n_max: int) -> np.ndarray:
    """(n_max, n_max) weights of Yk_a = sum_{n,m} (n^a m + m^a n) K(n, m) f_n f_m."""
    w, n = moment_weights(a, n_max), moment_weights(1.0, n_max)
    return _finite((w[:, None] * n[None, :] + w[None, :] * n[:, None]) * kernel.dense(n_max), a, n_max)


def potential_kernel(r, dim: int):
    """Radial interaction weight used by the initial-data functionals.

    dim=3: 1/r;  dim=2: -(1/2pi) log(r) on r <= 1;  dim=1: (1-r)/2 on
    r <= 1/2.  Nonnegative and radially non-increasing on its support.
    r = 0 returns +inf for dim >= 2 (the on-grid singularity; double sums
    skip the zero-displacement pair instead of evaluating it).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be >= 0")
    if dim == 3:
        with np.errstate(divide="ignore"):
            out = 1.0 / r
    elif dim == 2:
        with np.errstate(divide="ignore"):
            out = np.where(r <= 1.0, -np.log(np.where(r > 0, r, 1.0)) / (2.0 * math.pi), 0.0)
            out = np.where(r == 0, np.inf, out)
    elif dim == 1:
        out = np.where(2.0 * r <= 1.0, 0.5 * (1.0 - r), 0.0)
    else:
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    return float(out) if np.ndim(r) == 0 else out


def _pair_distance_matrix(grid: Grid) -> np.ndarray:
    """(n_cells, n_cells) minimal-image distances between cell centers."""
    x = grid.cell_centers()
    coords = np.stack(np.meshgrid(*([x] * grid.dim), indexing="ij"), axis=-1).reshape(grid.n_cells, grid.dim)
    dx = grid.min_image(coords[:, None, :] - coords[None, :, :])
    return np.sqrt((dx**2).sum(axis=-1))


def initial_data_functionals(F: MassField, a: float) -> tuple[float, float, float]:
    """Admissibility functionals of the initial field, using X_a = sum n^a f_n.

    Returns ``(A1, A2, A3)``:
      A1 = double Riemann sum of X_a(x) X_1(y) w(|x-y|) dx dy,
      A2 = max over grid points x of sum_y X_a(y) w(|x-y|) h^dim,
      A3 = integral of X_a dx,
    with ``w`` the :func:`potential_kernel` and minimal-image displacements.
    For dim >= 2 the singular zero-displacement pair is skipped (and logged);
    dim=1 needs no exclusion since w(0) is finite there.
    """
    grid = F.grid
    xa = moment(F, a).reshape(grid.n_cells)
    x1 = moment(F, 1.0).reshape(grid.n_cells)
    w = potential_kernel(_pair_distance_matrix(grid), grid.dim)
    if grid.dim >= 2:
        np.fill_diagonal(w, 0.0)
        log.debug("initial-data functionals: skipped singular self-pairs (dim=%d)", grid.dim)
    a1 = float(xa @ w @ x1) * grid.cell_volume**2
    a2 = float((w @ xa).max()) * grid.cell_volume
    a3 = float(xa.sum()) * grid.cell_volume
    return a1, a2, a3
