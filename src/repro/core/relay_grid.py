"""Uniform grid over one slot's cluster heads (exact relay pruning).

:meth:`repro.core.routing.QRouter.choose_many` scores each sender only
against the heads in the 3x3x3 block of grid cells around it and bounds
the Q of every other head (see ``docs/kernels.md``, "Relay-choice
pruning").  This module supplies the geometry: the grid, the candidate
(sender, head) pairs, and a proven lower bound on the distance from each
sender to any head outside its block.  It is numpy only and is built
afresh for every call, so it carries no state between slots.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HeadGrid"]

_STEPS = np.array([-1, 0, 1])
#: The 27 cell offsets of a 3x3x3 block, in row-major order.
_OFFSETS = np.stack(np.meshgrid(_STEPS, _STEPS, _STEPS, indexing="ij"), axis=-1).reshape(-1, 3)
#: Absolute slack on distance bounds, relative to the coordinate scale:
#: far above the rounding of a cell index or of a distance, so a head
#: near a cell face can never sit closer than the bound says.
_SLACK = 1e-9


class HeadGrid:
    """Heads bucketed into cubic cells of side ``width``.

    Cell ``c`` along an axis spans ``[origin + c w, origin + (c+1) w)``
    where ``origin`` is the heads' lower corner.  Within a cell, heads
    keep their column order.
    """

    def __init__(self, positions: np.ndarray, width: float) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[0] == 0:
            raise ValueError("a head grid needs at least one head")
        if not width > 0.0:
            raise ValueError("cell width must be positive")
        self.width = float(width)
        self.origin = positions.min(axis=0)
        cells = self._cells(positions)
        self.shape = cells.max(axis=0) + 1
        self._strides = np.array([self.shape[1] * self.shape[2], self.shape[2], 1])
        flat = self._flat(cells)
        self._order = np.argsort(flat, kind="stable")
        self._counts = np.bincount(flat, minlength=int(np.prod(self.shape)))
        self._starts = np.cumsum(self._counts) - self._counts
        self._scale = float(np.abs(positions).max()) + self.width

    @classmethod
    def for_heads(cls, positions: np.ndarray, min_width: float = 0.0) -> "HeadGrid":
        """A grid holding about one head per cell, widened to
        ``min_width`` when the caller needs a wider certain reach."""
        positions = np.asarray(positions, dtype=np.float64)
        k = positions.shape[0]
        extent = np.ptp(positions, axis=0)
        spread = extent[extent > 0.0]
        if spread.size == 0:
            return cls(positions, 1.0)  # co-located heads: a single cell
        width = float((np.prod(spread) / k) ** (1.0 / spread.size))
        # Flat, elongated layouts would otherwise get a huge cell count.
        floor = float(spread.max()) / (2.0 * np.cbrt(k))
        return cls(positions, max(width, floor, float(min_width)))

    @property
    def scored_share(self) -> float:
        """Share of the grid that a 3x3x3 block covers: the expected
        share of heads an interior sender scores."""
        shape = self.shape.astype(np.float64)
        return float(np.prod(np.minimum(shape, 3.0) / shape))

    def _cells(self, points: np.ndarray) -> np.ndarray:
        return np.floor((points - self.origin) / self.width).astype(np.int64)

    def _flat(self, cells: np.ndarray) -> np.ndarray:
        return cells @ self._strides

    def neighbours(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate pairs for every point and a bound for the rest.

        Returns ``(rows, cols, gap)``.  ``(rows[i], cols[i])`` pairs
        point ``rows[i]`` with head column ``cols[i]``, for every head in
        the 3x3x3 block of cells around the point's cell; ``rows`` is
        non-decreasing.  ``gap[r]`` is a lower bound on the distance from
        point ``r`` to any head outside its block, ``inf`` when no head
        lies outside it.  Points outside the heads' bounding box are
        fine: their block may simply hold no heads.
        """
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        cell = self._cells(points)
        # Per axis, which of the offsets -1, 0, +1 land inside the grid;
        # a block cell is inside when all three axes are.
        ok = (cell[:, :, None] + _STEPS >= 0) & (cell[:, :, None] + _STEPS < self.shape[:, None])
        inside = (
            ok[:, 0, :, None, None] & ok[:, 1, None, :, None] & ok[:, 2, None, None, :]
        ).reshape(n, 27)
        flat = self._flat(cell)[:, None] + (_OFFSETS @ self._strides)[None, :]
        flat = np.where(inside, flat, 0)
        counts = np.where(inside, self._counts[flat], 0).ravel()
        starts = self._starts[flat].ravel()
        total = int(counts.sum())
        first = np.cumsum(counts) - counts
        idx = np.repeat(starts - first, counts) + np.arange(total)
        cols = self._order[idx]
        rows = np.repeat(np.arange(n), counts.reshape(n, 27).sum(axis=1))

        # A head outside the block lies beyond one of its six faces; a
        # face with no cells behind it excludes no head.
        w = self.width
        below = np.where(cell - 1 > 0, points - (self.origin + (cell - 1) * w), np.inf)
        above = np.where(
            cell + 2 < self.shape, self.origin + (cell + 2) * w - points, np.inf
        )
        gap = np.minimum(below, above).min(axis=1)
        slack = _SLACK * max(self._scale, float(np.abs(points).max(initial=0.0)))
        gap = np.maximum(gap - slack, 0.0)
        return rows, cols, gap
