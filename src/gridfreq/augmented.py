"""Augmented complex vectors and matrices.

A complex random vector x is only fully described by second-order statistics
when both its covariance E[x x^H] and its pseudo-covariance E[x x^T] are
tracked.  The standard device is to work with the augmented vector
[x; conj(x)] whose covariance carries both.  Every matrix acting on such a
vector inherits a block structure

    [[B11, B12],
     [conj(B12), conj(B11)]]

and this module provides the two container types.  Only the top halves are
stored (a matrix's top block row as one array), so the structure holds by
construction.  The filter step works on the blocks directly;
``materialize`` builds the full matrix for the theory and for dense
reference checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


@dataclass(frozen=True)
class AugmentedVector:
    """Conjugate-pair vector [x; conj(x)], storing only the top half x.

    ``top`` may carry leading batch dimensions; the vector axis is last.
    """

    top: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "top", _as_complex(self.top))

    @classmethod
    def _of(cls, top: np.ndarray) -> "AugmentedVector":
        """Wrap a complex128 top half, skipping the conversion."""
        out = object.__new__(cls)
        object.__setattr__(out, "top", top)
        return out

    @property
    def n(self) -> int:
        """Dimension of the underlying (non-augmented) vector."""
        return self.top.shape[-1]

    def materialize(self) -> np.ndarray:
        """Return the full 2n vector [x; conj(x)]."""
        return np.concatenate([self.top, np.conj(self.top)], axis=-1)


@dataclass(frozen=True, init=False)
class AugmentedMatrix:
    """Block-structured matrix [[B11, B12], [conj(B12), conj(B11)]].

    Only the top block row ``[B11 B12]`` is stored, as the one array
    ``top``; ``block11`` and ``block12`` are views of its two halves, and
    the mirrored bottom row of blocks is materialized on demand.  For an
    augmented covariance, ``block11`` is the covariance E[x x^H] and
    ``block12`` the pseudo-covariance E[x x^T].  The blocks may be
    rectangular (an observation matrix is 1 x n, a gain n x 1) and may
    carry leading batch dimensions; ``top`` may be a view of memory laid out
    in any order, as the filter step leaves it.
    """

    top: np.ndarray

    def __init__(self, block11, block12):
        b11 = _as_complex(block11)
        b12 = _as_complex(block12)
        if b11.shape != b12.shape:
            raise ValueError(f"block shapes differ: {b11.shape} vs {b12.shape}")
        object.__setattr__(self, "top", np.concatenate([b11, b12], axis=-1))

    @classmethod
    def _of(cls, top: np.ndarray) -> "AugmentedMatrix":
        """Wrap a complex128 top block row of even width, skipping the checks."""
        out = object.__new__(cls)
        object.__setattr__(out, "top", top)
        return out

    @property
    def block11(self) -> np.ndarray:
        return self.top[..., : self.top.shape[-1] // 2]

    @property
    def block12(self) -> np.ndarray:
        return self.top[..., self.top.shape[-1] // 2 :]

    @classmethod
    def diagonal(cls, values: Sequence[float] | np.ndarray) -> "AugmentedMatrix":
        """Structured matrix with real diagonal block11 and zero block12."""
        d = np.asarray(values, dtype=np.float64)
        top = np.zeros((d.size, 2 * d.size), np.complex128)
        top[:, : d.size] = np.diag(d)
        return cls._of(top)

    @classmethod
    def eye(cls, n: int, scale: float = 1.0) -> "AugmentedMatrix":
        return cls.diagonal(np.full(n, scale))

    def materialize(self) -> np.ndarray:
        """Return the full matrix, twice the block size along both axes."""
        r, c = self.block11.shape[-2:]
        out = np.empty(self.top.shape[:-2] + (2 * r, 2 * c), dtype=np.complex128)
        out[..., :r, :] = self.top
        np.conj(self.block12, out=out[..., r:, :c])
        np.conj(self.block11, out=out[..., r:, c:])
        return out
