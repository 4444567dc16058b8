"""Augmented complex vectors and matrices.

A complex random vector x is only fully described by second-order statistics
when both its covariance E[x x^H] and its pseudo-covariance E[x x^T] are
tracked.  The standard device is to work with the augmented vector
[x; conj(x)] whose covariance carries both.  Every matrix acting on such a
vector inherits a block structure

    [[B11, B12],
     [conj(B12), conj(B11)]]

and this module provides the two container types plus the helpers used to
build, check, and repair that structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class StructureError(ValueError):
    """Raised when a matrix or vector is too far from augmented structure."""


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

    @property
    def n(self) -> int:
        """Dimension of the underlying (non-augmented) vector."""
        return self.top.shape[-1]

    def materialize(self) -> np.ndarray:
        """Return the full 2n vector [x; conj(x)]."""
        return np.concatenate([self.top, np.conj(self.top)], axis=-1)


@dataclass(frozen=True)
class AugmentedMatrix:
    """Block-structured matrix [[B11, B12], [conj(B12), conj(B11)]].

    Only the two top blocks are stored; the mirrored bottom row of blocks is
    materialized on demand.  For an augmented covariance, ``block11`` is the
    covariance E[x x^H] and ``block12`` the pseudo-covariance E[x x^T].
    """

    block11: np.ndarray
    block12: np.ndarray

    def __post_init__(self):
        b11 = _as_complex(self.block11)
        b12 = _as_complex(self.block12)
        if b11.shape != b12.shape:
            raise ValueError(f"block shapes differ: {b11.shape} vs {b12.shape}")
        if b11.shape[-1] != b11.shape[-2]:
            raise ValueError("blocks must be square")
        object.__setattr__(self, "block11", b11)
        object.__setattr__(self, "block12", b12)

    @property
    def n(self) -> int:
        return self.block11.shape[-1]

    @classmethod
    def diagonal(cls, values: Sequence[float] | np.ndarray) -> "AugmentedMatrix":
        """Structured matrix with real diagonal block11 and zero block12."""
        d = np.asarray(values, dtype=np.float64)
        return cls(np.diag(d).astype(np.complex128), np.zeros((d.size, d.size), np.complex128))

    @classmethod
    def eye(cls, n: int, scale: float = 1.0) -> "AugmentedMatrix":
        return cls.diagonal(np.full(n, scale))

    def materialize(self) -> np.ndarray:
        """Return the full 2n x 2n matrix."""
        top = np.concatenate([self.block11, self.block12], axis=-1)
        bottom = np.concatenate([np.conj(self.block12), np.conj(self.block11)], axis=-1)
        return np.concatenate([top, bottom], axis=-2)

    def __matmul__(self, other):
        if isinstance(other, AugmentedVector):
            x = other.top[..., None]
            top = (self.block11 @ x + self.block12 @ np.conj(x))[..., 0]
            return AugmentedVector(top)
        if isinstance(other, AugmentedMatrix):
            b11 = self.block11 @ other.block11 + self.block12 @ np.conj(other.block12)
            b12 = self.block11 @ other.block12 + self.block12 @ np.conj(other.block11)
            return AugmentedMatrix(b11, b12)
        return NotImplemented


def augment(x) -> AugmentedVector:
    """Wrap a plain complex vector (or batch of them) as an AugmentedVector."""
    return AugmentedVector(_as_complex(x))


def _conjugate_block_flip(full: np.ndarray) -> np.ndarray:
    """Swap the block quadrants of a 2n x 2n matrix and conjugate.

    A matrix has augmented structure exactly when it is a fixed point of this
    map.
    """
    n = full.shape[-1] // 2
    out = np.empty_like(full)
    out[..., :n, :n] = np.conj(full[..., n:, n:])
    out[..., :n, n:] = np.conj(full[..., n:, :n])
    out[..., n:, :n] = np.conj(full[..., :n, n:])
    out[..., n:, n:] = np.conj(full[..., :n, :n])
    return out


def enforce_structure(full: np.ndarray, tol: float = 1e-9) -> AugmentedMatrix:
    """Project a full 2n x 2n matrix onto augmented block structure.

    Averages the matrix with its conjugate-block flip and returns the block
    form.  If the deviation from structure exceeds ``tol`` relative to the
    matrix max-norm the input is considered corrupted and a StructureError is
    raised rather than silently repaired.  The projection is idempotent.
    """
    full = _as_complex(full)
    if full.ndim < 2 or full.shape[-1] != full.shape[-2] or full.shape[-1] % 2:
        raise ValueError("expected a square matrix of even dimension")
    flipped = _conjugate_block_flip(full)
    dev = float(np.max(np.abs(full - flipped))) if full.size else 0.0
    scale = max(float(np.max(np.abs(full))), 1e-300) if full.size else 1.0
    if dev > tol * scale:
        raise StructureError(
            f"structure deviation {dev:.3e} exceeds {tol:.1e} * max-norm {scale:.3e}"
        )
    sym = (full + flipped) / 2.0
    n = full.shape[-1] // 2
    return AugmentedMatrix(sym[..., :n, :n], sym[..., :n, n:])
