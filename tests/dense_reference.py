"""Dense forms of the augmented algebra: the reference the block-form code is tested against.

A model declares its Jacobian ``[A11 A12]`` as ``(row, augmented column,
value)`` terms and its observation row as ``(augmented column, value)``
terms; these helpers spell them out as full 2n-wide matrices.  A
covariance is held as its top block row ``[B11 B12]``, as the filter holds
it, and :func:`full` is the one way to the full matrix.
"""

import numpy as np


def hconj(a):
    return np.conj(np.swapaxes(a, -1, -2))


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def full(top):
    """The augmented matrix whose top block row is ``top`` (..., r, 2c)."""
    c = top.shape[-1] // 2
    bottom = np.conj(np.concatenate([top[..., c:], top[..., :c]], axis=-1))
    return np.concatenate([top, bottom], axis=-2)


def augment(x):
    """The augmented vector ``[x; conj(x)]`` of a top half x (..., n)."""
    return np.concatenate([x, np.conj(x)], axis=-1)


def term_rows(terms, n_rows, width):
    """The dense rows, (..., n_rows, width), that ``(row, column, value)`` terms describe."""
    terms = list(terms)
    batch = np.broadcast_shapes(*(np.shape(v) for _, _, v in terms))
    out = np.zeros(batch + (n_rows, width), dtype=complex)
    for r, c, v in terms:
        out[..., r, c] += v
    return out


def jacobian(terms, n):
    """The full 2n x 2n Jacobian of a model's ``jacobian_A`` terms."""
    return full(term_rows(terms, n, 2 * n))


def observation(h, n):
    """The full 2 x 2n observation matrix of ``(column, value)`` terms."""
    return full(term_rows(((0, c, v) for c, v in h), 1, 2 * n))


def random_covariance(rng, batch, n):
    """The top block row (*batch, n, 2n) of a structured Hermitian positive
    definite covariance B B^H + 0.1 I, B random."""
    b11 = complex_normal(rng, batch + (n, n))
    b = full(np.concatenate([b11, complex_normal(rng, batch + (n, n))], axis=-1))
    m = b @ hconj(b) + 0.1 * np.eye(2 * n)
    return np.ascontiguousarray(m[..., :n, :])
