"""Dense forms of the augmented algebra: the reference the block-form code is tested against.

A model declares its Jacobian ``[A11 A12]`` as ``(row, augmented column,
value)`` terms and its observation row as ``(augmented column, value)``
terms; these helpers spell them out as full 2n-wide matrices.  A
covariance is held as its top block row ``[B11 B12]``, as the filter holds
it, and :func:`full` is the one way to the full matrix.  Every array is in
the step's layout, entries first and any batch axes last: a vector is
(n, ...) and a matrix (r, c, ...).
"""

import numpy as np


def hconj(a):
    return np.conj(np.swapaxes(a, 0, 1))


def matmul(a, b):
    """The products of matrices a (r, k, ...) and b (k, c, ...), their batch axes broadcast."""
    nd = max(a.ndim, b.ndim)
    a, b = (np.reshape(m, m.shape + (1,) * (nd - m.ndim)) for m in (a, b))
    return np.einsum("ij...,jk...->ik...", a, b)


def matvec(a, x):
    """The products of matrices a (r, k, ...) and vectors x (k, ...)."""
    return matmul(a, x[:, None])[:, 0]


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def full(top):
    """The augmented matrix whose top block row is ``top`` (r, 2c, ...)."""
    c = top.shape[1] // 2
    bottom = np.conj(np.concatenate([top[:, c:], top[:, :c]], axis=1))
    return np.concatenate([top, bottom])


def augment(x):
    """The augmented vector ``[x; conj(x)]`` of a top half x (n, ...)."""
    return np.concatenate([x, np.conj(x)])


def term_rows(terms, n_rows, width):
    """The dense rows, (n_rows, width, ...), that ``(row, column, value)`` terms describe."""
    terms = list(terms)
    batch = np.broadcast_shapes(*(np.shape(v) for _, _, v in terms))
    out = np.zeros((n_rows, width) + batch, dtype=complex)
    for r, c, v in terms:
        out[r, c] += v
    return out


def jacobian(terms, n):
    """The full 2n x 2n Jacobian of a model's ``jacobian_A`` terms."""
    return full(term_rows(terms, n, 2 * n))


def observation(h, n):
    """The full 2 x 2n observation matrix of ``(column, value)`` terms."""
    return full(term_rows(((0, c, v) for c, v in h), 1, 2 * n))


def random_covariance(rng, rows, n):
    """The top block row (n, 2n, rows) of a structured Hermitian positive
    definite covariance B B^H + 0.1 I, B random."""
    b = full(complex_normal(rng, (n, 2 * n, rows)))
    m = matmul(b, hconj(b)) + 0.1 * np.eye(2 * n)[..., None]
    return np.ascontiguousarray(m[:n])


def inv(a):
    """The inverse of each matrix of a (r, r, ...)."""
    return np.moveaxis(np.linalg.inv(np.moveaxis(a, (0, 1), (-2, -1))), (-2, -1), (0, 1))


def max_cond(a):
    """The largest condition number among the matrices of a (r, r, ...)."""
    return np.max(np.linalg.cond(np.moveaxis(a, (0, 1), (-2, -1))))
