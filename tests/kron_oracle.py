"""The full-layout matrix of an operator on named factors, built with
`np.kron`: the reference that tests hold `hilbert.apply` and the circuit's
readings against, since src never builds one."""

import functools
import itertools

import numpy as np


def embed(matrix, layout, on):
    """The full-layout matrix that acts as `matrix` on the factors `on`, in
    that order (the first is the most significant digit of the matrix
    index), and as the identity elsewhere: the sum over the matrix units
    |i><j| of `on`'s joint values of m[i, j] times the kron, over the
    layout's own factor order, of each named factor's unit and the identity
    on every other factor."""
    dims = [dict(layout.factors)[n] for n in on]
    values = list(itertools.product(*map(range, dims)))
    full = np.zeros((layout.dim, layout.dim), dtype=np.complex128)
    for (i, vi), (j, vj) in itertools.product(enumerate(values), repeat=2):
        unit = {n: np.outer(np.eye(d)[a], np.eye(d)[b]) for n, d, a, b in zip(on, dims, vi, vj)}
        full += matrix[i][j] * functools.reduce(
            np.kron, [unit.get(n, np.eye(d)) for n, d in layout.factors])
    return full
