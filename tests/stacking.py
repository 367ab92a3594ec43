"""Stacks of per-trial data, for tests that compare a check on a stack with
the same check on each trial alone.

``stack_chains`` turns chains drawn one trial at a time (arrays,
functionals, coadjoint arrows) into one chain of stacks with the bytes
``numpy.stack`` gives; ``entry`` takes one trial's arrow out of a stacked
one.
"""
from typing import Iterable, Iterator

import numpy as np

from wstargeo.algebra import NormalFunctional
from wstargeo.groupoids import CoadjointArrow


def stack_chains(chains: Iterable[list], count: int | None = None) -> list:
    """The chains, of equal length, as one chain of stacks: arrow ``i`` of the
    result holds arrow ``i`` of every chain, in order, as one matrix stack,
    functional stack or coadjoint arrow of stacks.

    ``chains`` may be an iterator of ``count`` chains (by default
    ``len(chains)``).  Each chain's matrices are copied into stacks allocated
    for all of them as the chain arrives, so a chain can be dropped before
    the next one is drawn; each stacked functional is built once, at the
    end.  The stacks hold the bytes ``numpy.stack`` gives."""
    if count is None:
        count = len(chains)
    first, stacks, k = None, [], -1
    for k, chain in enumerate(chains):
        matrices = [np.asarray(m) for arrow in chain for m in _matrices(arrow)]
        if first is None:
            first = chain
            stacks = [np.empty((count,) + m.shape, m.dtype) for m in matrices]
        if k >= count or len(matrices) != len(stacks):
            raise ValueError(f"expected {count} chains of one layout")
        for i, m in enumerate(matrices):
            if m.shape != stacks[i].shape[1:]:
                raise ValueError("all chains must hold arrows of the same shapes")
            dtype = np.result_type(stacks[i], m)
            if dtype != stacks[i].dtype:
                stacks[i] = stacks[i].astype(dtype)
            stacks[i][k] = m
    if k + 1 != count or first is None:
        raise ValueError(f"expected {count} chains, got {k + 1}")
    filled = iter(stacks)
    return [_restacked(arrow, filled) for arrow in first]


def entry(arrow, k: int):
    """Matrix ``k`` of a stacked arrow, as an arrow of the same kind."""
    return _restacked(arrow, iter(m[k] for m in _matrices(arrow)))


def _matrices(arrow) -> list:
    """The matrices an arrow is stored by, in the order :func:`_restacked`
    reads them back."""
    if isinstance(arrow, NormalFunctional):
        return [arrow.density]
    if isinstance(arrow, CoadjointArrow):
        return [arrow.u, arrow.rho.density]
    return [arrow]


def _restacked(arrow, stacks: Iterator[np.ndarray]):
    """An arrow of ``arrow``'s kind, built from the next stacks."""
    if isinstance(arrow, NormalFunctional):
        return NormalFunctional(arrow.algebra, next(stacks))
    if isinstance(arrow, CoadjointArrow):
        return CoadjointArrow(next(stacks), _restacked(arrow.rho, stacks))
    return next(stacks)
