"""Array-native evaluation of the hybrid-model MIS delay functions.

The 2-input entry points run the parameter-block kernel of
:mod:`repro.engine.blocks` on a 1-row block.  For a Δ sweep of one
parameter set almost everything is shared: the mode constants, the
first-segment crossing times and the settle cutoff do not depend on
Δ.  That row-constants step is memoised per parameter set (and
``vn_init``) with ``lru_cache``, so a sweep pays only for the Δ step,
which broadcasts the row constants over the whole Δ array.

The n-input entry points run the flattened
:class:`~repro.core.multi_input.CompiledNorKernel`.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core.multi_input import GeneralizedNorParameters, compiled_nor_kernel
from ..core.parameters import NorGateParameters
from .base import register_engine, traced_entry_point
from .blocks import (_as_deltas, _falling_delays, _falling_rows,
                     _rising_delays, _rising_rows,
                     block_from_parameters, falling_delays_block,
                     rising_delays_block)

__all__ = ["VectorizedEngine"]


@functools.lru_cache(maxsize=256)
def _falling_rows_of(params: NorGateParameters):
    return _falling_rows(block_from_parameters(params))


@functools.lru_cache(maxsize=256)
def _rising_rows_of(params: NorGateParameters, vn_init: float):
    return _rising_rows(block_from_parameters(params), vn_init)


class VectorizedEngine:
    """NumPy batch evaluation of the closed-form mode chains."""

    name = "vectorized"

    @traced_entry_point("engine.delays", "falling")
    def delays_falling(self, params: NorGateParameters,
                       deltas) -> np.ndarray:
        """Falling MIS delays ``δ↓_M(Δ)`` for a whole Δ array at once.

        Parameters
        ----------
        params : NorGateParameters
            Electrical parameter set (SI units).
        deltas : array_like of float
            Input separations in seconds; ``±inf`` allowed, NaN
            rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*; matches the scalar reference to ≪ 1e-12 s.
        """
        d = _as_deltas(deltas)
        return _falling_delays(_falling_rows_of(params),
                               d.reshape(1, -1)).reshape(d.shape)

    @traced_entry_point("engine.delays", "rising")
    def delays_rising(self, params: NorGateParameters, deltas,
                      vn_init: float = 0.0) -> np.ndarray:
        """Rising MIS delays ``δ↑_M(Δ)`` for a whole Δ array at once.

        Parameters
        ----------
        params : NorGateParameters
            Electrical parameter set (SI units).
        deltas : array_like of float
            Input separations in seconds; ``±inf`` allowed, NaN
            rejected.
        vn_init : float, optional
            Mode-(1,1) internal-node voltage in volts, within
            ``[0, VDD]`` (default 0.0, the GND worst case).

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*; matches the scalar reference to ≪ 1e-12 s.

        Raises
        ------
        ParameterError
            On NaN separations or a *vn_init* outside ``[0, VDD]``.
        """
        d = _as_deltas(deltas)
        return _rising_delays(_rising_rows_of(params, float(vn_init)),
                              d.reshape(1, -1)).reshape(d.shape)

    @traced_entry_point("engine.delays_block", "falling")
    def delays_falling_block(self, block, deltas) -> np.ndarray:
        """Falling MIS delays for a whole parameter sample block.

        The parameter-axis batch entry point
        (:func:`repro.engine.blocks.falling_delays_block`): sample
        ``i`` of the block is evaluated at Δ row ``deltas[i]`` in one
        NumPy pass — the Monte-Carlo hot path of
        :mod:`repro.stats.montecarlo`.

        Parameters
        ----------
        block : numpy.ndarray
            Sample block of dtype
            :data:`repro.engine.blocks.BLOCK_DTYPE`, shape ``(N,)``.
        deltas : array_like of float
            Input separations in seconds, shape ``(N,)`` or
            ``(N, M)``; ``±inf`` allowed, NaN rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*.
        """
        return falling_delays_block(block, deltas)

    @traced_entry_point("engine.delays_block", "rising")
    def delays_rising_block(self, block, deltas,
                            vn_init: float = 0.0) -> np.ndarray:
        """Rising MIS delays for a whole parameter sample block.

        Parameters
        ----------
        block : numpy.ndarray
            Sample block of dtype
            :data:`repro.engine.blocks.BLOCK_DTYPE`, shape ``(N,)``.
        deltas : array_like of float
            Input separations in seconds, shape ``(N,)`` or
            ``(N, M)``; ``±inf`` allowed, NaN rejected.
        vn_init : float, optional
            Mode-(1,1) internal-node voltage in volts, shared by the
            block (default 0.0, the GND worst case).

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), same shape as
            *deltas*.
        """
        return rising_delays_block(block, deltas, vn_init)

    @traced_entry_point("engine.delays_n", "falling")
    def delays_falling_n(self, params: GeneralizedNorParameters,
                         deltas) -> np.ndarray:
        """Falling n-input MIS delays, batched over a Δ-vector grid.

        Runs the flattened
        :class:`~repro.core.multi_input.CompiledNorKernel` (stacked
        eigen tensors, shared per parameter set and persisted via
        :mod:`repro.cache` when configured).  For ``n = 2`` it agrees
        with the 2-input :meth:`delays_falling` to ≤ 1e-12 s
        (asserted by the parity suite).

        Parameters
        ----------
        params : GeneralizedNorParameters
            n-input electrical parameter set (SI units).
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus, NaN rejected.

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), shape
            ``deltas.shape[:-1]``.
        """
        return compiled_nor_kernel(params).evaluate(deltas, "falling")

    @traced_entry_point("engine.delays_n", "rising")
    def delays_rising_n(self, params: GeneralizedNorParameters,
                        deltas, internal_init: float = 0.0
                        ) -> np.ndarray:
        """Rising n-input MIS delays, batched over a Δ-vector grid.

        Parameters
        ----------
        params : GeneralizedNorParameters
            n-input electrical parameter set (SI units).
        deltas : array_like of float
            Sibling offsets, shape ``(..., n−1)``; ``±inf`` clips to
            the SIS plateaus, NaN rejected.
        internal_init : float, optional
            Initial voltage of every internal chain node, volts
            (default 0.0, the GND worst case).

        Returns
        -------
        numpy.ndarray
            Delays in seconds (``δ_min`` included), shape
            ``deltas.shape[:-1]``.
        """
        return compiled_nor_kernel(params).evaluate(
            deltas, "rising", float(internal_init))


register_engine(VectorizedEngine.name, VectorizedEngine)
