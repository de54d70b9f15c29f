"""The noisy virtual-device execution backend.

:class:`NoisyDeviceBackend` wraps any ideal
:class:`~repro.circuits.backends.SimulatorBackend` and applies a
:class:`~repro.devices.noise_model.NoiseModel` to every circuit it executes:

* with **gate noise** the exact noisy outcome distribution is computed by a
  :class:`~repro.circuits.density_matrix_simulator.DensityMatrixSimulator`
  carrying the model's gate-noise hook (the wrapped backend's vectorised
  machinery cannot batch Kraus evolution, so the noisy path is serial but
  exact);
* a model with **readout error only** delegates the quantum part to the
  wrapped backend — keeping its batching and caching — and confuses the
  resulting distributions classically;
* an **ideal** model makes the wrapper fully transparent: ``run_batch`` and
  ``exact_distributions`` are forwarded verbatim, so a noiseless device is
  bitwise-identical to the bare backend.

Noisy distributions are memoised in a
:class:`~repro.circuits.backends.DistributionCache` (the process-wide default
unless one is injected) under keys that append the noise model's
:meth:`~repro.devices.noise_model.NoiseModel.fingerprint` to the circuit
fingerprint.  Ideal entries keep their bare circuit-fingerprint keys, so a
noisy run can share a cache with ideal sweeps without ever poisoning them.

Sampling follows the library-wide determinism contract: ``run_batch`` spawns
one child seed stream per circuit and draws that circuit's full budget with
a single multinomial over its (noisy) exact distribution — the same seed
yields the same :class:`~repro.circuits.counts.Counts` whatever the wrapped
backend.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.circuits.backends import (
    DistributionCache,
    SimulatorBackend,
    _sample_batch,
    circuit_fingerprint,
    default_distribution_cache,
    resolve_backend,
)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.counts import Counts
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.devices.noise_model import NoiseModel
from repro.utils.rng import SeedLike

__all__ = ["NoisyDeviceBackend", "noisy_cache_key"]


def noisy_cache_key(circuit: QuantumCircuit, noise: NoiseModel) -> str:
    """Return the cache key of a circuit's outcome distribution under ``noise``.

    The key is the ideal :func:`~repro.circuits.backends.circuit_fingerprint`
    with the noise model's fingerprint appended, so distributions computed
    under different noise models (or none) occupy distinct cache entries.
    """
    return f"{circuit_fingerprint(circuit)}|noise={noise.fingerprint()}"


class NoisyDeviceBackend:
    """A :class:`~repro.circuits.backends.SimulatorBackend` with a noise model applied.

    Parameters
    ----------
    noise:
        The device's :class:`~repro.devices.noise_model.NoiseModel`.
    inner:
        The ideal backend (name or instance) executing the noiseless part;
        ``None`` selects the vectorized backend.  For a noiseless model the
        wrapper forwards to ``inner`` verbatim.
    cache:
        Distribution cache for noisy results; defaults to the process-wide
        :data:`~repro.circuits.backends.default_distribution_cache` (safe,
        because noisy keys embed the noise fingerprint).

    Examples
    --------
    >>> from repro.devices import NoiseModel, NoisyDeviceBackend
    >>> backend = NoisyDeviceBackend(NoiseModel(depolarizing_2q=0.05))
    >>> backend.name
    'noisy(vectorized)'
    """

    def __init__(
        self,
        noise: NoiseModel,
        inner: SimulatorBackend | str | None = None,
        cache: DistributionCache | None = None,
    ):
        if not isinstance(noise, NoiseModel):
            raise TypeError(f"noise must be a NoiseModel, got {type(noise).__name__}")
        self.noise = noise
        self.inner = resolve_backend("vectorized" if inner is None else inner)
        self.cache = default_distribution_cache if cache is None else cache
        self.name = f"noisy({self.inner.name})"

    # -- SimulatorBackend protocol -----------------------------------------------------

    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        shots: Sequence[int],
        seed: SeedLike = None,
    ) -> list[Counts]:
        """Sample ``shots[i]`` noisy outcomes of ``circuits[i]`` for every ``i``."""
        if self.noise.is_noiseless:
            return self.inner.run_batch(circuits, shots, seed=seed)
        # The shared sampler calls back into exact_distributions, so
        # zero-shot circuits skip the (noisy) simulation exactly as they do
        # on the ideal backends.
        return _sample_batch(self, circuits, shots, seed)

    def exact_distributions(
        self, circuits: Sequence[QuantumCircuit]
    ) -> list[dict[str, float]]:
        """Return every circuit's exact outcome distribution *under the noise model*."""
        if self.noise.is_noiseless:
            return self.inner.exact_distributions(circuits)

        results: list[dict[str, float] | None] = [None] * len(circuits)
        pending_by_key: dict[str, list[int]] = {}
        for index, circuit in enumerate(circuits):
            key = noisy_cache_key(circuit, self.noise)
            cached = self.cache.get(key)
            if cached is not None:
                results[index] = cached
            else:
                pending_by_key.setdefault(key, []).append(index)

        if pending_by_key:
            unique = [(key, circuits[indices[0]]) for key, indices in pending_by_key.items()]
            if self.noise.has_gate_noise:
                simulator = DensityMatrixSimulator(gate_noise=self.noise.gate_noise_hook)
                ideal_or_gate_noisy = [
                    simulator.run(circuit).classical_distribution() for _, circuit in unique
                ]
            else:
                # Readout error only: the quantum part is ideal, so the wrapped
                # backend's batching/caching does the heavy lifting.
                ideal_or_gate_noisy = self.inner.exact_distributions(
                    [circuit for _, circuit in unique]
                )
            for (key, _), distribution in zip(unique, ideal_or_gate_noisy):
                noisy = self.noise.apply_readout_error(distribution)
                self.cache.put(key, noisy)
                for index in pending_by_key[key]:
                    results[index] = noisy
        return results  # type: ignore[return-value]

    # -- diagnostics -------------------------------------------------------------------

    def average_z_expectation(self, circuit: QuantumCircuit, clbits: Sequence[int]) -> float:
        """Return the exact noisy mean of ``(−1)^{parity of clbits}`` for ``circuit``."""
        (distribution,) = self.exact_distributions([circuit])
        value = 0.0
        for bitstring, probability in distribution.items():
            parity = sum(int(bitstring[c]) for c in clbits) % 2
            value += ((-1) ** parity) * probability
        return float(value)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        """Return a short configuration summary."""
        return f"NoisyDeviceBackend(noise={self.noise!r}, inner={self.inner.name!r})"
