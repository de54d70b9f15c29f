"""A latch-gated simulator backend for order-independent service tests.

``GatedBackend`` wraps any real backend and blocks every ``run_batch`` and
``exact_distributions`` call until its gate opens.  A test that needs a job
to stay *active* while it asserts admission behaviour (quotas, drain)
installs it via ``JobSpec.build_pipeline`` monkeypatching, makes its
assertions, and opens the gate in ``finally`` — no sleeps, no dependence on
how fast the job would otherwise finish (warm caches make that arbitrarily
fast).
"""

from __future__ import annotations

import threading

from repro.circuits.backends import resolve_backend
from repro.exceptions import SimulationError


class GatedBackend:
    """A simulator backend whose calls wait for :meth:`release`.

    Parameters
    ----------
    inner:
        The real backend (name or instance) serving calls once released;
        ``None`` selects the serial backend.
    timeout:
        Seconds a call waits for the gate before failing, so a test that
        forgets to release cannot hang the suite.
    """

    def __init__(self, inner=None, timeout: float = 120.0) -> None:
        self._inner = resolve_backend(inner)
        self._gate = threading.Event()
        self._timeout = float(timeout)
        self.name = f"gated({self._inner.name})"

    def release(self) -> None:
        """Open the gate: every waiting and future call proceeds."""
        self._gate.set()

    def _wait(self) -> None:
        if not self._gate.wait(self._timeout):
            raise SimulationError(f"{self.name} was never released")

    def run_batch(self, circuits, shots, seed=None):
        """Wait for the gate, then delegate to the inner backend."""
        self._wait()
        return self._inner.run_batch(circuits, shots, seed=seed)

    def exact_distributions(self, circuits):
        """Wait for the gate, then delegate to the inner backend."""
        self._wait()
        return self._inner.exact_distributions(circuits)
