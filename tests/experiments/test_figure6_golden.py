"""Golden Figure-6 digests: seeded sweeps stay bitwise identical across changes.

The digests were computed when term ``p₊`` started coming from per-term
Pauli transfer matrices instead of simulated per-state term circuits: at
f = 0.5 both teleport terms' ``p₊`` is ½ in exact arithmetic, and which side
of ½ the rounding lands on picks NumPy's binomial branch, so the random
streams after those draws moved.  Any change to the transfer matrices, the
input-state arithmetic, shot allocation or random-stream consumption changes
them.  Each strategy is checked on every backend.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.figure6 import Figure6Config, run_figure6

#: Budgets 1 and 7 sit at and just above the number of NME terms (3).
GOLDEN_CONFIG = Figure6Config(num_states=24, shot_grid=(1, 7, 250, 1000, 5000), seed=6)

#: sha256 of ``mean_errors.tobytes()`` per allocation strategy.
GOLDEN_DIGESTS = {
    "proportional": "3840fb95bf4e1e8038fb5c6c8cce7f6d2c1842e0fa783f512e925a70579f162e",
    "uniform": "c7abeff33ecd652b61163851d57ba4bcd6c719944e26626d4ccf6e9c579d636b",
    "multinomial": "4822d46b9c95d0841c6270b920be9f0fff5793067c2de3a8bb8520c98a42d905",
}


@pytest.mark.parametrize("backend", ["serial", "vectorized", "process-pool"])
@pytest.mark.parametrize("allocation", sorted(GOLDEN_DIGESTS))
def test_mean_errors_match_golden_digest(allocation, backend):
    config = dataclasses.replace(GOLDEN_CONFIG, allocation=allocation, backend=backend)
    result = run_figure6(config)
    assert result.mean_errors.shape == (6, 5)
    assert hashlib.sha256(result.mean_errors.tobytes()).hexdigest() == GOLDEN_DIGESTS[allocation]
