"""Golden Figure-6 digests: seeded sweeps stay bitwise identical across changes.

The digests were computed before term circuits were assembled from memoised
gadgets and before shot grids were allocated in one vectorised pass.  Any
change to term-circuit content, cache keys, shot allocation or random-stream
consumption changes them.  Each strategy is checked on every backend.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.figure6 import Figure6Config, run_figure6

#: Budgets 1 and 7 sit at and just above the number of NME terms (3).
GOLDEN_CONFIG = Figure6Config(num_states=24, shot_grid=(1, 7, 250, 1000, 5000), seed=6)

#: sha256 of ``mean_errors.tobytes()`` per allocation strategy.
GOLDEN_DIGESTS = {
    "proportional": "1adce18c6265519dc4aa655dcfba259aa2e079393a5b166c7d3e6647c8b767c4",
    "uniform": "c6b8e1401609801f11278b5dc46d6578999a81a9989c976e82c4f17e916a67ac",
    "multinomial": "6d7fa419a99bfa01672e007ff37d92cd32d6ab268cfbdb1609907a0e92443e73",
}


@pytest.mark.parametrize("backend", ["serial", "vectorized", "process-pool"])
@pytest.mark.parametrize("allocation", sorted(GOLDEN_DIGESTS))
def test_mean_errors_match_golden_digest(allocation, backend):
    config = dataclasses.replace(GOLDEN_CONFIG, allocation=allocation, backend=backend)
    result = run_figure6(config)
    assert result.mean_errors.shape == (6, 5)
    assert hashlib.sha256(result.mean_errors.tobytes()).hexdigest() == GOLDEN_DIGESTS[allocation]
