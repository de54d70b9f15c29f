"""Pytest bootstrap.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. on offline machines where ``pip install -e .`` is unavailable because
the ``wheel`` package is missing).  When the package *is* installed this is a
no-op apart from putting the in-tree sources first on ``sys.path``.

``--shuffle-seed N`` runs the collected tests in an order drawn from seed
``N``, so hidden dependencies between tests show up as failures.
"""

import random
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_addoption(parser):
    parser.addoption(
        "--shuffle-seed",
        type=int,
        default=None,
        help="run the collected tests in a random order drawn from this seed",
    )


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        random.Random(seed).shuffle(items)
