"""Single source of truth for the package version."""

__version__ = "1.0.0"

#: Version of the estimator semantics behind seeded experiment tables.  It
#: joins the keys of stored experiment tables, so a change that moves seeded
#: outputs bumps it and no table computed by the previous sampler is served.
#: 2: Figure-6-style sampling models take term ``p₊`` from per-term Pauli
#: transfer matrices.
#: 3: gate-cut estimates and sampled Pauli expectations draw their shots
#: through the serial backend's per-circuit streams.
ENGINE_VERSION = 3
