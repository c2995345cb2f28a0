"""Reproducible, splittable random streams.

Every stochastic routine in the package takes an explicit stream; nothing
touches global RNG state.  Streams are derived from a 64-bit master seed plus
a path of small integers (stream role, replicate index, ...) through numpy's
``SeedSequence`` spawn keys on top of the counter-based Philox generator, so

* the same (seed, path) always yields the same stream, and
* streams with different paths are statistically independent,

which is exactly the split-and-reproduce contract the simulation and
Monte Carlo code relies on (e.g. the PARX covariate path must not move when
only the count parameters change).
"""

from __future__ import annotations

import numpy as np

# Stream roles.  Fixed small integers: part of the reproducibility contract,
# do not renumber.
OBSERVATION = 0  # the simulator's per-step count draws
COVARIATE = 1  # the PARX covariate noise, one block per run
JITTER = 2  # the fit's start jitter
GAMMA = 3  # NBIN's gamma mixing factors, one per step, drawn in blocks


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for ``path`` under ``seed``.

    ``path`` is any tuple of nonnegative integers; distinct paths give
    independent streams.  An empty path is the root stream.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in path))
    return np.random.Generator(np.random.Philox(ss))

