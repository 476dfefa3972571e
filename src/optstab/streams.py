"""The lab's random streams, each keyed by (master seed, purpose, index).

Every draw the experiments make comes from ``stream(master, purpose, *index)``:
a Philox 4x64 generator on ``SeedSequence(master, spawn_key=(p, *index))``,
with p the purpose's position in ``PURPOSES``.  Distinct purposes or indices
give distinct keys, so no two uses of randomness share a stream unless they
are meant to (the base and perturbed runs of a coupled pair read one member
index).  "rows" and "labels" take no index; their keys are those of the
first two children that ``SeedSequence(master)`` spawns.
"""

from __future__ import annotations

import numpy as np

PURPOSES = ("rows", "labels", "split", "perturbation", "sgd_index", "sgld_noise")


def stream(master: int, purpose: str, *index: int) -> np.random.Generator:
    """The generator of ``purpose`` (one of ``PURPOSES``) at ``index`` under ``master``."""
    key = np.random.SeedSequence(master, spawn_key=(PURPOSES.index(purpose), *index))
    return np.random.Generator(np.random.Philox(key))
