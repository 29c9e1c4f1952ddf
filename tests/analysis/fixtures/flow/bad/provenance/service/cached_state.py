"""Generator state cached on a long-lived service object (REPRO502 x2).

Service/supervisor objects live across calibration windows by design, so
both escape shapes here turn a transient stream into cross-window state:
the generator-typed dataclass field declares the intent, and the
``start`` method realises it by storing the bank-derived stream on
``self``.

The purpose is a seeding table constant, so only the cached stream is flagged.
"""

import numpy as np

from repro.seir.seeding import PURPOSE_SERVICE_CHAOS


class NoiseService:
    rng: np.random.Generator  # generator-typed field on service state

    def start(self, bank):
        # stores the stream for the service's whole lifetime
        self._rng = bank.ancillary_generator(purpose=PURPOSE_SERVICE_CHAOS)

    def tick(self, n):
        return self._rng.normal(size=n)
