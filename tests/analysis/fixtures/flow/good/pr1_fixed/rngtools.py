"""Helper half of the fixed PR 1 shape — identical to the bad variant.

The helper was never the problem; the caller's module-level cache was.
"""

from repro.seir.seeding import PURPOSE_SMC_JITTER


def noise_rng(bank):
    """Derive the window-noise stream from the bank (untyped return)."""
    return bank.ancillary_generator(purpose=PURPOSE_SMC_JITTER)
