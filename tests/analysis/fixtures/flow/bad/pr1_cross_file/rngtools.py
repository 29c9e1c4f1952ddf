"""Helper half of the cross-file PR 1 reproduction.

This file is individually blameless: the purpose is a seeding table
constant, the generator comes from the seed bank, and there is no
``numpy.random`` call
for the per-file lint to notice.  The missing return annotation is the
crux — ``repro lint`` cannot type ``noise_rng``'s return value, so the
caller-side cache in ``windows.py`` looks like an ordinary assignment to
it.  The flow pass infers the return type from the returned expression.
"""

from repro.seir.seeding import PURPOSE_SMC_JITTER


def noise_rng(bank):
    """Derive the window-noise stream from the bank (untyped return)."""
    return bank.ancillary_generator(purpose=PURPOSE_SMC_JITTER)
