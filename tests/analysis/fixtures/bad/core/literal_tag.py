"""Fixture reproducing the aliasing bug shape: integer-literal and locally
bound stream tags.  ``window_restart_seed``/``window_draw_seed`` aliased
because their tags were bare integers nothing checked; every tag use below
must trip REPRO102."""

from repro.seir.seeding import SeedSequenceBank, mix_seed, mix_seeds

# Tags bound here instead of in repro.seir.seeding's tables — exactly how
# the aliasing bug survived review.
_WINDOW_DRAW_STREAM = 3
_PURPOSE_LOCAL = 7


def draw_seed(base_seed: int, window_index: int) -> int:
    # REPRO102: literal tag in the reserved position.
    return mix_seed(base_seed, 3, window_index)


def restart_seed(base_seed: int, window_index: int) -> int:
    # REPRO102: named, but bound here, not by repro.seir.seeding.
    return mix_seed(base_seed, _WINDOW_DRAW_STREAM, window_index)


def draw_seeds(base_seed: int, rows: object) -> object:
    # REPRO102: literal tag in the vectorised mixer too.
    return mix_seeds(base_seed, 4242, rows)


def restart_seeds(base_seed: int, rows: object) -> object:
    # REPRO102: locally bound constant in the vectorised mixer.
    return mix_seeds(base_seed, _WINDOW_DRAW_STREAM, rows)


def tagless(base_seed: int) -> int:
    # REPRO102: no stream tag at all.
    return mix_seed(base_seed)


def thinning_rng(bank: SeedSequenceBank) -> object:
    # REPRO102: literal ancillary purpose.
    return bank.ancillary_generator(10)


def local_purpose_rng(bank: SeedSequenceBank) -> object:
    # REPRO102: locally bound purpose constant.
    return bank.ancillary_generator(purpose=_PURPOSE_LOCAL)
