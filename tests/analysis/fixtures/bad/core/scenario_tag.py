"""Fixture guarding the scenario stream tag (bank tag 5, this PR).

The scenario axis earns its own reserved stream; the exact failure mode
that aliased the window streams in PR 5 — a bare integer tag nothing
checks — must keep tripping REPRO102 when written against the new tag,
so scenario seeds can never silently collide with window streams."""

from repro.seir.seeding import SeedSequenceBank, mix_seed

# The scenario tag bound here instead of in repro.seir.seeding's table.
_SCENARIO_STREAM = 5


def scenario_seed(base_seed: int, scenario_key: int) -> int:
    # REPRO102: literal scenario tag in the reserved position.
    return mix_seed(base_seed, 5, scenario_key)


def scenario_seed_via_constant(base_seed: int, scenario_key: int) -> int:
    # REPRO102: named, but bound here, not by repro.seir.seeding.
    return mix_seed(base_seed, _SCENARIO_STREAM, scenario_key)


def scenario_rng(bank: SeedSequenceBank, scenario_key: int) -> object:
    # REPRO102: literal purpose standing in for the scenario tag.
    return bank.ancillary_generator(purpose=5)
