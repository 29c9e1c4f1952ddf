"""Fixture: a function-local import binds only inside its own function.

``elapsed_days`` imports the ``datetime`` module locally, while ``stamp``
reads the clock through the module-level ``datetime`` class.  The local
import must not shadow that class in ``stamp`` (REPRO201), and a clock
read through a local import is still flagged where it happens.
"""

from datetime import datetime


def elapsed_days(days: int) -> float:
    import datetime
    return datetime.timedelta(days=days).total_seconds() / 86400.0


def stamp() -> str:
    return datetime.now().isoformat()


def local_today() -> str:
    import datetime
    return datetime.date.today().isoformat()
