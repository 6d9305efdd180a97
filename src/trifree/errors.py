"""Exceptions shared across the package."""


class ConstructionError(Exception):
    """A verified structural claim failed while building a family."""


def fail_on(messages: list[str]) -> None:
    """Raise one ConstructionError carrying every message, if there are any."""
    if messages:
        raise ConstructionError("; ".join(messages))


class IllegalIntervalError(Exception):
    """Presenter attempted a move that breaks the game rules."""


class IllegalColorError(Exception):
    """Painter attempted a color already used by an overlap neighbor."""
