"""The package's immutable records, as plain classes.

A record's ``__init__`` writes each field once, with ``set_field``
(``object.__setattr__``, looked up once); assigning or deleting an
attribute afterwards raises AttributeError.  A ``Value`` is also
compared by value: two are equal iff they are of one class and their
``_key`` tuples, the fields they are compared on, are equal, and equal
values hash alike.  The other records compare by identity, as no caller
compares them.
"""

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Value(Record):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())
