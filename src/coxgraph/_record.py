"""The base of the package's record types."""


class Record:
    """A record whose fields are its ``__slots__``, in order.

    Two records are equal when they are of the same class and their field
    tuples are equal; the hash is the field tuple's, so a record holding an
    unhashable field is unhashable.  The repr reads ``Name(field=value,
    ...)``.  Fields are read-only: ``__init__`` sets them with
    ``object.__setattr__``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
