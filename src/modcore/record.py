"""Plain records: the library's verdicts, parse records and reports.

A `Record` subclass declares its fields as annotations, in order, and gives
a field a default by a class attribute of the same name.  Records of the
same type are equal when their fields are, are not hashable, and list their
fields in their repr; `session._report_value` renders one by `_fields`.
Nothing is generated per class, so a record class costs no more to import
than any other class.
"""

from __future__ import annotations


class Record:
    _fields = ()  # the field names, in declaration order
    _names = frozenset()
    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._names = frozenset(cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = self.__dict__
        values.update(zip(fields, args), **kwargs)
        if len(values) != len(fields) or len(args) + len(kwargs) != len(fields) or not values.keys() <= self._names:
            self._check(args, kwargs)

    def _check(self, args, kwargs):
        """Raise TypeError unless the fields given, and the defaults of the
        rest, fill every field exactly once."""
        cls = type(self)
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)} positional")
        for key in kwargs:
            if key not in self._names:
                raise TypeError(f"{cls.__name__} has no field {key!r}")
            if key in fields[: len(args)]:
                raise TypeError(f"{cls.__name__} got field {key!r} twice")
        missing = [f for f in fields if f not in self.__dict__ and f not in cls.__dict__]
        if missing:
            raise TypeError(f"{cls.__name__} is missing field(s) {', '.join(missing)}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"
