"""Frozen value records, built without generated code.

A :class:`Record` subclass declares its fields as annotated class
attributes, in order, and a value given in the class body is that
field's default. Names passed as ``derived`` in the class statement are
fields that the class's ``_check`` sets instead of the caller. The
constructor takes every other field by position or by name, then calls
``_check``, which raises ValueError on a bad input and may settle a
field with ``object.__setattr__``. After that the record is frozen.
Records compare and hash by their fields; ``replace`` builds a checked
copy.

The modules that declare config sections or named tuples do not use
``from __future__ import annotations``: the config reader takes each
key's type from a section's annotations, and typing.NamedTuple compiles
every string annotation when it builds its class.
"""


class Record:
    _fields: tuple[str, ...] = ()  # every field, in declaration order
    _init: tuple[str, ...] = ()  # the fields the constructor takes
    _defaults: dict = {}

    def __init_subclass__(cls, derived: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._init = tuple(name for name in cls._fields if name not in derived)
        cls._defaults = {name: cls.__dict__[name] for name in cls._init if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        init = self._init
        values = self._defaults | dict(zip(init, args)) | kwargs
        if len(args) > len(init) or len(values) != len(init) \
                or not kwargs.keys() <= set(init[len(args):]):
            raise TypeError(
                f"{type(self).__name__}() takes {', '.join(init)}; got {len(args)} "
                f"positional and the keywords {sorted(kwargs)}"
            )
        self.__dict__.update(values)
        self._check()

    def _check(self) -> None:
        """Raise ValueError on a bad field; may settle fields."""

    @classmethod
    def _unchecked(cls, *values):
        """A record of every field's value, in declaration order, built
        without the constructor's checks: only for values that hold the
        invariants by construction, such as a slice of a checked record."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values))
        return record

    def replace(self, **changes):
        """A copy with the given fields changed, checked again."""
        return type(self)(**{name: getattr(self, name) for name in self._init} | changes)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen; use replace()")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
