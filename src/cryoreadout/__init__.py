"""Simulator for cryogenic two-stage amplified image-charge readout of
Rydberg-state electrons on liquid helium."""

__version__ = "0.1.0"


class Record:
    """Base of the package's frozen value classes.

    A subclass lists its fields as annotations, in order, and gives a
    default as a class attribute of the same name.  The constructor takes
    the fields by position or keyword and runs the subclass's
    ``__post_init__`` check; the instance then refuses every set and
    delete.  Records compare equal when of one class with equal fields,
    hash their field tuple and repr as ``Name(field=value, ...)``.  No
    code is generated per class.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the class's own annotations: a string each under the modules'
        # ``from __future__ import annotations``, and only the names are read
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                                f"argument {name!r}")
            if name in given:
                raise TypeError(f"{cls.__name__}() got multiple values for "
                                f"argument {name!r}")
            given[name] = value
        values = {**cls._defaults, **given}
        if len(values) < len(names):
            missing = ", ".join(repr(n) for n in names if n not in values)
            raise TypeError(f"{cls.__name__}() missing required argument(s): "
                            f"{missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def replace(record, /, **changes):
    """A copy of ``record`` with ``changes`` to its fields, built through
    its constructor, so its checks run again."""
    return type(record)(**{**dict(zip(record._fields, record._values())),
                           **changes})
