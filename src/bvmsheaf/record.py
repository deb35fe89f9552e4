"""Value classes read off their annotations, with no generated code.

A subclass of Record gets, when the class is created:
- its fields, from its annotations, after the fields of its Record bases;
- an __init__ over those fields, taking positional or keyword arguments,
  with class-level defaults and field(default_factory=...), and calling
  __post_init__ when the class has one;
- equality between instances of exactly the same class, on the field tuple;
- the repr Name(a=..., b=...);
- if frozen (the default; `class C(Record, frozen=False)` is not),
  FrozenInstanceError on assignment and deletion and a hash of the field
  tuple; a class that is not frozen is unhashable.
A subclass inherits its base's frozen flag.  Any of __init__, __eq__,
__hash__ or __repr__ that the class body defines itself is kept.  __init__
sets each field with object.__setattr__, so a frozen class may set derived
state the same way in __post_init__.  A field whose class attribute is a
cached_property is still required by __init__; on an instance built
without __init__ it is computed when first read.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class _Factory:
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def field(*, default_factory) -> _Factory:
    """A default made fresh for each instance by calling default_factory."""
    return _Factory(default_factory)


def _init(self, *args, **kwargs):
    names = self._fields
    if kwargs or len(args) != len(names):
        args = _bind(type(self), args, kwargs)
    for key, value in zip(names, args):
        _set(self, key, value)
    if self._post_init:
        self.__post_init__()


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The field values of cls(*args, **kwargs), defaults filled in."""
    names, name = cls._fields, cls.__qualname__
    if len(args) > len(names):
        raise TypeError(f"{name}() takes {len(names)} positional arguments "
                        f"but {len(args)} were given")
    values = dict(zip(names, args))
    for key, value in kwargs.items():
        if key not in names:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in values:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values[key] = value
    out = []
    for key in names:
        if key in values:
            out.append(values[key])
        elif key in cls._defaults:
            default = cls._defaults[key]
            out.append(default.make() if isinstance(default, _Factory) else default)
        else:
            raise TypeError(f"{name}() missing required argument {key!r}")
    return tuple(out)


def _getter(names: tuple):
    """The function from an instance to its field tuple."""
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return attrgetter(*names)


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class Record:
    """Base of the package's value classes; see the module docstring."""

    _fields: tuple = ()
    _defaults: dict = {}    # field name -> default value or _Factory
    _frozen = True
    _post_init = False

    def __init_subclass__(cls, frozen: bool | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        if frozen is not None:
            cls._frozen = frozen
        names, defaults = list(cls._fields), dict(cls._defaults)
        for key in own.get("__annotations__", {}):
            if key not in names:
                names.append(key)
            if key in own and not isinstance(own[key], cached_property):
                defaults[key] = own[key]
                if isinstance(own[key], _Factory):
                    delattr(cls, key)
            else:
                defaults.pop(key, None)
        cls._fields, cls._defaults = tuple(names), defaults
        cls._key = staticmethod(_getter(cls._fields))
        cls._post_init = hasattr(cls, "__post_init__")
        # each class holds its own __init__, so wrapping one wraps no other
        if "__init__" not in own:
            cls.__init__ = _init
        if own.get("__hash__") is None:
            cls.__hash__ = Record.__hash__ if cls._frozen else None
        if cls._frozen:
            if "__setattr__" not in own:
                cls.__setattr__ = _refuse_set
            if "__delattr__" not in own:
                cls.__delattr__ = _refuse_del

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        inner = ", ".join(f"{key}={value!r}" for key, value
                          in zip(self._fields, self._key(self)))
        return f"{self.__class__.__qualname__}({inner})"
