"""Every value class of the package against a dataclasses oracle.

The oracle of a class is dataclasses.make_dataclass over the same fields,
defaults and frozen flag; dataclasses is the reference here only.  The
classes that validate their fields get valid sample values; the others get
plain strings."""

import dataclasses

import pytest

import bvmsheaf  # noqa: F401  (imports every module, so every class exists)
from bvmsheaf.balg import BoolAlg
from bvmsheaf.logic import Const, Var
from bvmsheaf.record import FrozenInstanceError, Record, _Factory, field
from bvmsheaf.sheaf import EtaleSpace
from bvmsheaf.topo import FinTop


def _value_classes() -> list:
    out, todo = [], [Record]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("bvmsheaf."):
                out.append(sub)
    return sorted(out, key=lambda c: (c.__module__, c.__name__))


CLASSES = _value_classes()

_B1, _B2 = BoolAlg(("a",)), BoolAlg(("a", "b"))
_ONE_OPENS = frozenset({frozenset(), frozenset({"p"})})
_TWO_OPENS = frozenset({frozenset(), frozenset({"p"}), frozenset({"q"}),
                        frozenset({"p", "q"})})
_X1, _X2 = FinTop(("p",), _ONE_OPENS), FinTop(("p", "q"), _TWO_OPENS)
_E1 = EtaleSpace(_X1, ("g",), {"g": "p"}, {"g": frozenset({"g"})},
                 {"p": ("g",)}, {})
_E2 = EtaleSpace(_X2, ("g", "h"), {"g": "p", "h": "q"},
                 {"g": frozenset({"g"}), "h": frozenset({"h"})},
                 {"p": ("g",), "q": ("h",)}, {})

# two unequal valid argument tuples for each class that checks its fields
_VALID = {
    "BoolAlg": ((("a",),), (("a", "b"),)),
    "Elem": ((_B2, 1), (_B2, 2)),
    "Filter": ((_B2, _B2.top), (_B2, _B2.atom("a"))),
    "BAHom": ((_B1, _B2, (("a", "a"), ("b", "a"))),
              (_B2, _B2, (("a", "a"), ("b", "b")))),
    "Signature": (((("R", 1),), frozenset()), ((("R", 1),), frozenset({"k"}))),
    "FinTop": ((("p",), _ONE_OPENS), (("p", "q"), _TWO_OPENS)),
    "FinPoset": ((("a",), frozenset({("a", "a")})),
                 (("a", "b"), frozenset({("a", "a"), ("b", "b")}))),
    "ContMap": ((_X1, _X1, (("p", "p"),)), (_X2, _X1, (("p", "p"), ("q", "p")))),
    "Bundle": ((_E1,), (_E2,)),
}


def _samples(cls) -> tuple:
    if cls.__name__ in _VALID:
        return _VALID[cls.__name__]
    a = tuple(f"{cls.__name__}.{name}" for name in cls._fields)
    return a, a[:-1] + ("other",)


def _oracle(cls):
    spec = []
    for name in cls._fields:
        if name not in cls._defaults:
            spec.append((name, object))
            continue
        default = cls._defaults[name]
        if isinstance(default, _Factory):
            default = dataclasses.field(default_factory=default.make)
        spec.append((name, object, default))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=cls._frozen)


def _outcome(fn):
    """What calling fn gives: its value, or the type of error it raises."""
    try:
        return "value", fn()
    except (TypeError, AttributeError) as err:
        return "raises", TypeError if isinstance(err, TypeError) else AttributeError


def test_every_value_class_is_found():
    names = {cls.__name__ for cls in CLASSES}
    assert {"Elem", "Presheaf", "StructuredPresheaf", "Var", "Const",
            "Workspace", "FinPoset"} <= names
    assert len(CLASSES) == 38


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_the_annotations_base_first(cls):
    names = []
    for klass in reversed(cls.__mro__):
        for name in vars(klass).get("__annotations__", {}):
            if issubclass(klass, Record) and klass is not Record \
                    and name not in names:
                names.append(name)
    assert cls._fields == tuple(names)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_value_class_matches_dataclass_oracle(cls):
    oracle = _oracle(cls)
    a, b = _samples(cls)
    x, y, z = cls(*a), cls(*a), cls(*b)
    ox, oy, oz = oracle(*a), oracle(*a), oracle(*b)

    for got, want in [
        (lambda: x == y, lambda: ox == oy),
        (lambda: x != y, lambda: ox != oy),
        (lambda: x == z, lambda: ox == oz),
        (lambda: x != z, lambda: ox != oz),
        (lambda: hash(x) == hash(y), lambda: hash(ox) == hash(oy)),
    ]:
        assert _outcome(got) == _outcome(want)
    assert x == y and x != z
    # a different class with the same fields is never equal
    assert not x == ox and x != ox and not ox == x
    twin = type(cls.__name__, (Record,),
                {"__annotations__": dict.fromkeys(cls._fields, "object")},
                frozen=cls._frozen)
    assert not x == twin(*a) and x != twin(*a)
    if cls._frozen:
        assert hash(x) == hash(y) == hash(ox)
    if "__repr__" not in vars(cls):
        assert repr(x) == repr(ox)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_frozen_and_hashable_exactly_as_the_oracle(cls):
    oracle = _oracle(cls)
    a, _ = _samples(cls)
    x, ox = cls(*a), oracle(*a)
    name = cls._fields[0]
    if cls._frozen:
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, a[0])
        with pytest.raises(FrozenInstanceError):
            delattr(x, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ox, name, a[0])
    else:
        with pytest.raises(TypeError):
            hash(x)
        with pytest.raises(TypeError):
            hash(ox)
        setattr(x, name, "changed")
        assert getattr(x, name) == "changed"


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_construction_as_the_oracle(cls):
    oracle = _oracle(cls)
    a, _ = _samples(cls)
    names = cls._fields
    assert cls(**dict(zip(names, a))) == cls(*a)
    assert cls(*a[:1], **dict(zip(names[1:], a[1:]))) == cls(*a)
    required = [n for n in names if n not in cls._defaults]
    calls = [
        ((*a, "extra"), {}),
        (a, {"no_such_field": 1}),
        (a, {names[0]: a[0]}),
    ]
    if required:
        calls.append((a[:len(required) - 1], {}))
    for args, kwargs in calls:
        assert _outcome(lambda: cls(*args, **kwargs))[0] == "raises"
        assert _outcome(lambda: oracle(*args, **kwargs))[0] == "raises"
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", [c for c in CLASSES if c._defaults],
                         ids=lambda c: c.__name__)
def test_defaults_and_fresh_factories(cls):
    oracle = _oracle(cls)
    a, _ = _samples(cls)
    required = a[:len(cls._fields) - len(cls._defaults)]
    x, y, ox = cls(*required), cls(*required), oracle(*required)
    for name, default in cls._defaults.items():
        assert getattr(x, name) == getattr(ox, name)
        if isinstance(default, _Factory):
            assert getattr(x, name) == default.make()
            assert getattr(x, name) is not getattr(y, name)
            assert name not in vars(cls)


def test_same_fields_in_two_classes_stay_apart():
    assert Var("x") != Const("x")
    assert list(dict.fromkeys([Var("x"), Const("x"), Var("x")])) == \
        [Var("x"), Const("x")]


def test_base_fields_come_first_and_factories_are_fresh():
    class Base(Record, frozen=False):
        a: int
        b: int = 0

    class Sub(Base):
        c: list = field(default_factory=list)

    s = Sub(1)
    assert Sub._fields == ("a", "b", "c") and not Sub._frozen
    assert repr(s) == "test_base_fields_come_first_and_factories_are_" \
        "fresh.<locals>.Sub(a=1, b=0, c=[])"
    s.c.append(2)
    assert Sub(1).c == []
    assert issubclass(FrozenInstanceError, AttributeError)
