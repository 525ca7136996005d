"""mirrorkit.record against dataclasses, the behaviour it replaces.

The same classes are defined with both decorators, and every operation is
run on both: the dataclass result is the oracle.  This module does not use
``from __future__ import annotations``, so the fields here are read from
evaluated annotations, where those of ``src`` are strings.
"""

import dataclasses
import importlib
import inspect
import sys
from functools import cached_property

import pytest

from mirrorkit import record
from mirrorkit.pipeline import Stage


def define(decorate, field):
    """Five classes built with one decorator; each class's methods read only its fields."""

    @decorate
    class Point:
        x: int
        y: int = 0

    @decorate
    class Vector:
        x: int
        y: int = 0

    @decorate
    class Tagged:
        value: int
        source: object = field(repr=False)
        notes: list = field(default_factory=list)

    @decorate
    class Interval:
        lo: int
        hi: int

        def __post_init__(self):
            if self.lo > self.hi:
                raise ValueError("empty interval")

    @decorate
    class Lazy:
        n: tuple
        computed = []   # not a field: no annotation

        @cached_property
        def total(self):
            self.computed.append(self.n)
            return sum(self.n)

    return {c.__name__: c for c in (Point, Vector, Tagged, Interval, Lazy)}


ORACLE = define(dataclasses.dataclass(frozen=True), dataclasses.field)
RECORD = define(record.record, record.field)

CALLS = [
    ("Point", (1, 2), {}), ("Point", (1,), {}), ("Point", (), {"y": 3, "x": 1}),
    ("Vector", (1, 2), {}), ("Tagged", (5, "src"), {}), ("Tagged", (5,), {"source": None}),
    ("Tagged", (), {"value": 5, "source": "s", "notes": [1]}), ("Interval", (1, 2), {}),
    ("Lazy", ((1, 2, 3),), {}),
    # the TypeError and __post_init__ cases
    ("Point", (), {}), ("Point", (1, 2, 3), {}), ("Point", (1,), {"z": 2}),
    ("Point", (1,), {"x": 2}), ("Tagged", (1,), {}), ("Interval", (3, 2), {}),
    ("Tagged", (), {"value": 1, "source": 2, "extra": 0}),
]


def outcome(fn):
    """fn()'s value, or the kind of exception it raised."""
    try:
        return "ok", fn()
    except (AttributeError, TypeError, ValueError) as exc:
        return "raises", next(k for k in (AttributeError, TypeError, ValueError)
                              if isinstance(exc, k))


def fields(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


@pytest.mark.parametrize("name, args, kwargs", CALLS)
def test_construction_repr_eq_and_hash(name, args, kwargs):
    oracle, rec = ORACLE, RECORD
    made = outcome(lambda: oracle[name](*args, **kwargs))
    got = outcome(lambda: rec[name](*args, **kwargs))
    assert got[0] == made[0]
    if made[0] == "raises":
        assert got == made
        return
    d, r = made[1], got[1]
    assert repr(r) == repr(d)
    assert tuple(getattr(r, f) for f in r._fields) == fields(d)
    twin = rec[name](*args, **kwargs)
    assert r == twin and not r != twin
    # hash is that of the field tuple, or raises exactly when the dataclass's does
    assert outcome(lambda: hash(r)) == outcome(lambda: hash(d))
    if outcome(lambda: hash(d))[0] == "ok":
        assert hash(r) == hash(fields(d))
    assert (r == d) is False  # a record never equals the dataclass of the same shape


def bare_signature(fn):
    """fn's signature without annotations: dataclasses annotates its __init__, record does not."""
    sig = inspect.signature(fn)
    return str(sig.replace(parameters=[p.replace(annotation=p.empty)
                                       for p in sig.parameters.values()],
                           return_annotation=sig.empty))


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_init_signature(name):
    # parameter names, kinds and defaults, "<factory>" for a default_factory;
    # the generic binder this replaced showed (*args, **kwargs)
    d, r = ORACLE[name], RECORD[name]
    assert bare_signature(r.__init__) == bare_signature(d.__init__)
    assert bare_signature(r) == bare_signature(d)
    assert r.__init__.__qualname__ == f"{r.__qualname__}.__init__"


def define_stage(decorate, field):
    @decorate
    class Stage:
        name: str
        ok: bool
        flags: dict = field(default_factory=dict)
        notes: list = field(default_factory=list)
        payload: dict = field(default_factory=dict)
    return Stage


def test_keywords_after_a_factory_field_left_out():
    # Stage(name, ok, payload=...) as run_verify builds it: flags and notes
    # come from their factories, one new object per instance
    d_cls = define_stage(dataclasses.dataclass(frozen=True), dataclasses.field)
    r_cls = define_stage(record.record, record.field)
    assert bare_signature(r_cls) == bare_signature(d_cls)
    calls = [(("x", True), {"payload": {"a": 1}}), (("x",), {"ok": False, "notes": ["n"]}),
             ((), {"payload": {}, "name": "x", "ok": True}),
             (("x",), {"payload": {}}), (("x", True), {"flags": {}, "ok": True})]
    for args, kwargs in calls:
        made = outcome(lambda: d_cls(*args, **kwargs))
        got = outcome(lambda: r_cls(*args, **kwargs))
        assert got[0] == made[0]
        if made[0] == "raises":
            assert got == made
        else:
            assert repr(got[1]) == repr(made[1])
    a, b = r_cls("x", True, payload={}), r_cls("x", True, payload={})
    assert a.flags == {} and a.notes == [] and a.flags is not b.flags and a.notes is not b.notes
    stage = Stage("cayley", True, payload={"rows": 2})
    assert (stage.flags, stage.notes, stage.payload) == ({}, [], {"rows": 2})


def test_generated_init_leaves_the_instance_dict_alone():
    # the modules that define the value classes: `import mirrorkit.cli` loads the
    # stage modules only on first use (`pipeline.StageModule`)
    for name in ("cli", "horn_system", "mellin", "nef_partition", "poincare", "transposition"):
        importlib.import_module(f"mirrorkit.{name}")
    classes = {obj for name, mod in list(sys.modules.items()) if name.startswith("mirrorkit.")
               for obj in vars(mod).values() if isinstance(obj, type) and "_fields" in vars(obj)}
    assert len(classes) == 24
    for cls in [*classes, *RECORD.values()]:
        assert "__dict__" not in cls.__init__.__code__.co_names


def test_eq_is_not_implemented_across_classes():
    for ns in (ORACLE, RECORD):
        p, v = ns["Point"](1, 2), ns["Vector"](1, 2)
        assert p.__eq__(v) is NotImplemented
        assert p != v and not p == v
        assert p != ns["Point"](1, 3)
        assert p.__eq__((1, 2)) is NotImplemented


def test_assignment_and_deletion():
    oracle, rec = ORACLE, RECORD
    ops = [lambda p: setattr(p, "x", 5), lambda p: delattr(p, "y"),
           lambda p: setattr(p, "new", 1)]
    for op in ops:
        d, r = oracle["Point"](1, 2), rec["Point"](1, 2)
        made, got = outcome(lambda: op(d)), outcome(lambda: op(r))
        assert got == made == ("raises", AttributeError)
        assert outcome(lambda: fields(d)) == outcome(lambda: tuple(getattr(r, f) for f in r._fields))
    with pytest.raises(record.FrozenInstanceError, match="cannot assign to field 'x'"):
        rec["Point"](1, 2).x = 3


def test_defaults_and_default_factory():
    oracle, rec = ORACLE, RECORD
    a, b = rec["Tagged"](1, "s"), rec["Tagged"](1, "s")
    assert a.notes == [] and a.notes is not b.notes
    assert rec["Point"](4).y == oracle["Point"](4).y == 0
    assert rec["Point"].y == oracle["Point"].y == 0   # a plain default stays a class attribute
    assert not hasattr(rec["Tagged"], "notes") and not hasattr(oracle["Tagged"], "notes")


def test_replace():
    oracle, rec = ORACLE, RECORD
    d, r = oracle["Tagged"](1, "s", [2]), rec["Tagged"](1, "s", [2])
    for changes in ({"value": 7}, {"source": "t", "notes": []}, {}, {"missing": 1}):
        made = outcome(lambda: dataclasses.replace(d, **changes))
        got = outcome(lambda: record.replace(r, **changes))
        assert got[0] == made[0]
        if made[0] == "ok":
            assert repr(got[1]) == repr(made[1]) and got[1].source == made[1].source
        else:
            assert got == made
    # replace builds through __init__, so __post_init__ checks the copy
    i = rec["Interval"](1, 2)
    assert record.replace(i, hi=5) == rec["Interval"](1, 5)
    assert outcome(lambda: record.replace(i, lo=3)) == ("raises", ValueError)
    assert outcome(lambda: dataclasses.replace(oracle["Interval"](1, 2), lo=3)) == (
        "raises", ValueError)


def test_cached_property_on_a_frozen_record():
    lazy_cls = RECORD["Lazy"]
    lazy_cls.computed.clear()
    lazy = lazy_cls((1, 2, 3))
    assert lazy.total == 6 and lazy.total == 6
    assert lazy_cls.computed == [(1, 2, 3)]
    # the cached value is not a field: equality, hash and repr ignore it
    assert lazy == lazy_cls((1, 2, 3)) and hash(lazy) == hash(((1, 2, 3),))
    assert repr(lazy) == repr(ORACLE["Lazy"]((1, 2, 3)))
    with pytest.raises(AttributeError):
        lazy.n = ()


def test_lazy_stores_what_it_computes_and_nothing_when_it_raises():
    class Half:
        def __init__(self, n):
            self.n, self.calls = n, 0

        @record.lazy
        def half(self):
            """n / 2, for an even n."""
            self.calls += 1
            if self.n % 2:
                raise ValueError("odd")
            return self.n // 2

    even = Half(4)
    assert even.half == 2 and even.half == 2 and even.calls == 1
    assert vars(even)["half"] == 2
    odd = Half(3)
    for _ in range(2):
        with pytest.raises(ValueError):
            odd.half
    assert odd.calls == 2 and "half" not in vars(odd)
    odd.half = 1   # an assigned value stands in for the method's
    assert odd.half == 1 and odd.calls == 2
    assert isinstance(Half.half, record.lazy) and Half.half.__doc__ == "n / 2, for an even n."


def test_lazy_on_a_frozen_record():
    @record.record
    class Total:
        n: tuple

        @record.lazy
        def total(self):
            return sum(self.n)

    t = Total((1, 2, 3))
    assert t.total == 6 and vars(t)["total"] == 6
    # the stored value is not a field: equality, hash and repr ignore it
    assert t == Total((1, 2, 3)) and hash(t) == hash(((1, 2, 3),))
    assert repr(t).endswith("Total(n=(1, 2, 3))")
    with pytest.raises(record.FrozenInstanceError):
        t.total = 7


def define_shapes(decorate, field):
    """Class shapes the decorator must reject, or treat as dataclasses do: each entry
    is a function that defines one class."""

    def empty():
        @decorate
        class Empty:
            pass
        return Empty

    def mutable_default():
        @decorate
        class Notes:
            notes: list = []
        return Notes

    def required_after_default():
        @decorate
        class Span:
            lo: int = 0
            hi: int
        return Span

    def own_repr():
        @decorate
        class Named:
            name: str

            def __repr__(self):
                return f"<{self.name}>"
        return Named

    def own_setattr():
        @decorate
        class Loose:
            x: int

            def __setattr__(self, name, value):
                object.__setattr__(self, name, value)
        return Loose

    return {fn.__name__: fn for fn in (empty, mutable_default, required_after_default,
                                       own_repr, own_setattr)}


SHAPES = define_shapes(dataclasses.dataclass(frozen=True), dataclasses.field)
RECORD_SHAPES = define_shapes(record.record, record.field)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_class_shapes(shape):
    made = outcome(SHAPES[shape])
    got = outcome(RECORD_SHAPES[shape])
    if shape in ("own_repr", "own_setattr"):   # a method record provides: always rejected
        assert got == ("raises", TypeError)
        return
    assert got[0] == made[0]
    if made[0] == "raises":
        assert got == made
        return
    d_cls, r_cls = made[1], got[1]
    for call in [(), ("a",), ("a", 2)]:
        d, r = outcome(lambda: d_cls(*call)), outcome(lambda: r_cls(*call))
        assert r[0] == d[0]
        if d[0] == "raises":
            assert r == d
            continue
        d, r = d[1], r[1]
        assert repr(r) == repr(d)
        assert outcome(lambda: hash(r)) == outcome(lambda: hash(d))
        assert (r == r_cls(*call)) == (d == d_cls(*call))
        assert outcome(lambda: setattr(r, "x", 0)) == outcome(lambda: setattr(d, "x", 0))
