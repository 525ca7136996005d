"""Value classes without ``dataclasses``: the ``record`` class decorator.

``@record`` turns a class whose body annotates its fields into a value
class with the behaviour ``@dataclass(frozen=True)`` gives it: an
``__init__`` taking the fields in order (positionally or by keyword, with
defaults and ``field(default_factory=...)``) that then calls
``__post_init__`` when the class defines one; ``==`` comparing the field
tuples of two instances of the same class (``NotImplemented`` across
classes); ``hash`` equal to ``hash`` of the field tuple; a ``repr`` of the
form ``Name(a=1, b=2)`` that leaves out ``field(repr=False)`` fields; and
assignment or deletion of an attribute raising ``FrozenInstanceError``.
``replace(obj, **changes)`` builds a copy with some fields changed, through
``__init__``, so ``__post_init__`` checks it again.

The fields are the names in the class's own ``__annotations__``, in order.
As with ``dataclasses``, a default whose type is unhashable (a list, dict
or set, which every instance would share) raises ``ValueError``, and a field
without a default after one with a default raises ``TypeError``.  Unlike
``dataclasses``, which would keep such a method, a class that defines one
of the six methods ``record`` provides raises ``TypeError``.

Each class compiles one small ``__init__`` when it is defined, from source
built off its fields (``def __init__(self, a, b=__default_b, c=__factory)``),
so CPython binds the arguments and raises its own ``TypeError``s.  The other
five methods are closures over the class's field names and compile nothing.
That is still cheap next to ``dataclasses``, which compiles six methods a
class through ``exec``, about 1 ms a class, and whose import pulls in
``inspect``: one function takes about 50 to 150 us to compile, some 3 ms
for the 24 classes of ``mirrorkit``.  Start-up is the whole reason this
module exists: every ``mirrorkit`` process defines the classes of the modules
it loads before it reads its input.  The stage modules load on first use
(``pipeline.StageModule``), so ``cayley`` defines the 10 classes of
``ci_model``, ``rational_linalg`` and ``pipeline``, and ``verify`` all 24.

``__init__`` sets each field with ``object.__setattr__(self, name, value)``
and never reads or writes ``self.__dict__``, and the code must keep it so.
Touching ``__dict__`` materialises the instance dictionary, and every later
attribute read on that instance is then about twice as slow (5.1 against
11.6 us per 200 reads, CPython 3.11); an ``__init__`` that updated
``self.__dict__`` made a verify run about 8% slower.

``lazy`` is the attribute computed on first read that the package uses in
place of ``functools.cached_property``, which on CPython 3.11 takes a lock
on every first read.  Both work on frozen records: they store the value in
the instance dictionary without calling ``__setattr__``.
"""

from __future__ import annotations

from operator import attrgetter

_MISSING = object()


class _Factory:
    """The default __init__ shows for a field with a default_factory, as dataclasses does."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class _Field:
    __slots__ = ("default_factory", "repr")

    def __init__(self, default_factory, repr):
        self.default_factory = default_factory
        self.repr = repr


def field(*, default_factory=None, repr: bool = True):
    """A field option: a zero-argument factory for its default, and whether repr shows it."""
    return _Field(default_factory, repr)


class lazy:
    """Decorator: an attribute computed by the method on first read, then stored.

    A non-data descriptor that writes the value into the instance's
    ``__dict__``, so the dictionary answers every later read and this
    ``__get__`` runs once per instance.  A method that raises stores
    nothing, so the next read calls it again; assigning the attribute (where
    the class allows it) stores a value the method is then never asked for.
    """

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


def replace(obj, **changes):
    """A copy of the record obj with the given fields changed, built by its __init__."""
    return obj.__class__(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


def record(cls):
    """Class decorator: make cls a frozen value class over its annotated fields
    (module docstring)."""
    names = tuple(cls.__annotations__)
    shown = []
    # the source of __init__: def __init__(self, a, b=__default_b, c=__factory):
    # with c built by its factory when left out, then __setattr(self, "a", a), ...
    namespace = {"__setattr": object.__setattr__, "__factory": _FACTORY}
    params, body = ["self"], []
    for name in names:
        value, param = cls.__dict__.get(name, _MISSING), name
        if isinstance(value, _Field):
            delattr(cls, name)
            if value.default_factory is not None:
                namespace[f"__factory_{name}"] = value.default_factory
                param = f"{name}=__factory"
                body.append(f"    if {name} is __factory: {name} = __factory_{name}()\n")
            if value.repr:
                shown.append(name)
        else:
            if value is not _MISSING:
                if value.__class__.__hash__ is None:
                    raise ValueError(f"mutable default {value.__class__} for field {name} "
                                     "is not allowed: use default_factory")
                namespace[f"__default_{name}"] = value
                param = f"{name}=__default_{name}"
            shown.append(name)
        if param == name and "=" in params[-1]:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        params.append(param)
    body += [f"    __setattr(self, {name!r}, {name})\n" for name in names]
    if "__post_init__" in cls.__dict__:
        namespace["__post_init"] = cls.__post_init__
        body.append("    __post_init(self)\n")
    exec(f"def __init__({', '.join(params)}):\n{''.join(body) or '    pass'}", namespace)
    __init__ = namespace["__init__"]
    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    if len(names) > 1:
        values = attrgetter(*names)
    elif names:   # attrgetter of one name returns the bare value, not a 1-tuple
        get = attrgetter(*names)
        values = lambda obj: (get(obj),)
    else:
        values = lambda obj: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in shown) + ")")

    def __hash__(self) -> int:
        return hash(values(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__,
               "__repr__": __repr__, "__setattr__": __setattr__, "__delattr__": __delattr__}
    for attr, fn in methods.items():
        if attr in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} defines {attr}, which @record provides")
        setattr(cls, attr, fn)
    cls._fields = names
    return cls
