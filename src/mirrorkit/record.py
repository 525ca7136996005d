"""Value classes without code generation: the ``record`` class decorator.

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

The methods are closures over each class's field names, so defining a
class compiles nothing: ``dataclasses`` builds its methods as source text
and ``exec``s it, about 1 ms a class, and importing it pulls in
``inspect``.  That is the whole reason this module exists: every
``mirrorkit`` process defines these classes before it reads its input.

Two conditions keep instances about as fast as the generated ones; the
code must keep both (measured on CPython 3.11):

* ``__init__`` sets each field with ``object.__setattr__(self, name,
  value)`` and never reads or writes ``self.__dict__``.  Touching
  ``__dict__`` materialises the instance dictionary, and every later
  attribute read on that instance is then about twice as slow (5.1
  against 11.6 us per 200 reads); an ``__init__`` that updated
  ``self.__dict__`` made a verify run about 8% slower.
* ``__init__`` has a fast path: when every argument is positional and
  there is one per field, it sets them directly; only other calls go
  through ``bind``, which answers the other two shapes hot code uses
  (positional fields followed by defaults, every field by keyword)
  without a loop.  Even so a record costs about 0.4 us more to build than
  a dataclass instance inside a verify run (0.1 to 0.2 us in a loop that
  builds only one class).  A run of the ``random-small`` pool builds about
  60 records in about 0.65 ms, so it is about 4% slower than with
  dataclasses; a ``family-scaling`` run, at about 8 ms, hardly notices.

``functools.cached_property`` works on frozen records: it stores its value
in the instance dictionary without calling ``__setattr__``.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter

_MISSING = object()


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


def replace(obj, **changes):
    """A copy of the record obj with the given fields changed, built by its __init__."""
    return obj.__class__(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


def _tuple_getter(getter, names):
    """getter(*names) as a function that returns a tuple, also for one name or none."""
    if len(names) > 1:
        return getter(*names)
    if names:
        get = getter(*names)
        return lambda obj: (get(obj),)
    return lambda obj: ()


def record(cls):
    """Class decorator: make cls a frozen value class over its annotated fields
    (module docstring)."""
    names = tuple(cls.__annotations__)
    count = len(names)
    fallbacks: dict = {}   # per field that has one: its default, or its _Field if a factory
    shown = []
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, _Field):
            delattr(cls, name)
            if value.default_factory is not None:
                fallbacks[name] = value
            if value.repr:
                shown.append(name)
        else:
            if value is not _MISSING:
                if value.__class__.__hash__ is None:
                    raise ValueError(f"mutable default {value.__class__} for field {name} "
                                     "is not allowed: use default_factory")
                fallbacks[name] = value
            shown.append(name)
        if name not in fallbacks and fallbacks:
            raise TypeError(f"non-default argument {name!r} follows default argument")
    # rest[n]: (name, fallback) for each field after n positional arguments, the
    # fallback being its default, its _Field (call the factory) or _MISSING
    rest = [tuple((name, fallbacks.get(name, _MISSING)) for name in names[n:])
            for n in range(count + 1)]
    # tails[n]: the defaults of names[n:], for each n past which every field has one
    tails = {n: tuple(fb for _, fb in rest[n]) for n in range(count + 1)
             if all(fb is not _MISSING and fb.__class__ is not _Field for _, fb in rest[n])}
    by_keyword = _tuple_getter(itemgetter, names)
    indexed = tuple(enumerate(names))
    post_init = cls.__dict__.get("__post_init__")
    setattr_ = object.__setattr__
    where = f"{cls.__qualname__}.__init__()"

    def bind(args, kwargs):
        """The field values in order, from a call that is not one positional per field."""
        if not kwargs and len(args) in tails:
            return args + tails[len(args)]
        if not args and len(kwargs) == count:
            try:
                return by_keyword(kwargs)
            except KeyError:
                pass
        if len(args) > count:
            raise TypeError(f"{where} takes {count + 1} positional arguments "
                            f"but {len(args) + 1} were given")
        bound = list(args)
        missing = []
        for name, fallback in rest[len(args)]:
            if name in kwargs:
                bound.append(kwargs.pop(name))
            elif fallback is _MISSING:
                missing.append(name)
            elif fallback.__class__ is _Field:
                bound.append(fallback.default_factory())
            else:
                bound.append(fallback)
        for name in kwargs:
            if name in names:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if missing:
            raise TypeError(f"{where} missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return bound

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for i, name in indexed:
            setattr_(self, name, args[i])
        if post_init is not None:
            post_init(self)

    values = _tuple_getter(attrgetter, names)

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
