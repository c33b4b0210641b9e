"""The one verdict shape of every Level-3 checker and the diagonal-algebra test.

Accept carries the certificate h (and, for SL(2,C), its generator coordinates);
Reject carries a structured witness of where the check failed.

`record` makes these and every other result and witness class a frozen record,
in place of a frozen dataclass (whose import and set-up cost a pw call ~20 ms).
The fields are the annotated names in order, class-level values the defaults.
A record is built by position or keyword (a missing, unknown or repeated field
is a TypeError), runs __post_init__ if defined, and is immutable: assigning or
deleting an attribute is an AttributeError.  `==` holds only between records of
one class with equal fields; `hash` hashes the field tuple; `repr` is the
dataclass repr.
"""

from __future__ import annotations

from typing import Any


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__record_fields__])


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_fields__)
    return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _frozen(self, name: str, value: Any = None) -> None:
    raise AttributeError(f"{type(self).__name__} is a frozen record: cannot set or delete {name!r}")


def record(cls: type) -> type:
    """Make cls a frozen record of its annotated fields (see the module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    # A generated __init__ has Python bind the arguments, at the cost of a plain call.
    params = "".join(f", {n}=defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
    body = "".join(f"\n    self.__dict__[{n!r}] = {n}" for n in names)
    post_init = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    namespace = {"defaults": defaults}
    exec(f"def __init__(self{params}):{body}{post_init}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__record_fields__ = names
    cls.__repr__, cls.__eq__, cls.__hash__ = _repr, _eq, _hash
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls


@record
class Accept:
    h: Any
    coords: Any = None
    accepted = True


@record
class Reject:
    witness: Any
    accepted = False
