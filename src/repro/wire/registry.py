"""Registry of serializable message types.

Protocol messages are frozen dataclasses (and a few enums). Each class is
registered under a stable numeric id; the codec serializes instances as
``(type_id, field values in declaration order)``. Registration is explicit
— the decoder only ever instantiates classes that were registered, which
is the property that makes deserialization of attacker-controlled bytes
safe (unlike Java serialization, which the original systems used).
"""

from __future__ import annotations

import dataclasses
import enum
import functools

from repro.wire.errors import DecodeError, EncodeError


def dict_fill_init(cls: type) -> type:
    """Give a plain frozen dataclass an ``__init__`` that fills ``__dict__``.

    The ``__init__`` that ``dataclasses`` generates for a frozen class
    goes through ``object.__setattr__`` once per field, which is most of
    what constructing a small message costs. For a class that is frozen,
    keeps its instances' fields in ``__dict__`` (no ``__slots__`` anywhere
    in the MRO) and whose generated ``__init__`` takes exactly ``self`` and
    its fields as positional-or-keyword parameters (so: no ``InitVar``,
    ``init=False``, ``kw_only`` or ``default_factory`` fields), this installs the
    equivalent ``def __init__(self, a, b=<default>): d = self.__dict__;
    d['a'] = a; d['b'] = b`` (plus the ``__post_init__`` call when there is
    one) — the encode-side twin of ``Codec._make_constructor``. Anything
    fancier is returned untouched. Argument errors stay ``TypeError``
    (it is a real signature), assignment stays ``FrozenInstanceError``
    (``__setattr__`` is not touched), and the generated ``__init__`` stays
    reachable as ``cls.__init__.__wrapped__``.
    """
    params = getattr(cls, "__dataclass_params__", None)
    stock = cls.__dict__.get("__init__")
    if (
        params is None
        or stock is None
        or not (params.frozen and params.init)
        or any("__slots__" in vars(klass) for klass in cls.__mro__)
    ):
        return cls
    fields = dataclasses.fields(cls)
    signature = ("self",) + tuple(field.name for field in fields)
    code = stock.__code__
    if (
        code.co_varnames[: code.co_argcount] != signature
        or code.co_kwonlyargcount
        or any(f.default_factory is not dataclasses.MISSING for f in fields)
        or "_dict_" in signature
    ):
        return cls
    body = ["    _dict_ = self.__dict__"]
    body += [f"    _dict_[{name!r}] = {name}" for name in signature[1:]]
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    namespace: dict = {}
    exec(  # noqa: S102 - source built from dataclass field names only
        f"def __init__({', '.join(signature)}):\n" + "\n".join(body),
        namespace,
    )
    init = functools.wraps(stock)(namespace["__init__"])
    # Fields with defaults are a suffix of the parameter list (dataclasses
    # rejects anything else), which is exactly what __defaults__ binds.
    init.__defaults__ = tuple(
        f.default for f in fields if f.default is not dataclasses.MISSING
    )
    cls.__init__ = init
    return cls


class TypeRegistry:
    """Maps numeric ids to dataclass/enum types and back."""

    def __init__(self) -> None:
        self._by_id: dict[int, type] = {}
        self._by_type: dict[type, int] = {}
        #: Pre-resolved dataclass field tuples: ``dataclasses.fields`` walks
        #: the class dict on every call, which is measurable on the encode
        #: hot path, so it is done once at registration.
        self._fields: dict[type, tuple] = {}

    def register(self, type_id: int):
        """Class decorator registering a dataclass or Enum under ``type_id``."""

        def decorator(cls: type) -> type:
            if not (dataclasses.is_dataclass(cls) or issubclass(cls, enum.Enum)):
                raise TypeError(
                    f"only dataclasses and enums are serializable, got {cls!r}"
                )
            existing = self._by_id.get(type_id)
            if existing is not None and existing is not cls:
                raise ValueError(
                    f"type id {type_id} already registered to {existing.__name__}"
                )
            self._by_id[type_id] = cls
            self._by_type[cls] = type_id
            if dataclasses.is_dataclass(cls):
                self._fields[cls] = tuple(dataclasses.fields(cls))
                dict_fill_init(cls)
            return cls

        return decorator

    def id_of(self, cls: type) -> int:
        try:
            return self._by_type[cls]
        except KeyError:
            raise EncodeError(f"{cls.__name__} is not a registered wire type")

    def type_of(self, type_id: int) -> type:
        try:
            return self._by_id[type_id]
        except KeyError:
            raise DecodeError(f"unknown wire type id {type_id}")

    def dataclass_of(self, type_id: int) -> tuple:
        """``(class, fields)`` of the dataclass registered under
        ``type_id``; :class:`DecodeError` if the id is unknown or an
        enum's."""
        cls = self.type_of(type_id)
        fields = self._fields.get(cls)
        if fields is None:
            raise DecodeError(f"wire type id {type_id} is not a dataclass")
        return cls, fields

    def enum_of(self, type_id: int) -> type:
        """The enum registered under ``type_id``; :class:`DecodeError` if
        the id is unknown or a dataclass's."""
        cls = self.type_of(type_id)
        if cls in self._fields:
            raise DecodeError(f"wire type id {type_id} is not an enum")
        return cls

    def fields_of(self, cls: type) -> tuple:
        fields = self._fields.get(cls)
        if fields is None:
            fields = tuple(dataclasses.fields(cls))
            self._fields[cls] = fields
        return fields


#: The process-wide registry all protocol modules register into.
GLOBAL_REGISTRY = TypeRegistry()

#: Convenience alias used as ``@wire_type(ID)`` on message dataclasses.
wire_type = GLOBAL_REGISTRY.register
