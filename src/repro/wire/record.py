"""Records: what a frozen message carries about itself.

A *record* is a value some code computed from a message — its encoding,
the message its bytes encode, the MAC tags its sealer made, the reply a
replica built for it — kept on that message object (the *carrier*), so
whoever holds the very same object next takes the value instead of
computing it again. Every record in the repo goes through
:func:`record` and :func:`recorded`, and their three rules live here:

1. Only a frozen dataclass carries records (:func:`frozen`): its identity
   pins its content. A record is stored straight into the carrier's
   ``__dict__`` (a frozen dataclass blocks ``setattr``), so no wire field
   is touched, ``__eq__``/``__repr__``/``fields`` ignore it, a
   ``dataclasses.replace`` copy starts without it, and it lives exactly
   as long as the carrier.
2. A record names its *keys*: the objects it was computed from (the
   carrier's own field objects, or the inputs the next reader must
   share), one object or a tuple of them. It is read back only while
   every key is the identical object, so a copy with another bytes
   object or request decodes, hashes or builds its own.
3. A record whose reuse depends on more than identity (a replica's
   reply, which must encode like the one this replica would build) is
   checked by its reader with :func:`repro.wire.same_encoding`.
"""

from __future__ import annotations

from operator import is_


class _FrozenClasses(dict):
    """Per-class answer of :func:`frozen`, worked out on first sight."""

    def __missing__(self, cls: type) -> bool:
        params = getattr(cls, "__dataclass_params__", None)
        answer = self[cls] = bool(
            params is not None and params.frozen and cls.__dictoffset__
        )
        return answer


_FROZEN = _FrozenClasses()

#: ``frozen(cls)``: are instances of ``cls`` frozen dataclasses with a
#: ``__dict__``, which may carry records and be shared by every holder?
#: (A dict lookup, so asking costs no Python call.)
frozen = _FROZEN.__getitem__


def record(carrier, name: str, value, keys=()):
    """Record ``value`` on ``carrier`` under ``name``, valid while
    ``keys`` are the identical objects (see :func:`recorded`), in place
    of any record of that name; returns ``value``. A carrier that is not
    :func:`frozen` records nothing."""
    if _FROZEN[carrier.__class__]:
        carrier.__dict__[name] = (keys, value)
    return value


def recorded(carrier, name: str, keys=()):
    """The value recorded on ``carrier`` (a frozen dataclass) under
    ``name`` while ``keys`` are its keys, else ``None``. ``keys`` is one
    object, compared by identity, or a tuple or list of objects, compared
    one by one."""
    memo = carrier.__dict__.get(name)
    if memo is None:
        return None
    held = memo[0]
    if held is keys or (
        held.__class__ is tuple
        and keys.__class__ in (tuple, list)
        and len(held) == len(keys)
        and all(map(is_, held, keys))
    ):
        return memo[1]
    return None
