"""No wire message names its own sender: the authenticated envelope does.

Every quorum the protocol counts keys on ``Sealed.sender``, the identity
whose MAC :meth:`repro.bftsmart.channel.SecureChannel.open` verified. A
message field that also names a principal is a second source for that
fact, and one a Byzantine sender writes freely — so the registry may
hold such a field only where the message is relayed past the hop that
authenticated it and is signed or checked on its own, or where the
field names someone other than the sender. This walks every registered
wire type and fails on any field named like an identity that is not in
:data:`ALLOWED`, and on any :data:`ALLOWED` entry that no longer exists.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import repro
from repro.wire import GLOBAL_REGISTRY

#: Field names that would declare who a message is from.
IDENTITY_FIELDS = ("sender", "replica", "admin", "client_id")

#: ``(wire type, field)`` -> why the field may name a principal.
ALLOWED = {
    ("Sealed", "sender"): "the envelope itself: the identity its MAC tags vouch for",
    ("ClientRequest", "client_id"): (
        "relayed inside proposed batches and individually signed by the client"
    ),
    ("ReconfigRequest", "admin"): (
        "relayed as an ordered operation and individually signed by the administrator"
    ),
    ("TimeoutVote", "replica"): (
        "relayed as an ordered operation and checked against the ordering "
        "context's signed client id"
    ),
    ("Reply", "client_id"): "names the addressee, which drops a reply meant for another",
    ("PushMessage", "client_id"): "names the addressee, not the sender",
}


def _registered() -> list:
    # Every module that registers a wire type, not only those imported so far.
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name != "repro.__main__":
            importlib.import_module(module.name)
    return [
        cls
        for _tid, cls in sorted(GLOBAL_REGISTRY._by_id.items())
        if dataclasses.is_dataclass(cls)
    ]


def _identity_fields() -> set:
    return {
        (cls.__name__, field.name)
        for cls in _registered()
        for field in dataclasses.fields(cls)
        if field.name in IDENTITY_FIELDS
    }


def test_the_registry_is_walked_whole():
    names = {cls.__name__ for cls in _registered()}
    assert {"Sealed", "Propose", "ItemUpdate", "TimeoutVote"} <= names


def test_no_message_names_its_own_sender():
    unexplained = sorted(_identity_fields() - set(ALLOWED))
    assert not unexplained, (
        "identity fields besides the envelope's sender (read Sealed.sender "
        f"from SecureChannel.open instead): {unexplained}"
    )


def test_allow_list_entries_are_still_needed():
    assert sorted(set(ALLOWED) - _identity_fields()) == []
