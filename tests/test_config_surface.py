"""The configuration surface, pinned: a new knob is a visible diff.

A value that is the same everywhere is a module constant of the layer
that consumes it, not a field. The exact field sets of the four config
classes are listed here so the next knob has to be added to this file
too — and justified by two callers that need different values.
"""

import dataclasses

import pytest

from repro.bftsmart.config import GroupConfig
from repro.chaos.campaign import CampaignConfig
from repro.core.config import ShardedScadaConfig, SmartScadaConfig

SURFACE = {
    GroupConfig: {
        "n", "f", "batch_max", "batch_wait", "pipeline_depth",
        "request_timeout", "sync_timeout", "checkpoint_interval",
        "state_retry_interval", "addresses",
    },
    SmartScadaConfig: {
        "n", "f", "batch_max", "pipeline_depth",
        "request_timeout", "sync_timeout", "checkpoint_interval",
        "logical_timeout", "invoke_timeout", "durability", "fsync_policy",
        "state_retry_interval", "costs",
    },
    ShardedScadaConfig: {"shards", "base"},
    CampaignConfig: {
        "seed", "horizon", "write_interval", "n", "f", "shards",
        "allow_overload", "trace", "request_timeout", "sync_timeout",
        "invoke_timeout", "logical_timeout", "pipeline_depth", "durability",
        "fsync_policy", "checkpoint_interval", "trace_spans", "trace_dump",
        "ids", "ids_config", "heal", "heal_config", "fleet",
    },
}


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_config_fields_are_exactly_the_pinned_set(cls):
    assert {spec.name for spec in dataclasses.fields(cls)} == SURFACE[cls]


def test_a_removed_knob_is_a_type_error():
    with pytest.raises(TypeError):
        GroupConfig(execution_lanes=2)


def test_a_bad_fsync_policy_fails_at_construction():
    # Checked by the config that owns the field, with durability off too.
    with pytest.raises(ValueError, match="fsync policy"):
        SmartScadaConfig(fsync_policy="bogus")
    with pytest.raises(ValueError, match="fsync policy"):
        CampaignConfig(fsync_policy="bogus").sharded_config()
