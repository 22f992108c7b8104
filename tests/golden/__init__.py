"""Outputs of the pre-optimisation code paths, frozen before they were deleted.

``outputs.json`` was recorded at the last commit that still carried the
ten ``repro.perf.PERF`` on/off switches, with every switch *off*. The
tests that used to run that second implementation compare against these
values instead; ``tests/test_golden_outputs.py`` says what each one is.
"""

import json
import pathlib

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "outputs.json").read_text(encoding="utf-8")
)
