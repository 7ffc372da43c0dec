"""Every function the benchmark tracer wraps must exist under its traced name.

perfbench/tracer.py rebinds each entry of TARGETS by name when a traced run
starts; a renamed or deleted function makes that run fail before it measures
anything. Installing and removing the tracer here surfaces the break in the
unit tests instead.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_tracer_installs_on_every_target():
    undo = tracer.install(tracer.Recorder())
    try:
        wrapped = {getattr(holder, key).__wrapped__ for holder, key, _ in undo}
        assert len(wrapped) == len(tracer.TARGETS)
    finally:
        tracer.uninstall(undo)
    assert all(not hasattr(getattr(holder, key), "__wrapped__") for holder, key, _ in undo)
