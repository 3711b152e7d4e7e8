"""``remove_muscle_ssa_cca``'s three passes over its spill file: the pinned
output and decisions, each chunk's components built once, and the spill
file closed however the call ends."""

import hashlib
import json
import tempfile

import numpy as np
import pytest

from eegscrub import Recording, denoise
from eegscrub.bench import CHANNEL_NAMES, make_clean
from eegscrub.decompose import SsaModel
from eegscrub.denoise import remove_muscle_ssa_cca
from test_ssa_cca_reference import simulated_recording


def digest(rec, report) -> str:
    """sha256 prefix of the output's bytes, the decisions and the zeroed
    sources."""
    h = hashlib.sha256()
    for ch in rec.channels:
        h.update(ch.samples.tobytes())
    h.update(json.dumps(report.decisions, sort_keys=True).encode())
    h.update(repr(report.components_removed).encode())
    return h.hexdigest()[:16]


def noise_free(seconds):
    """``simulated_recording``'s clean surrogate alone: CCA's null sources
    then have a variance within rounding of zero."""
    n = int(seconds * 256)
    return Recording(tuple(make_clean(0, n, 256.0, channel=c)
                           for c in range(len(CHANNEL_NAMES))), CHANNEL_NAMES)


# 2,048 samples are one chunk; 15,360 samples of 4 channels are four
@pytest.mark.parametrize("build,seconds,pin", [
    (simulated_recording, 8, "dda3723478bacf9f"),
    (simulated_recording, 60, "1fa1e9f820b64db8"),
    (noise_free, 8, "2e392b58616b7151"),
    (noise_free, 60, "6e9b161da8ff7a6a"),
])
def test_output_and_decisions_pinned(build, seconds, pin):
    assert digest(*remove_muscle_ssa_cca(build(seconds))) == pin


@pytest.mark.parametrize("seconds,chunks", [(8, 1), (60, 4)])
def test_each_chunk_built_once(monkeypatch, seconds, chunks):
    calls = []
    component = SsaModel.component

    def counted(model, i, start=0, stop=None):
        calls.append((id(model), i))
        return component(model, i, start, stop)

    monkeypatch.setattr(SsaModel, "component", counted)
    remove_muscle_ssa_cca(simulated_recording(seconds))
    assert len(set(calls)) == 16  # k components, 4 a channel
    assert len(calls) == 16 * chunks


class FailingSpill:
    """A spill file whose call number ``fail[1]`` of its method ``fail[0]``
    raises."""

    def __init__(self, file, fail):
        self.file, self.fail, self.calls = file, fail, 0

    def __getattr__(self, name):
        return getattr(self.file, name)

    def __enter__(self):
        self.file.__enter__()
        return self

    def __exit__(self, *exc):
        return self.file.__exit__(*exc)

    def call(self, name, *args):
        self.calls += name == self.fail[0]
        if (name, self.calls) == self.fail:
            raise OSError(f"{name} failed")
        return getattr(self.file, name)(*args)

    def write(self, data):
        return self.call("write", data)

    def readinto(self, buffer):
        return self.call("readinto", buffer)


def watch_spills(monkeypatch, fail=("", 0)):
    """The files ``denoise`` opens by ``tempfile.TemporaryFile`` from now
    on, each handed to it as a FailingSpill."""
    opened, make = [], tempfile.TemporaryFile

    def temporary_file(*args, **kwargs):
        opened.append(make(*args, **kwargs))
        return FailingSpill(opened[-1], fail)

    monkeypatch.setattr(denoise.tempfile, "TemporaryFile", temporary_file)
    return opened


# pass 1 writes the four chunks, pass 2 reads them last first and pass 3
# reads them again in order
@pytest.mark.parametrize("fail", [("write", 1), ("write", 4), ("readinto", 1),
                                  ("readinto", 4), ("readinto", 5),
                                  ("readinto", 8)])
def test_spill_file_closed_on_error(monkeypatch, fail):
    opened = watch_spills(monkeypatch, fail)
    with pytest.raises(OSError, match=f"{fail[0]} failed"):
        remove_muscle_ssa_cca(simulated_recording(60))
    assert len(opened) == 1 and opened[0].closed


def test_spill_file_closed_on_return(monkeypatch):
    opened = watch_spills(monkeypatch)
    remove_muscle_ssa_cca(simulated_recording(60))
    assert len(opened) == 1 and opened[0].closed


def test_spill_file_closed_when_projection_is_singular(monkeypatch):
    opened, found = watch_spills(monkeypatch), denoise.cca_from_moments

    def singular(*covariances):
        wx, wy, correlations = found(*covariances)
        return np.zeros_like(wx), wy, correlations

    monkeypatch.setattr(denoise, "cca_from_moments", singular)
    with pytest.raises(denoise.NumericDegeneracyError):
        remove_muscle_ssa_cca(simulated_recording(8))
    assert len(opened) == 1 and opened[0].closed
