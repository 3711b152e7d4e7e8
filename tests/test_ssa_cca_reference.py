"""SSA-CCA read in time chunks against a copy of the whole-array code it
replaced: the cleaned channels must agree to 1e-9 of the input's largest
amplitude, and the same canonical sources must be zeroed.

The copy holds every component, the stacked 16 x N arrays and the sources at
once. The chunked code sums CCA's covariances chunk by chunk, and each
source's lag-1 autocorrelation from the source's own moments. An input of one
chunk (4,096 samples of 4 channels) is summed in the copy's order and
matches it bit for bit; a longer one moves by rounding. How far rounding
moves it depends on CCA's conditioning: the golden grid's draws carry one
contaminant on every channel, and their component covariances have
condition numbers near 1e13, so one cut into 64-sample chunks moved by up
to 2e-9 of max|x|. The many-chunk cases below give each channel a
contaminant of its own, as ``simulate`` does.
"""

from dataclasses import replace

import numpy as np
import pytest

from eegscrub import Recording, Signal
from eegscrub.bench import CHANNEL_NAMES, make_clean
from eegscrub.core import pearson
from eegscrub.decompose import cca, ssa_decompose
from eegscrub.denoise import remove_muscle_ssa_cca
from eegscrub.noise import NoiseSpec, gen_noise, mix_at_snr

FS = 256.0
# the golden grid's noises, SNRs and seeds (tests/test_golden.py)
GRID_NOISES = ("kind=awgn", "kind=powerline", "kind=baseline_wander",
               "kind=emg_burst,duty=1")
GRID_SNRS = (-5.0, 0.0, 5.0)
GRID_SEEDS = (0, 1)


def reference_remove_muscle_ssa_cca(rec, autocorr_thresh=0.9):
    """Cleaned channels (n_ch x N) and zeroed sources, as the code was."""
    comps, owner = [], []
    for c, ch in enumerate(rec.channels):
        model = ssa_decompose(ch.samples, leading=4)
        for i in range(model.n_components):
            comps.append(model.component(i))
            owner.append(c)
    means = np.array([comp.mean() for comp in comps])
    stacked = np.column_stack(comps)
    result = cca(stacked.T, np.concatenate([stacked[:1], stacked[:-1]]).T)
    sources = result.sources
    autocorrs = [1.0 if rho is None else rho
                 for rho in (pearson(src[1:], src[:-1]) for src in sources)]
    zeroed = [i for i, rho in enumerate(autocorrs) if rho < autocorr_thresh]
    kept = [i for i, rho in enumerate(autocorrs) if rho >= autocorr_thresh]
    owners = np.equal.outer(np.arange(len(rec.channels)), owner).astype(float)
    mix = owners @ np.linalg.inv(result.wx)
    cleaned = mix[:, kept] @ sources[kept] + (owners @ means)[:, None]
    return cleaned, tuple(zeroed)


def grid_draw(noise: str, snr_db: float, seed: int, n: int = 2048):
    """The four-channel recording a bench draw hands ``ssa_cca``."""
    spec = NoiseSpec.from_text(noise)
    contaminant = gen_noise(replace(spec, seed=spec.seed + seed), n, FS)
    channels = [mix_at_snr(make_clean(seed, n, FS, channel=c), contaminant,
                           snr_db)[0] for c in range(len(CHANNEL_NAMES))]
    return Recording(tuple(channels), CHANNEL_NAMES)


def simulated_recording(seconds: float, seed: int = 0):
    """The two-tone surrogate plus EMG bursts at 0 dB, a contaminant of its
    own on each channel, as the CLI's ``simulate`` builds it."""
    n = int(seconds * FS)
    spec = NoiseSpec.from_text("kind=emg_burst")
    channels = [mix_at_snr(make_clean(seed, n, FS, channel=c),
                           gen_noise(replace(spec, seed=spec.seed + seed + c),
                                     n, FS), 0.0)[0]
                for c in range(len(CHANNEL_NAMES))]
    return Recording(tuple(channels), CHANNEL_NAMES)


def assert_matches_reference(rec, exact=False):
    want, zeroed = reference_remove_muscle_ssa_cca(rec)
    out, report = remove_muscle_ssa_cca(rec)
    got = np.array([ch.samples for ch in out.channels])
    scale = max(np.max(np.abs(ch.samples)) for ch in rec.channels)
    assert np.max(np.abs(got - want)) <= 1e-9 * scale
    assert report.components_removed == zeroed
    if exact:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise", GRID_NOISES)
@pytest.mark.parametrize("snr_db", GRID_SNRS)
@pytest.mark.parametrize("seed", GRID_SEEDS)
def test_golden_grid_draws_match_reference(noise, snr_db, seed):
    assert_matches_reference(grid_draw(noise, snr_db, seed), exact=True)


def test_ten_minute_recording_matches_reference():
    assert_matches_reference(simulated_recording(600.0))


@pytest.mark.parametrize("seconds", [8.0, 60.0])
@pytest.mark.parametrize("seed", range(3))
def test_noise_free_recording_matches_reference(seconds, seed):
    # the channels share two tones, so most canonical sources carry only
    # rounding, too little for the components' moments to resolve
    n = int(seconds * FS)
    rec = Recording(tuple(make_clean(seed, n, FS, channel=c)
                          for c in range(len(CHANNEL_NAMES))), CHANNEL_NAMES)
    assert_matches_reference(rec, exact=seconds == 8.0)


@pytest.mark.parametrize("seed", range(3))
def test_many_chunks_match_reference(monkeypatch, seed):
    # chunks of 64 samples: every boundary, and the delayed pair across it
    monkeypatch.setattr("eegscrub.denoise._BLOCK_BYTES", 64 * 8 * 2 * 16)
    assert_matches_reference(simulated_recording(8.0, seed))


def test_single_channel_matches_reference():
    t = np.arange(4096) / FS
    x = np.sin(2 * np.pi * 6.0 * t) + 0.3 * np.sin(2 * np.pi * 40.0 * t)
    assert_matches_reference(Recording((Signal(x, FS),), ("only",)),
                             exact=True)
