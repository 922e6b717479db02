"""Recency of hashtag reuse: how long since the hashtag was last seen.

For every seed-user assignment whose label carries the individual bit we
record the time since the user's own most recent prior usage of that
hashtag; for the social bit, the time since the most recent prior usage
by any followee. `recency_samples` takes both kinds from one
classification sweep. The samples are binned into log-spaced histograms
(meant for log-log plotting) and checked for a daily-periodicity peak:
a strict local maximum at the bin containing 24 hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import classify
from .corpus import Corpus, _gc_paused

SECONDS_PER_HOUR = 3600.0

DEFAULT_N_BINS = 50
DEFAULT_MIN_HOURS = 0.1
DEFAULT_MAX_HOURS = 10_000.0


class InvalidRange(Exception):
    """Histogram parameters are unusable."""


class RangeExcludes24h(Exception):
    """Peak detection needs a bin containing the 24 hour mark."""


@dataclass(frozen=True, slots=True)
class RecencySample:
    kind: str  # "individual" or "social"
    delta_seconds: int  # >= 1


@dataclass(frozen=True)
class RecencyHistogram:
    kind: str
    bin_edges_hours: tuple[float, ...]  # ascending, geometric; len = n_bins + 1
    counts: tuple[int, ...]

    @property
    def bin_centers_hours(self) -> tuple[float, ...]:
        """Geometric bin centers, the natural x coordinate on a log axis."""
        e = self.bin_edges_hours
        return tuple(float(np.sqrt(lo * hi)) for lo, hi in zip(e[:-1], e[1:]))


@dataclass(frozen=True)
class PeakCheck:
    is_peak: bool
    bin_index: int


def recency_samples(corpus: Corpus) -> tuple[list[RecencySample], list[RecencySample]]:
    """(individual, social) samples, one per seed-user assignment with that
    label bit, from one classification sweep with cyclic gc paused."""
    individual: list[RecencySample] = []
    social: list[RecencySample] = []
    with _gc_paused():
        for _, _, _, _, _, individual_delta, social_delta in classify.sweep(corpus):
            if individual_delta is not None:
                individual.append(RecencySample("individual", individual_delta))
            if social_delta is not None:
                social.append(RecencySample("social", social_delta))
    return individual, social


def individual_recency_samples(corpus: Corpus) -> list[RecencySample]:
    """The individual samples of `recency_samples`."""
    return recency_samples(corpus)[0]


def social_recency_samples(corpus: Corpus) -> list[RecencySample]:
    """The social samples of `recency_samples`."""
    return recency_samples(corpus)[1]


def build_histogram(
    samples: Sequence[RecencySample],
    n_bins: int = DEFAULT_N_BINS,
    min_hours: float = DEFAULT_MIN_HOURS,
    max_hours: float = DEFAULT_MAX_HOURS,
) -> RecencyHistogram:
    """Bin samples into half-open geometric bins [lo, hi) over
    [min_hours, max_hours]. Out-of-range samples clamp into the first or
    last bin, so counts always sum to len(samples)."""
    if n_bins < 2:
        raise InvalidRange(f"need at least 2 bins, got {n_bins}")
    if not (0 < min_hours < max_hours < float("inf")):
        raise InvalidRange(
            f"need finite 0 < min_hours < max_hours, got [{min_hours}, {max_hours}]"
        )
    kinds = {s.kind for s in samples}
    if len(kinds) > 1:
        raise ValueError(f"mixed sample kinds: {sorted(kinds)}")
    kind = kinds.pop() if kinds else ""

    edges = np.geomspace(min_hours, max_hours, n_bins + 1)
    counts = np.zeros(n_bins, dtype=np.int64)
    if samples:
        hours = np.array([s.delta_seconds for s in samples], dtype=np.float64)
        hours /= SECONDS_PER_HOUR
        idx = np.searchsorted(edges, hours, side="right") - 1
        np.clip(idx, 0, n_bins - 1, out=idx)
        np.add.at(counts, idx, 1)
    return RecencyHistogram(
        kind=kind,
        bin_edges_hours=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
    )


def daily_peak_bin(hist: RecencyHistogram) -> int:
    """Index of the bin containing the 24 hour mark."""
    edges = hist.bin_edges_hours
    if not (edges[0] <= 24.0 < edges[-1]):
        raise RangeExcludes24h(
            f"histogram range [{edges[0]}, {edges[-1]}) does not contain 24h"
        )
    i = int(np.searchsorted(edges, 24.0, side="right")) - 1
    return i


def detect_daily_peak(hist: RecencyHistogram) -> PeakCheck:
    """True iff the bin containing 24h strictly exceeds both its neighbors."""
    if len(hist.counts) < 3:
        raise InvalidRange("peak detection needs at least 3 bins")
    i = daily_peak_bin(hist)
    counts = hist.counts
    if i == 0 or i == len(counts) - 1:
        return PeakCheck(is_peak=False, bin_index=i)
    return PeakCheck(
        is_peak=counts[i] > counts[i - 1] and counts[i] > counts[i + 1],
        bin_index=i,
    )
