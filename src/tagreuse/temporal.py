"""Recency of hashtag reuse: how long since the hashtag was last seen.

For every seed-user assignment whose label carries the individual bit we
record the time since the user's own most recent prior usage of that
hashtag; for the social bit, the time since the most recent prior usage
by any followee. `recency_samples` takes both kinds, as int64 arrays of
seconds, from the delta columns of one `classify.label_rows` call. The
samples are binned into log-spaced histograms (meant for log-log
plotting) and checked for a daily-periodicity peak: a strict local
maximum at the bin containing 24 hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import classify
from .corpus import Corpus

SECONDS_PER_HOUR = 3600.0

DEFAULT_N_BINS = 50
DEFAULT_MIN_HOURS = 0.1
DEFAULT_MAX_HOURS = 10_000.0
# At most this many bins: their edges take 8 bytes each.
MAX_BINS = 10**6


class InvalidRange(Exception):
    """Histogram parameters are unusable."""


class RangeExcludes24h(Exception):
    """Peak detection needs a bin containing the 24 hour mark."""


@dataclass(frozen=True)
class RecencyHistogram:
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


def recency_samples(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """(individual, social) deltas in seconds, one per seed-user assignment
    with that label bit, in corpus order, from one classification."""
    labels = classify.label_rows(corpus)
    individual, social = labels.individual_delta, labels.social_delta
    return individual[individual > 0], social[social > 0]


# The one-kind accessors are names the benchmark's tracer wraps.
def individual_recency_samples(corpus: Corpus) -> np.ndarray:
    """The individual samples of `recency_samples`."""
    return recency_samples(corpus)[0]


def social_recency_samples(corpus: Corpus) -> np.ndarray:
    """The social samples of `recency_samples`."""
    return recency_samples(corpus)[1]


def check_histogram(n_bins: int, min_hours: float, max_hours: float) -> None:
    """Raise InvalidRange unless 2 <= n_bins <= MAX_BINS and
    0 < min_hours < max_hours, all finite."""
    if n_bins < 2:
        raise InvalidRange(f"need at least 2 bins, got {n_bins}")
    if n_bins > MAX_BINS:
        raise InvalidRange(f"need at most {MAX_BINS} bins, got {n_bins}")
    if not (0 < min_hours < max_hours < float("inf")):
        raise InvalidRange(
            f"need finite 0 < min_hours < max_hours, got [{min_hours}, {max_hours}]"
        )


def build_histogram(
    deltas: Sequence[int] | np.ndarray,
    n_bins: int = DEFAULT_N_BINS,
    min_hours: float = DEFAULT_MIN_HOURS,
    max_hours: float = DEFAULT_MAX_HOURS,
) -> RecencyHistogram:
    """Bin deltas (seconds) into half-open geometric bins [lo, hi) over
    [min_hours, max_hours]. Out-of-range deltas clamp into the first or
    last bin, so counts always sum to len(deltas). The parameters must pass
    `check_histogram`."""
    check_histogram(n_bins, min_hours, max_hours)
    edges = np.geomspace(min_hours, max_hours, n_bins + 1)
    hours = np.asarray(deltas, dtype=np.float64) / SECONDS_PER_HOUR
    idx = np.searchsorted(edges, hours, side="right") - 1
    counts = np.bincount(np.clip(idx, 0, n_bins - 1), minlength=n_bins)
    return RecencyHistogram(
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
    return int(np.searchsorted(edges, 24.0, side="right")) - 1


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
