"""Tests for the temporal session structure of facility traces."""

import numpy as np
import pytest

from repro.facility.temporal import (
    SessionConfig,
    add_session_structure,
    hour_of_day_profile,
    interarrival_stats,
)


class TestSessionStructure:
    def test_preserves_content(self, ooi_trace):
        structured = add_session_structure(ooi_trace, seed=0)
        assert len(structured) == len(ooi_trace)
        # Same multiset of (user, object) records.
        a = sorted(zip(ooi_trace.user_ids.tolist(), ooi_trace.object_ids.tolist()))
        b = sorted(zip(structured.user_ids.tolist(), structured.object_ids.tolist()))
        assert a == b

    def test_timestamps_sorted_and_bounded(self, ooi_trace):
        from repro.facility.trace import SECONDS_PER_YEAR

        structured = add_session_structure(ooi_trace, seed=0)
        assert (np.diff(structured.timestamps) >= 0).all()
        assert structured.timestamps.min() >= 0
        assert structured.timestamps.max() <= SECONDS_PER_YEAR

    def test_burstier_than_uniform(self, ooi_trace):
        uniform = interarrival_stats(ooi_trace)
        structured = add_session_structure(ooi_trace, seed=0)
        bursty = interarrival_stats(structured)
        assert bursty["fraction_within_session"] > 3 * uniform["fraction_within_session"]

    def test_working_hours_peak(self, ooi_trace):
        structured = add_session_structure(ooi_trace, SessionConfig(peak_hour=14.0), seed=0)
        profile = hour_of_day_profile(structured)
        np.testing.assert_allclose(profile.sum(), 1.0, atol=1e-12)
        assert profile[13:16].sum() > profile[1:4].sum() * 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionConfig(mean_session_length=0)
        with pytest.raises(ValueError):
            SessionConfig(peak_hour=25)
        with pytest.raises(ValueError):
            SessionConfig(weekend_factor=0.0)

    def test_deterministic(self, ooi_trace):
        a = add_session_structure(ooi_trace, seed=5)
        b = add_session_structure(ooi_trace, seed=5)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)
