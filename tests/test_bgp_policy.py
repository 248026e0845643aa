"""Tests for announcement policies."""

from __future__ import annotations

import pytest

from repro.bgp.policy import AnnouncementPolicy, SiteAnnouncement
from repro.errors import ConfigurationError


class TestSiteAnnouncement:
    def test_effective_length(self):
        assert SiteAnnouncement("LAX", 10).effective_length == 1
        assert SiteAnnouncement("LAX", 10, prepend=3).effective_length == 4

    def test_rejects_negative_prepend(self):
        with pytest.raises(ConfigurationError):
            SiteAnnouncement("LAX", 10, prepend=-1)


class TestPolicy:
    UPSTREAMS = {"LAX": 10, "MIA": 20}

    def test_uniform(self):
        policy = AnnouncementPolicy.uniform(self.UPSTREAMS)
        assert policy.site_codes == ["LAX", "MIA"]
        assert [entry.prepend for entry in policy.announcements] == [0, 0]

    def test_with_prepends(self):
        policy = AnnouncementPolicy.uniform(self.UPSTREAMS, prepends={"MIA": 2})
        assert [entry.prepend for entry in policy.announcements] == [0, 2]

    def test_withdrawn_site(self):
        policy = AnnouncementPolicy.uniform(self.UPSTREAMS, withdrawn=["MIA"])
        assert policy.site_codes == ["LAX"]

    def test_rejects_all_withdrawn(self):
        with pytest.raises(ConfigurationError):
            AnnouncementPolicy.uniform(self.UPSTREAMS, withdrawn=["LAX", "MIA"])

    def test_rejects_unknown_prepend_site(self):
        with pytest.raises(ConfigurationError):
            AnnouncementPolicy.uniform(self.UPSTREAMS, prepends={"XXX": 1})

    def test_rejects_unknown_withdrawn_site(self):
        with pytest.raises(ConfigurationError):
            AnnouncementPolicy.uniform(self.UPSTREAMS, withdrawn=["XXX"])

    def test_rejects_duplicate_sites(self):
        with pytest.raises(ConfigurationError):
            AnnouncementPolicy(
                [SiteAnnouncement("LAX", 1), SiteAnnouncement("LAX", 2)]
            )

    def test_with_prepend_copy(self):
        policy = AnnouncementPolicy.uniform(self.UPSTREAMS)
        modified = policy.with_prepend("MIA", 3)
        assert [entry.prepend for entry in policy.announcements] == [0, 0]
        assert [entry.prepend for entry in modified.announcements] == [0, 3]

    def test_with_prepend_unknown_site(self):
        policy = AnnouncementPolicy.uniform(self.UPSTREAMS)
        with pytest.raises(ConfigurationError):
            policy.with_prepend("XXX", 1)
