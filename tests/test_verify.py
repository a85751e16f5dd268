"""Verification battery plumbing: report records, suite wiring."""

import hashlib

import pytest

from rooklab.verify import (SUITES, SpectrumCache, VerificationReport, _run,
                            battery, run_suites)


class TestRun:
    def test_exception_becomes_failure(self):
        def boom():
            raise RuntimeError("kaput")

        reports = list(_run([("x", boom)]))
        assert reports[0].status == "fail"
        assert "kaput" in reports[0].actual

    def test_report_serialization(self):
        r = VerificationReport("c", "pass", "1", "1", 7)
        assert r.to_json() == {"claim": "c", "status": "pass",
                               "expected": "1", "actual": "1",
                               "runtime_ms": 7}


class TestSuites:
    def test_known_suites(self):
        assert SUITES == ("spectra", "partitions", "invariants",
                          "switching", "gamma")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suites(["spectra", "nope"])

    def test_partitions_suite_green(self):
        reports = list(run_suites(["partitions"]))
        assert reports
        assert all(r.status == "pass" for r in reports)

    def test_claim_ids_are_unique(self):
        claims = [claim for claim, _ in battery()]
        assert len(set(claims)) == len(claims)

    def test_claim_ids_and_their_order_are_pinned(self):
        # Building the battery runs no claim.  A change that adds, drops,
        # renames or reorders claims re-pins this and says why in CHANGES.md.
        claims = [claim for claim, _ in battery()]
        digest = hashlib.sha256("\n".join(claims).encode()).hexdigest()
        assert len(claims) == 584
        assert digest == ("6392ec0dbb297533cb803cf98c38e094"
                          "e520b84272b10dd9e0df8adb3ceda349")

    def test_cache_shared_between_items(self):
        cache = SpectrumCache()
        g1 = cache.graph(3, 3)
        assert cache.graph(3, 3) is g1
        s1 = cache.spectrum(3, 3)
        assert cache.spectrum(3, 3) is s1
