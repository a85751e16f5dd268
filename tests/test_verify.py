"""Verification battery plumbing: report records, suite wiring."""

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

    def test_cache_shared_between_items(self):
        cache = SpectrumCache()
        g1 = cache.graph(3, 3)
        assert cache.graph(3, 3) is g1
        s1 = cache.spectrum(3, 3)
        assert cache.spectrum(3, 3) is s1
