"""The verify-paper report: its pinned content, its FAIL paths and its undecided path."""

import json
import random
from pathlib import Path

import pytest

import orihex.cli as cli
import orihex.verify as verify
from orihex.digraph import orient, random_orientation
from orihex.hexgrid import build_hex_grid
from orihex.homomorphism import HomResult, SearchBudgetExceeded

GOLDEN = Path(__file__).parent / "golden" / "verify_small_seed0.json"


def without_times(obj):
    """obj with every ``elapsed_s`` key removed at any depth."""
    if isinstance(obj, dict):
        return {k: without_times(v) for k, v in obj.items() if k != "elapsed_s"}
    if isinstance(obj, list):
        return [without_times(v) for v in obj]
    return obj


def records(report):
    return {c.name: c for c in report.checks}


def test_report_matches_golden():
    report = verify.verify_paper(seed=0, scale="small")
    assert without_times(report.to_dict()) == json.loads(GOLDEN.read_text())


def test_unknown_scale_is_refused():
    with pytest.raises(ValueError, match=r"^scale must be one of \['full', 'small'\]$"):
        verify.verify_paper(scale="huge")


def test_negative_seed_is_refused_before_any_check(monkeypatch):
    """random.Random reads seed -1 as 1, so verify_paper refuses it rather
    than report -1 over seed 1's samples; no check runs."""
    def census_ran():
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_census_check", census_ran)
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        verify.verify_paper(seed=-1)


def test_search_over_budget_is_undecided(monkeypatch, capsys):
    def over_budget(g, t, time_budget_s=None):
        raise SearchBudgetExceeded("time budget exceeded")

    monkeypatch.setattr(verify, "homomorphism_exists", over_budget)
    with pytest.raises(SearchBudgetExceeded):
        verify.verify_paper(seed=0, scale="small")
    assert cli.cli_dispatch(["verify-paper"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["undecided: SearchBudgetExceeded time budget exceeded"]


def test_gating_search_found_fails(monkeypatch):
    real = verify.homomorphism_exists

    def found_into_t5(g, t, time_budget_s=None):
        if g.n_vertices == 18 and t == verify.named_tournament("T5"):
            return HomResult(True, (0,) * 18, 1, 18)
        return real(g, t, time_budget_s=time_budget_s)

    monkeypatch.setattr(verify, "homomorphism_exists", found_into_t5)
    report = verify.verify_paper(seed=0, scale="small")
    checks = records(report)
    rec = checks["lower_bound_h4_t5"]
    assert rec.verdict == "FAIL"
    assert rec.details["verdict"] == "FOUND"
    assert rec.details["witness_valid"] is False
    combined = checks["lower_bound_combined"]
    assert combined.verdict == "FAIL"
    assert combined.details["summary"] == "lower_bound: refuted by a homomorphism"
    assert report.overall == "FAIL"


@pytest.mark.parametrize("error", [
    RuntimeError("internal error: coloring violates an arc"),
    ValueError("orientation must direct exactly the grid's edges"),
])
def test_coloring_that_raises_counts_as_a_failure(monkeypatch, tmp_path, capsys, error):
    """One orientation per upper-bound record makes color_hex raise: each
    record FAILs with one failure inside a written report, exit 1."""
    first_trial_seed = random.Random(0).getrandbits(32)
    bad = {
        orient(build_hex_grid(1, 1).graph, "101010").arcs,
        random_orientation(build_hex_grid(5, 5).graph, first_trial_seed).arcs,
    }
    real = verify.color_hex

    def raise_on_bad(grid, oriented):
        if oriented.arcs in bad:
            raise error
        return real(grid, oriented)

    monkeypatch.setattr(verify, "color_hex", raise_on_bad)
    out = tmp_path / "report.json"
    assert cli.cli_dispatch(["verify-paper", "--out", str(out)]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("overall: FAIL")
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    exhaustive = checks["upper_bound_exhaustive_h11"]
    assert (exhaustive["verdict"], exhaustive["details"]) == (
        "FAIL", {"orientations": 64, "failures": 1})
    sampled = checks["upper_bound_sampled"]
    assert (sampled["verdict"], sampled["details"]["failures"]) == ("FAIL", 1)
    assert "summary" not in sampled["details"]


def test_tampered_fixture_digest_fails(monkeypatch):
    monkeypatch.setattr(verify, "fixture_digest", lambda name: "0" * 64)
    ok, details = verify._fixture_check("H49")
    assert ok is False
    assert details["digest_ok"] is False


def test_seed_only_affects_sampled_records():
    ok0, d0 = verify._upper_bound_sampled(seed=0, scale="small")
    ok1, d1 = verify._upper_bound_sampled(seed=1, scale="small")
    assert ok0 is ok1 is True
    assert d0["first_trial_seeds"] != d1["first_trial_seeds"]
    # the exact checks consume no seed at all
    for fn in (
        verify._census_check,
        verify._double_score_check,
        verify._t5_codes_check,
        verify._a6_degree_check,
        verify._a6_path_property_check,
    ):
        ok, _ = fn()
        assert ok is True
