import pytest

from revoca.encoding import canonical_decode
from revoca.sim import CounterRng, ScenarioConfig, run_scenario

BASE = dict(
    holders=10,
    vcs_per_holder=2,
    days=4,
    daily_revocation_rate=0.08,
    presentations_per_day=12,
    past_auth_probability=0.25,
    future_auth_probability=0.15,
    rng_seed=7,
    d=128,
    c=128,
    sigma=4,
    min_anonymity=1,
)


def test_counter_rng_is_deterministic():
    a, b = CounterRng(b"k" * 32), CounterRng(b"k" * 32)
    assert a(100) == b(100)
    assert a(5) == b(5)
    assert CounterRng(b"other" + b"\x00" * 27)(100) != CounterRng(b"k" * 32)(100)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(**{**BASE, "daily_revocation_rate": 1.5})
    with pytest.raises(ValueError):
        ScenarioConfig(**{**BASE, "holders": 0})
    with pytest.raises(ValueError):
        ScenarioConfig(**{**BASE, "scheme": "quantum"})


def test_reports_are_bit_identical():
    config = ScenarioConfig(**BASE)
    r1 = run_scenario(config)
    r2 = run_scenario(config)
    assert r1.to_bytes() == r2.to_bytes()
    assert r1.false_positives == r1.false_negatives == 0


def test_different_seed_differs():
    r1 = run_scenario(ScenarioConfig(**BASE))
    r2 = run_scenario(ScenarioConfig(**{**BASE, "rng_seed": 8}))
    assert r1.to_bytes() != r2.to_bytes()


def test_zero_rate_yields_zero_revoked_verdicts():
    config = ScenarioConfig(**{**BASE, "daily_revocation_rate": 0.0})
    report = run_scenario(config)
    assert report.true_positives == 0
    assert report.false_positives == 0
    assert report.false_negatives == 0
    assert report.day_verdicts == report.true_negatives


def test_forgery_knob_gives_full_rejection_with_correct_classes():
    config = ScenarioConfig(**{**BASE, "forgery_rate": 1.0, "future_auth_probability": 0.0})
    report = run_scenario(config)
    assert report.forged_accepted == 0
    assert report.misclassified_rejections == 0
    assert sum(report.rejections.values()) == 4 * 12
    assert set(report.rejections) <= {"check-digest-not-found", "key-probe-failed"}
    assert report.presentations_checked == 0


def test_cross_scheme_verdicts_identical():
    small = dict(BASE, holders=3, vcs_per_holder=1, days=3, presentations_per_day=4, rng_seed=11)
    transparent = run_scenario(ScenarioConfig(**small, scheme="test"))
    standard = run_scenario(ScenarioConfig(**small, scheme="standard"))
    verdict_fields = (
        "presentations_checked",
        "day_verdicts",
        "true_positives",
        "false_positives",
        "true_negatives",
        "false_negatives",
        "deferred_resolved",
    )
    for field in verdict_fields:
        assert getattr(transparent, field) == getattr(standard, field), field
    assert [d.revocations_published for d in transparent.days] == [d.revocations_published for d in standard.days]
    # byte metrics legitimately differ between schemes
    assert standard.table_bytes_total != transparent.table_bytes_total or standard.holder_bytes_max != transparent.holder_bytes_max


def test_holder_bytes_do_not_grow_with_population():
    small = run_scenario(ScenarioConfig(**{**BASE, "past_auth_probability": 0.0, "future_auth_probability": 0.0}))
    big = run_scenario(
        ScenarioConfig(**{**BASE, "holders": 100, "past_auth_probability": 0.0, "future_auth_probability": 0.0})
    )
    assert small.holder_bytes_max == big.holder_bytes_max
    assert small.holder_bytes_min == big.holder_bytes_min


def test_report_record_structure():
    report = run_scenario(ScenarioConfig(**BASE))
    record = canonical_decode(report.to_bytes())
    assert record["version"] == "1"
    assert record["config"]["scheme"] == "test"
    assert len(record["days"]) == BASE["days"]
    assert "rebuild_ms" not in record["days"][0]  # timing excluded from the canonical record
