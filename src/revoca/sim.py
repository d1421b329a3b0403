"""Reproducible multi-day scenario simulator with bandwidth accounting.

The simulator owns the clock: days advance by explicit rollover, never by
wall time. Two independent deterministic streams are derived from the
config seed: a schedule stream (who gets issued, revoked, presented, forged)
and a crypto stream (all key material and nonces). Verdicts depend only on
the schedule stream, so the same config produces identical verdict counts
under the transparent and the public-key scheme.

Every verdict is compared against the simulator's own ground-truth ledger;
honest scenarios must show zero false positives and zero false negatives,
and forged presentations must be rejected with the expected error class.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from . import actors, ahibe, service
from .encoding import canonical_encode
from .primitives import derive_day_token, generate_signing_key, hkdf_sha256, signing_public_key
from .tables import REVOCATION_STATUSES, RevocationDocument, TableParams

_FORGERY_KINDS = ("random-token", "other-vc-token", "other-day-key", "other-holder-key")
_EXPECTED_REJECTION = {
    "random-token": "check-digest-not-found",
    "other-vc-token": "check-digest-not-found",
    "other-day-key": "key-probe-failed",
    "other-holder-key": "key-probe-failed",
}


class CounterRng:
    """SHA-256 counter-mode byte stream; deterministic under a fixed key."""

    def __init__(self, key: bytes):
        self._key = key
        self._counter = 0

    def __call__(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            out += hashlib.sha256(self._key + self._counter.to_bytes(8, "big")).digest()
            self._counter += 1
        return bytes(out[:n])


@dataclass(frozen=True)
class ScenarioConfig:
    holders: int
    vcs_per_holder: int
    days: int
    daily_revocation_rate: float
    presentations_per_day: int
    past_auth_probability: float = 0.0
    future_auth_probability: float = 0.0
    forgery_rate: float = 0.0
    rng_seed: int = 0
    d: int = 1024
    c: int = 1024
    sigma: int = 16
    min_anonymity: int = 1
    scheme: str = "test"
    retention_days: int = 30

    def __post_init__(self):
        if self.holders < 1 or self.vcs_per_holder < 1 or self.days < 1:
            raise ValueError("population and horizon must be positive")
        if self.presentations_per_day < 0:
            raise ValueError("presentations per day must be non-negative")
        for name in ("daily_revocation_rate", "past_auth_probability", "future_auth_probability", "forgery_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.scheme not in ("test", "standard"):
            raise ValueError("scheme must be 'test' or 'standard'")
        if not 0 <= self.rng_seed < 2**64:
            raise ValueError("rng_seed must be a 64-bit integer")

    def table_params(self) -> TableParams:
        return TableParams(d=self.d, c=self.c, sigma=self.sigma, min_anonymity=self.min_anonymity)

    def to_record(self) -> dict:
        return {
            "holders": self.holders,
            "vcs_per_holder": self.vcs_per_holder,
            "days": self.days,
            "daily_revocation_rate_ppm": round(self.daily_revocation_rate * 10**6),
            "presentations_per_day": self.presentations_per_day,
            "past_auth_probability_ppm": round(self.past_auth_probability * 10**6),
            "future_auth_probability_ppm": round(self.future_auth_probability * 10**6),
            "forgery_rate_ppm": round(self.forgery_rate * 10**6),
            "rng_seed": self.rng_seed,
            "d": self.d,
            "c": self.c,
            "sigma": self.sigma,
            "min_anonymity": self.min_anonymity,
            "scheme": self.scheme,
            "retention_days": self.retention_days,
        }


@dataclass
class DayStats:
    day: int
    presentations: int = 0
    revocations_published: int = 0
    table_entries: int = 0
    max_overflow: int = 0
    rebuild_ms: float = 0.0  # console only, excluded from the canonical record

    def to_record(self) -> dict:
        return {
            "day": self.day,
            "presentations": self.presentations,
            "revocations_published": self.revocations_published,
            "table_entries": self.table_entries,
            "max_overflow": self.max_overflow,
        }


@dataclass
class ScenarioReport:
    config: ScenarioConfig
    days: List[DayStats] = field(default_factory=list)
    presentations_checked: int = 0
    day_verdicts: int = 0
    true_positives: int = 0
    false_positives: int = 0
    true_negatives: int = 0
    false_negatives: int = 0
    deferred_resolved: int = 0
    rejections: Dict[str, int] = field(default_factory=dict)
    misclassified_rejections: int = 0
    forged_accepted: int = 0
    segment_bytes_total: int = 0
    table_bytes_total: int = 0
    holder_bytes_total: int = 0
    holder_bytes_min: int = 0
    holder_bytes_max: int = 0
    check_table_bytes_last_day: int = 0
    total_rebuild_ms: float = 0.0  # console only

    def to_record(self) -> dict:
        return {
            "version": "1",
            "config": self.config.to_record(),
            "days": [d.to_record() for d in self.days],
            "presentations_checked": self.presentations_checked,
            "day_verdicts": self.day_verdicts,
            "true_positives": self.true_positives,
            "false_positives": self.false_positives,
            "true_negatives": self.true_negatives,
            "false_negatives": self.false_negatives,
            "deferred_resolved": self.deferred_resolved,
            "rejections": dict(sorted(self.rejections.items())),
            "misclassified_rejections": self.misclassified_rejections,
            "forged_accepted": self.forged_accepted,
            "segment_bytes_total": self.segment_bytes_total,
            "table_bytes_total": self.table_bytes_total,
            "holder_bytes_total": self.holder_bytes_total,
            "holder_bytes_min": self.holder_bytes_min,
            "holder_bytes_max": self.holder_bytes_max,
            "check_table_bytes_last_day": self.check_table_bytes_last_day,
        }

    def to_bytes(self) -> bytes:
        return canonical_encode(self.to_record())

    def render_text(self) -> str:
        checked = max(self.presentations_checked, 1)
        lines = [
            f"{'day':>4} {'checks':>7} {'revoked':>8} {'entries':>8} {'mean-ovfl':>10} {'max-ovfl':>9} {'rebuild-ms':>11}",
        ]
        for d in self.days:
            lines.append(
                f"{d.day:>4} {d.presentations:>7} {d.revocations_published:>8}"
                f" {d.table_entries:>8} {d.table_entries / self.config.d:>10.3f}"
                f" {d.max_overflow:>9} {d.rebuild_ms:>11.1f}"
            )
        lines += [
            "",
            f"presentations checked   {self.presentations_checked}",
            f"day verdicts            {self.day_verdicts}"
            f"  (tp={self.true_positives} fp={self.false_positives}"
            f" tn={self.true_negatives} fn={self.false_negatives})",
            f"deferred then resolved  {self.deferred_resolved}",
            f"rejections              {dict(sorted(self.rejections.items()))}"
            f"  misclassified={self.misclassified_rejections} forged-accepted={self.forged_accepted}",
            f"verifier bytes          segment total={self.segment_bytes_total}"
            f" mean={self.segment_bytes_total / checked:.1f}"
            f" | table total={self.table_bytes_total} mean={self.table_bytes_total / checked:.1f}",
            f"holder bytes/presentation  min={self.holder_bytes_min}"
            f" max={self.holder_bytes_max} mean={self.holder_bytes_total / checked:.1f}",
            f"full check table (last day)  {self.check_table_bytes_last_day} bytes",
            f"total rebuild time      {self.total_rebuild_ms:.1f} ms",
        ]
        return "\n".join(lines)


@dataclass
class _Deferred:
    presentation: actors.Presentation
    ready_day: int
    vc_index: int


def run_scenario(config: ScenarioConfig, state_dir: Optional[str] = None) -> ScenarioReport:
    """Drive the full population through `config.days` rollovers in-process."""
    schedule = random.Random(int.from_bytes(hkdf_sha256(config.rng_seed.to_bytes(8, "big"), b"revoca/sim/schedule", 16), "big"))
    crypto = CounterRng(hkdf_sha256(config.rng_seed.to_bytes(8, "big"), b"revoca/sim/crypto", 32))
    params = config.table_params()
    report = ScenarioReport(config=config)

    with tempfile.TemporaryDirectory() as tmp:
        store = service.PublicationStore(state_dir or tmp)
        mpp, msk = ahibe.setup(config.scheme, crypto)
        issuer = actors.issuer_init(params, day=0, mpp=mpp, issuer_id="sim-issuer", rng=crypto)
        doc = service.make_params_document(mpp, params, epoch=0, granularity_seconds=86400, issuer_id="sim-issuer", signing_key=issuer.signing_key)
        store.write_params(doc)
        trust = actors.TrustStore({"sim-issuer": issuer.public_key})

        wallet = actors.Wallet()
        holder_keys = {}
        vc_ids = []
        vc_roots = []
        expiry = config.days + 30
        for h in range(config.holders):
            root = f"h-{h:05d}"
            holder_keys[root] = ahibe.extract(msk, root, crypto)
            for _ in range(config.vcs_per_holder):
                pop_sk = generate_signing_key(crypto)
                credential, seed = actors.issuer_issue(
                    issuer, root, {"subject": root}, expiry, signing_public_key(pop_sk)
                )
                actors.holder_store(wallet, credential, seed, holder_keys[root], pop_sk, issuer.public_key)
                vc_ids.append(credential.vc_id)
                vc_roots.append(root)

        revoked_on: Dict[bytes, int] = {}
        sequences: Dict[bytes, int] = {}
        client = service.TableClient(service.InProcessTransport(store))
        client.prime_params(doc)  # per-check fetches stay exactly segment+table
        deferred: List[_Deferred] = []

        def ground_truth(vc_id: bytes, day: int) -> bool:
            published = revoked_on.get(vc_id)
            return published is not None and published <= day

        def tally(presentation: actors.Presentation, result: actors.StatusResult, vc_id: bytes):
            report.presentations_checked += 1
            report.segment_bytes_total += result.segment_bytes
            report.table_bytes_total += result.table_bytes
            for day, docs in result.statuses.items():
                report.day_verdicts += 1
                expected = ground_truth(vc_id, day)
                actual = bool(docs)
                if expected and actual:
                    report.true_positives += 1
                elif expected and not actual:
                    report.false_negatives += 1
                elif not expected and actual:
                    report.false_positives += 1
                else:
                    report.true_negatives += 1

        for day in range(config.days):
            stats = DayStats(day=day)
            if day > 0:
                t0 = time.perf_counter()
                actors.issuer_rollover(issuer, day)
                stats.rebuild_ms = (time.perf_counter() - t0) * 1000.0
                report.total_rebuild_ms += stats.rebuild_ms

            for index, vc_id in enumerate(vc_ids):
                if vc_id in revoked_on:
                    continue
                if schedule.random() < config.daily_revocation_rate:
                    sequence = sequences.get(vc_id, 0)
                    document = RevocationDocument(
                        vc_id=vc_id,
                        status=schedule.choice(REVOCATION_STATUSES),
                        reason="simulated",
                        effective_from=day,
                        sequence=sequence,
                    )
                    actors.issuer_revoke(issuer, vc_id, document, day)
                    sequences[vc_id] = sequence + 1
                    revoked_on[vc_id] = day
                    stats.revocations_published += 1
            actors.issuer_publish(issuer, store)
            store.prune(day, config.retention_days)

            still_deferred = []
            for item in deferred:
                if item.ready_day > day:
                    still_deferred.append(item)
                    continue
                result = actors.verifier_check(item.presentation, trust, client, current_day=day)
                tally(item.presentation, result, vc_ids[item.vc_index])
                report.deferred_resolved += 1
            deferred = still_deferred

            for _ in range(config.presentations_per_day):
                vc_index = schedule.randrange(len(vc_ids))
                vc_id = vc_ids[vc_index]
                auth_days = [day]
                if day > 0 and schedule.random() < config.past_auth_probability:
                    auth_days.append(schedule.randrange(0, day))
                if day < config.days - 1 and schedule.random() < config.future_auth_probability:
                    auth_days.append(schedule.randrange(day + 1, config.days))
                forgery = None
                if config.forgery_rate > 0.0 and schedule.random() < config.forgery_rate:
                    forgery = schedule.choice(_FORGERY_KINDS)
                    # a genuine token for the presented credential is no forgery
                    other_index = (vc_index + 1 + schedule.randrange(len(vc_ids) - 1)) % len(vc_ids) if len(vc_ids) > 1 else vc_index
                nonce = crypto(16)
                presentation = actors.holder_present(wallet, vc_id, auth_days, nonce, rng=crypto)
                raw = presentation.to_bytes()
                report.holder_bytes_total += len(raw)
                report.holder_bytes_min = min(report.holder_bytes_min or len(raw), len(raw))
                report.holder_bytes_max = max(report.holder_bytes_max, len(raw))
                stats.presentations += 1

                if forgery is not None:
                    presentation = _forge(presentation, forgery, wallet, holder_keys, vc_ids, vc_roots, other_index, day, crypto)
                    try:
                        actors.verifier_check(presentation, trust, client, current_day=day)
                    except actors.VerificationError as exc:
                        report.rejections[exc.code] = report.rejections.get(exc.code, 0) + 1
                        if exc.code != _EXPECTED_REJECTION[forgery]:
                            report.misclassified_rejections += 1
                    else:
                        report.forged_accepted += 1
                    continue

                try:
                    result = actors.verifier_check(presentation, trust, client, current_day=day)
                except actors.DeferredFutureDay:
                    deferred.append(_Deferred(presentation=presentation, ready_day=max(auth_days), vc_index=vc_index))
                    continue
                tally(presentation, result, vc_id)

            lengths = [len(bucket) for bucket in issuer.revocation.buckets]
            stats.table_entries, stats.max_overflow = sum(lengths), max(lengths)
            report.days.append(stats)

        report.check_table_bytes_last_day = len(store.check_bytes(config.days - 1))
    return report


def _forge(presentation, kind, wallet, holder_keys, vc_ids, vc_roots, other_index, day, crypto):
    """Tamper with the first authorization in one of the four adversarial ways."""
    auth = presentation.authorizations[0]
    if kind == "random-token":
        forged = replace(auth, day_token=crypto(32))
    elif kind == "other-vc-token":
        other = wallet.records[vc_ids[other_index]]
        token = derive_day_token(other.seed, day - other.credential.issued_day)
        forged = replace(auth, day_token=token)
    elif kind == "other-day-key":
        record = wallet.records[presentation.credential.vc_id]
        forged = replace(auth, day_key=ahibe.delegate(record.holder_key, day + 1, crypto))
    else:  # other-holder-key
        roots = sorted(set(vc_roots))
        other_root = roots[(roots.index(presentation.credential.root) + 1) % len(roots)]
        forged = replace(auth, day_key=ahibe.delegate(holder_keys[other_root], day, crypto))
    return replace(presentation, authorizations=(forged,) + presentation.authorizations[1:])
