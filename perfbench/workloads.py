"""The three seeded workloads: set-up, daily schedule and ground-truth ledger.

A workload is a population (scheme, credentials, table sizing, preloaded
revocation backlog) plus a daily schedule of operations. Every choice in a
schedule is drawn from a ``random.Random`` keyed by the seed, and every byte
of key material from a ``CounterRng`` keyed by the seed, so one seed always
gives the same operations, the same verdicts and the same byte counts. The
number of days, not a clock, fixes the length of a run.

The schedules pick presented credentials so that every timed operation class
has one cost mode, or the reported quantile sits well inside one:

* ``pairing-check`` presents only credentials whose revocation slot holds
  exactly one entry, so every check runs exactly one ``decap`` in its scan
  (a bw2 check costs about 370, 570 or 800 ms for 0, 1 or 2 entries).
* ``large-table-http`` presents today only credentials from one "hot"
  check-table segment per day, in epochs that each start right after a
  publish: one cold check (table and segment parse), then warm checks (no
  parse), then past-day checks (two table parses). The shares are fixed by
  the schedule, not left to chance.
* ``revoke-churn`` follows every revoke+publish with one check, so every
  check parses a freshly published table.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

from revoca import actors, ahibe, service
from revoca.primitives import (
    compute_check_digest,
    derive_day_token,
    generate_signing_key,
    hkdf_sha256,
    index_from_ciphertext,
    signing_public_key,
)
from revoca.sim import CounterRng
from revoca.tables import REVOCATION_STATUSES, RevocationDocument, TableParams, segment_for_digest

ISSUER_ID = "bench-issuer"
EXPIRY_DAY = 10_000
EXPECTED_CODE = {
    "random-token": "check-digest-not-found",
    "other-vc-token": "check-digest-not-found",
    "other-day-key": "key-probe-failed",
    "other-holder-key": "key-probe-failed",
}
FORGERY_KINDS = tuple(EXPECTED_CODE)


class ScheduleError(RuntimeError):
    """The seeded population cannot supply the checks a day needs."""


@dataclass(frozen=True)
class Spec:
    name: str
    scheme: str
    holders: int
    vcs_per_holder: int
    params: TableParams
    backlog: int
    http: bool
    seconds_per_day: float  # sets days per run: --seconds / seconds_per_day, rounded down

    def days(self, seconds: int) -> int:
        return max(1, int(seconds // self.seconds_per_day))

    def cost_mode(self, check_class: tuple) -> tuple:
        """The part of a check class that sets its cost mode. Under bw2 a
        scanned entry costs a ~210 ms decap and a cache miss under 1 ms at
        pairing-check's table size; under the test scheme a scanned entry
        costs ~20 us and every parse of a large snapshot (a table-cache or a
        segment-cache miss) costs tens of ms."""
        features = dict(check_class)
        if self.scheme == "standard":
            return (("days", features["days"]), ("scanned", features["scanned"]))
        return (("parses", features["table-miss"] + features["segment-miss"]),)


@dataclass
class Samples:
    """What a pass measured: timings, exact byte counts and the outcome."""

    check_ms: list = field(default_factory=list)
    check_class: list = field(default_factory=list)
    check_traced: list = field(default_factory=list)
    present_ms: list = field(default_factory=list)
    revoke_visible_ms: list = field(default_factory=list)
    rollover_ms: float = 0.0
    rollover_document_ms: list = field(default_factory=list)
    rollover_documents: int = 0
    segment_bytes: int = 0
    table_bytes: int = 0
    presentation_bytes: int = 0
    presentations: int = 0
    attempted: int = 0
    failed: int = 0
    false_verdicts: int = 0
    failures: list = field(default_factory=list)

    def fail(self, what: str, false_verdict: bool = False) -> None:
        self.failed += 1
        self.false_verdicts += int(false_verdict)
        if len(self.failures) < 20:
            self.failures.append(what)


def _ms(t0: float, t1: float) -> float:
    return (t1 - t0) * 1e3


def _per_document_ms(t0: float, inserts: list, t1: float, documents: int) -> list:
    """Split a rollover into one time per re-encrypted document: the gaps
    between successive revocation-table insert returns, the first from the
    rollover's start and the last stretched to its end. A rollover that does
    not insert once per document (one that builds its table in one go, as
    the planned linear table builds will) is split evenly instead."""
    if documents == 0:
        return []
    if len(inserts) != documents:
        return [_ms(t0, t1) / documents] * documents
    marks = [t0] + inserts[:-1] + [t1]
    return [_ms(a, b) for a, b in zip(marks, marks[1:])]


class World:
    """One workload's population with all four roles in this process."""

    def __init__(self, spec: Spec, seed: int, workdir, recorder):
        self.spec = spec
        self.recorder = recorder
        self.samples = Samples()
        key = f"perfbench/{spec.name}/{seed}".encode()
        self.crypto = CounterRng(hkdf_sha256(key, b"crypto", 32))
        self.verifier_rng = CounterRng(hkdf_sha256(key, b"verifier", 32))
        self.schedule = random.Random(hkdf_sha256(key, b"schedule", 32))
        self.params = spec.params
        self.revoked: dict = {}  # vc id -> (day, document): the ground truth
        self.published: dict = {}  # day -> last published revocation snapshot
        self._slots: dict = {}  # (vc id, day) -> revocation-table slot
        self.memo: dict = {}  # a schedule's own state, carried across days
        self.server = None
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=workdir)
        try:
            self._populate()
        except BaseException:
            self.close()
            raise

    def _populate(self) -> None:
        spec, crypto = self.spec, self.crypto
        mpp, msk = ahibe.setup(spec.scheme, crypto)
        self.mpp = mpp
        self.issuer = actors.issuer_init(self.params, day=0, mpp=mpp, issuer_id=ISSUER_ID, rng=crypto)
        self.store = service.PublicationStore(self.store_dir)
        params_document = service.make_params_document(
            mpp, self.params, epoch=0, granularity_seconds=86400,
            issuer_id=ISSUER_ID, signing_key=self.issuer.signing_key,
        )
        self.store.write_params(params_document)
        self.trust = actors.TrustStore({ISSUER_ID: self.issuer.public_key})
        self.wallet = actors.Wallet()
        self.holder_keys = {}
        self.vc_ids = []
        for h in range(spec.holders):
            root = f"holder-{h:05d}"
            self.holder_keys[root] = ahibe.extract(msk, root, crypto)
            for _ in range(spec.vcs_per_holder):
                pop_key = generate_signing_key(crypto)
                credential, seed = actors.issuer_issue(
                    self.issuer, root, {"subject": root}, EXPIRY_DAY, signing_public_key(pop_key)
                )
                actors.holder_store(
                    self.wallet, credential, seed, self.holder_keys[root], pop_key, self.issuer.public_key
                )
                self.vc_ids.append(credential.vc_id)
        self.unrevoked = list(self.vc_ids)
        for _ in range(spec.backlog):
            vc_id = self._draw_unrevoked()
            document = self._document(vc_id, 0)
            actors.issuer_revoke(self.issuer, vc_id, document, 0)
            self.revoked[vc_id] = (0, document)
        self._publish()
        if spec.http:
            self.server, base_url = service.serve_in_thread(self.store_dir)
            transport = service.HttpTransport(base_url)
        else:
            transport = service.InProcessTransport(self.store)
        self.client = service.TableClient(transport)
        self.client.prime_params(params_document)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.server = None
        shutil.rmtree(self.store_dir, ignore_errors=True)

    # schedule helpers (never timed)

    def _document(self, vc_id: bytes, day: int) -> RevocationDocument:
        return RevocationDocument(
            vc_id=vc_id, status=self.schedule.choice(REVOCATION_STATUSES),
            reason="benchmark", effective_from=day, sequence=0,
        )

    def _draw_unrevoked(self) -> bytes:
        if not self.unrevoked:
            raise ScheduleError("every credential is revoked; use fewer --seconds")
        i = self.schedule.randrange(len(self.unrevoked))
        self.unrevoked[i], self.unrevoked[-1] = self.unrevoked[-1], self.unrevoked[i]
        return self.unrevoked.pop()

    def _publish(self) -> None:
        actors.issuer_publish(self.issuer, self.store)
        self.published[self.issuer.current_day] = self.issuer.revocation

    def _digest(self, vc_id: bytes, day: int) -> bytes:
        record = self.wallet.records[vc_id]
        token = derive_day_token(record.seed, day - record.credential.issued_day)
        return compute_check_digest(token, vc_id)

    def segment(self, vc_id: bytes, day: int) -> int:
        return segment_for_digest(self._digest(vc_id, day), self.params)

    def slot(self, vc_id: bytes, day: int) -> int:
        """The revocation-table slot a check of `vc_id` on `day` scans."""
        key = (vc_id, day)
        if key not in self._slots:
            root = self.wallet.records[vc_id].credential.root
            header, _ = ahibe.det_encap(self.mpp, ahibe.IdentityPath(root, day), self._digest(vc_id, day))
            self._slots[key] = index_from_ciphertext(header.canonical_bytes(), self.params.d)
        return self._slots[key]

    def expected(self, vc_id: bytes, day: int) -> tuple:
        entry = self.revoked.get(vc_id)
        return (entry[1],) if entry is not None and entry[0] <= day else ()

    def freeze_heap(self) -> None:
        """Move everything alive now out of the cyclic collector's reach.

        All four roles share this process, so without this a collection
        triggered inside one verifier check would walk the issuer registry
        and every wallet, work a verifier process never does.
        """
        gc.collect()
        gc.freeze()

    # timed operations

    def _op(self, kind: str):
        self.samples.attempted += 1
        self.recorder.begin(kind)

    def rollover(self, day: int) -> None:
        documents = sum(1 for revoked_day, _ in self.revoked.values() if revoked_day < day)
        inserts = self.recorder.returns["tables.insert"]
        del inserts[:]
        self._op("rollover")
        try:
            t0 = time.perf_counter()
            actors.issuer_rollover(self.issuer, day)
            t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001 - counted, reported, run continues
            self.samples.fail(f"rollover day {day}: {exc!r}")
        else:
            self.samples.rollover_ms += _ms(t0, t1)
            self.samples.rollover_documents += documents
            self.samples.rollover_document_ms += _per_document_ms(t0, inserts, t1, documents)
        finally:
            self.recorder.end()
        self._op("publish")
        try:
            self._publish()
        except Exception as exc:  # noqa: BLE001
            self.samples.fail(f"publish day {day}: {exc!r}")
        finally:
            self.recorder.end()

    def revoke_visible(self, day: int, vc_id: bytes) -> None:
        """Same-day revocation: revoke, then publish so verifiers can fetch it."""
        document = self._document(vc_id, day)
        self._op("revoke")
        try:
            t0 = time.perf_counter()
            actors.issuer_revoke(self.issuer, vc_id, document, day)
            actors.issuer_publish(self.issuer, self.store)
            t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001
            self.samples.fail(f"revoke+publish day {day}: {exc!r}")
        else:
            self.samples.revoke_visible_ms.append(_ms(t0, t1))
            self.revoked[vc_id] = (day, document)
            self.published[day] = self.issuer.revocation
        finally:
            self.recorder.end()

    def present(self, vc_id: bytes, days: list):
        nonce = self.crypto(actors.NONCE_LEN)
        self._op("present")
        try:
            t0 = time.perf_counter()
            presentation = actors.holder_present(self.wallet, vc_id, days, nonce, rng=self.crypto)
            t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001
            self.samples.fail(f"present: {exc!r}")
            return None
        finally:
            self.recorder.end()
        self.samples.present_ms.append(_ms(t0, t1))
        return presentation

    def _verify(self, presentation, today: int):
        # probe_key draws fresh randomness; a seeded stream keeps per-check counts exact
        return actors.verifier_check(presentation, self.trust, self.client, current_day=today, rng=self.verifier_rng)

    def check(self, vc_id: bytes, days: list, today: int) -> None:
        """Present and check honestly; the verdict must match the ledger."""
        presentation = self.present(vc_id, days)
        if presentation is None:
            return
        self._op("check")
        traced = self.recorder.traced
        try:
            t0 = time.perf_counter()
            result = self._verify(presentation, today)
            t1 = time.perf_counter()
        except Exception as exc:  # noqa: BLE001
            self.recorder.end()
            self.samples.fail(f"honest check day {today}: {exc!r}")
            return
        parses = self.recorder.end()
        expected = {day: self.expected(vc_id, day) for day in days}
        if result.statuses != expected:
            self.samples.fail(f"false verdict day {today}: got {result.statuses}, ledger {expected}", True)
            return
        samples = self.samples
        samples.check_ms.append(_ms(t0, t1))
        samples.check_traced.append(traced)
        samples.segment_bytes += result.segment_bytes
        samples.table_bytes += result.table_bytes
        samples.presentation_bytes += len(presentation.to_bytes())
        samples.presentations += 1
        self.recorder.begin("prep")
        scanned = sum(len(self.published[day].buckets[self.slot(vc_id, day)]) for day in days)
        self.recorder.end()
        samples.check_class.append((
            ("days", len(days)),
            ("scanned", scanned),
            ("table-miss", parses.get("service.table_parses", 0)),
            ("segment-miss", parses.get("service.check_table_parses", 0)),
        ))

    def forged_check(self, vc_id: bytes, today: int, kind: str) -> None:
        """A forged presentation must be rejected with the kind's code."""
        presentation = self.present(vc_id, [today])
        if presentation is None:
            return
        self.recorder.begin("prep")
        presentation = self._forge(presentation, kind, today)
        self.recorder.end()
        self._op("forged")
        try:
            self._verify(presentation, today)
        except actors.VerificationError as exc:
            if exc.code != EXPECTED_CODE[kind]:
                self.samples.fail(f"{kind} forgery rejected as {exc.code}", True)
        except Exception as exc:  # noqa: BLE001
            self.samples.fail(f"{kind} forgery: {exc!r}")
        else:
            self.samples.fail(f"{kind} forgery accepted", True)
        finally:
            self.recorder.end()

    def _forge(self, presentation, kind: str, today: int):
        auth = presentation.authorizations[0]
        record = self.wallet.records[presentation.credential.vc_id]
        if kind == "random-token":
            forged = replace(auth, day_token=self.crypto(32))
        elif kind == "other-vc-token":
            n, i = len(self.vc_ids), self.vc_ids.index(record.credential.vc_id)
            other = self.wallet.records[self.vc_ids[(i + 1 + self.schedule.randrange(n - 1)) % n]]
            token = derive_day_token(other.seed, today - other.credential.issued_day)
            forged = replace(auth, day_token=token)
        elif kind == "other-day-key":
            forged = replace(auth, day_key=ahibe.delegate(record.holder_key, today + 1, self.crypto))
        else:
            roots = sorted(self.holder_keys)
            other_root = roots[(roots.index(record.credential.root) + 1) % len(roots)]
            forged = replace(auth, day_key=ahibe.delegate(self.holder_keys[other_root], today, self.crypto))
        return replace(presentation, authorizations=(forged,) + presentation.authorizations[1:])


# daily schedules


_PAIRING_REVOKES = 12


def pairing_check_day(world: World, day: int) -> None:
    """Rollover, twelve single-entry-slot checks (one in three a revoked hit,
    the rest slot collisions) with two key forgeries, twelve same-day
    revocations."""
    world.rollover(day)
    world.freeze_heap()
    world.recorder.begin("prep")
    hits, collisions = [], []
    order = list(world.vc_ids)
    world.schedule.shuffle(order)
    for vc_id in order:
        if len(world.issuer.revocation.buckets[world.slot(vc_id, day)]) != 1:
            continue
        (hits if world.expected(vc_id, day) else collisions).append(vc_id)
        if len(hits) >= 2 and len(collisions) >= 4:
            break
    world.recorder.end()
    if not hits and not collisions:
        raise ScheduleError(f"day {day}: no credential has a single-entry slot")
    for i in range(12):
        pool = hits if (i % 3 == 0 and hits) or not collisions else collisions
        vc_id = pool[i % len(pool)]
        world.check(vc_id, [day], day)
        if i == 3:
            world.forged_check(vc_id, day, "other-day-key")
        elif i == 9:
            world.forged_check(vc_id, day, "other-holder-key")
    for _ in range(_PAIRING_REVOKES):
        world.revoke_visible(day, world._draw_unrevoked())


_EPOCHS, _WARM, _PAST, _REVOKES = 4, 12, 2, 3


def large_table_http_day(world: World, day: int) -> None:
    """Rollover, then four publish epochs of one cold, twelve warm and two
    past-day checks plus one forgery each; every epoch ends with three
    same-day revoke+publish operations."""
    world.rollover(day)
    world.freeze_heap()
    world.recorder.begin("prep")
    # the hot segment of each day, and each credential's segment on it
    hot, segments = world.memo.setdefault("hot", {}), world.memo.setdefault("segments", {})
    for d in (day - 1, day):
        if d not in segments:
            segments[d] = {vc_id: world.segment(vc_id, d) for vc_id in world.vc_ids}
            hot[d] = segments[d][world.vc_ids[world.schedule.randrange(len(world.vc_ids))]]
    segments.pop(day - 2, None)
    today_pool = [vc for vc in world.vc_ids if segments[day][vc] == hot[day]]
    past_pool = [vc for vc in today_pool if segments[day - 1][vc] == hot[day - 1]]
    world.recorder.end()
    if not past_pool:
        raise ScheduleError(f"day {day}: no credential sits in both hot segments")
    for epoch in range(_EPOCHS):
        for _ in range(1 + _WARM):
            world.check(world.schedule.choice(today_pool), [day], day)
        for _ in range(_PAST):
            world.check(world.schedule.choice(past_pool), [day - 1, day], day)
        kind = FORGERY_KINDS[(day * _EPOCHS + epoch) % len(FORGERY_KINDS)]
        world.forged_check(world.schedule.choice(today_pool), day, kind)
        for _ in range(_REVOKES):
            candidates = [vc for vc in today_pool if vc not in world.revoked]
            vc_id = world.schedule.choice(candidates)
            world.unrevoked.remove(vc_id)
            world.revoke_visible(day, vc_id)


def revoke_churn_day(world: World, day: int) -> None:
    """Rollover of the whole backlog, then twelve revoke+publish operations,
    each followed by one check that parses the fresh table."""
    world.rollover(day)
    world.freeze_heap()
    for _ in range(12):
        world.revoke_visible(day, world._draw_unrevoked())
        world.check(world.vc_ids[world.schedule.randrange(len(world.vc_ids))], [day], day)


SPECS = {
    spec.name: (spec, schedule)
    for spec, schedule in (
        (Spec("pairing-check", "standard", holders=8, vcs_per_holder=8,
              params=TableParams(d=24, c=16, sigma=2, min_anonymity=1),
              backlog=6, http=False, seconds_per_day=10.0), pairing_check_day),
        (Spec("large-table-http", "test", holders=2500, vcs_per_holder=4,
              params=TableParams(d=4096, c=4096, sigma=16),
              backlog=1000, http=True, seconds_per_day=6.0), large_table_http_day),
        (Spec("revoke-churn", "test", holders=750, vcs_per_holder=4,
              params=TableParams(d=65536, c=1024, sigma=8),
              backlog=2000, http=False, seconds_per_day=10.0), revoke_churn_day),
    )
}


def run_days(world: World, schedule, days: int) -> None:
    for day in range(1, days + 1):
        schedule(world, day)
