"""Spans and counters hooked onto revoca's layer boundaries from outside.

Each hook replaces one module or class attribute for the length of a pass and
puts the original back afterwards, so nothing under ``src/`` knows it is
being traced. A hook sits in the namespace the *caller* looks the name up
in (``revoca.ahibe.pairing_scheme.g1_mul``, not ``revoca.pairing.g1_mul``),
so a span measures calls that cross into a layer, not calls inside it.

Two kinds of hook:

* a span records (id, name, start, end, parent id, operation id). The
  operation id is shared by every span of one benchmark operation (one
  check, one publish, ...). Parents follow the calling thread's stack;
  spans on the HTTP server thread have no parent but carry the operation
  id of the request that caused them.
* a counter only adds to a running total. Field operations (fq12 mul/sqr,
  fq2 inversion) are counted, never timed: a timing wrapper costs more
  than the call it wraps.

Counters are charged to the operation that was open when they moved; spans
are kept in memory and written out when the pass ends.

A traced pass runs every second honest check untraced (operation kind
``check-untraced``): its calls still pass through the hooks, which then
record nothing. Tracing overhead is measured on these interleaved checks of
one pass rather than across two passes; it is the cost of recording, not of
the hooks' extra call frames.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# Operation kinds whose spans count towards per-call means. "setup" and
# "prep" (schedule preparation: slot and segment look-ups, forging) are
# recorded but left out.
MEASURED_KINDS = ("check", "forged", "present", "revoke", "publish", "rollover")


class HookError(RuntimeError):
    """A declared hook point no longer exists in the program."""


class Recorder:
    """Per-operation accounting for one pass of a workload."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.op_kinds: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._cells: dict = {}
        self._mark: dict = {}
        self.returns: dict = {}  # name -> return times of calls to a hook from mark_returns
        self.kind_counts = defaultdict(lambda: defaultdict(int))
        self._patches: list = []
        self._checks = 0
        self.spans_installed = False
        self.traced = False  # whether span hooks record now; counters from count(always=True) always do

    # operations

    def begin(self, kind: str) -> None:
        if kind == "check" and self.spans_installed:
            self._checks += 1
            if self._checks % 2 == 0:  # odd checks, the pass's first cache miss among them, stay traced
                kind, self.traced = "check-untraced", False
        self.op = len(self.op_kinds)
        self.op_kinds.append(kind)
        self._mark = {name: cell[0] for name, cell in self._cells.items()}

    def end(self) -> dict:
        """Close the current operation; returns its counter deltas."""
        kind = self.op_kinds[self.op]
        self.traced = self.spans_installed
        deltas = {}
        for name, cell in self._cells.items():
            delta = cell[0] - self._mark.get(name, 0)
            if delta:
                deltas[name] = delta
                self.kind_counts[kind][name] += delta
        self.op = -1
        return deltas

    # hooks

    def _cell(self, name: str) -> list:
        return self._cells.setdefault(name, [0])

    def _patch(self, target: str, attr: str, make) -> None:
        module_name, _, class_name = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError) as exc:
            raise HookError(f"hook point {target}.{attr} is missing") from exc
        is_classmethod = isinstance(original, classmethod)
        wrapped = make(original.__func__ if is_classmethod else original)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.spans_installed = self.traced = False

    def count(self, target: str, attr: str, name: str, amount=None, always=False) -> None:
        """Add 1 per call, or ``amount(args, result)`` per completed call;
        only while spans record unless ``always``."""
        cell = self._cell(name)
        recorder = self

        def make(func):
            if amount is None:
                def counted(*args, **kwargs):
                    if always or recorder.traced:
                        cell[0] += 1
                    return func(*args, **kwargs)
            else:
                def counted(*args, **kwargs):
                    result = func(*args, **kwargs)
                    if always or recorder.traced:
                        cell[0] += amount(args, result)
                    return result
            return counted

        self._patch(target, attr, make)

    def mark_returns(self, target: str, attr: str, name: str) -> None:
        """Append the clock time at which each call returns to ``returns[name]``."""
        times, clock = self.returns.setdefault(name, []), time.perf_counter

        def make(func):
            def marked(*args, **kwargs):
                result = func(*args, **kwargs)
                times.append(clock())
                return result

            return marked

        self._patch(target, attr, make)

    def span(self, target: str, attr: str, name, extra=()) -> None:
        """Record a span per call. ``name`` may be a function of the call's
        arguments; ``extra`` is a list of (counter, amount(args, result))."""
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        extra = [(self._cell(counter), amount) for counter, amount in extra]
        recorder = self

        def make(func):
            def traced(*args, **kwargs):
                if not recorder.traced:
                    return func(*args, **kwargs)
                stack = local.__dict__.setdefault("stack", [])
                span_id, parent, op = next(ids), stack[-1] if stack else -1, recorder.op
                stack.append(span_id)
                start = clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    # a tuple of atoms, which the cyclic collector stops tracking,
                    # so kept spans do not make full collections more frequent
                    spans.append((span_id, name(args) if callable(name) else name, start, end, parent, op))
                for cell, amount in extra:
                    cell[0] += amount(args, result)
                return result

            return traced

        self._patch(target, attr, make)

    def write(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent, op, op kind."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in sorted(self.spans):
                kind = self.op_kinds[op] if op >= 0 else "none"
                fh.write(json.dumps([span_id, name, start, end, parent, op, kind]) + "\n")


def _path_kind(args) -> str:
    path = args[1]
    if path.endswith("/revocation"):
        return "service.get_revocation"
    if "/check/segments/" in path:
        return "service.get_segment"
    return "service.get_other"


def _is_revocation_table(result) -> bool:
    from revoca.tables import RevocationTableSnapshot

    return isinstance(result, RevocationTableSnapshot)


def install_cache_counters(recorder: Recorder) -> None:
    """The two counts every pass needs to class its checks: whole check-table
    parses on the server (segment-cache misses) and revocation-table parses
    in the client (table-cache misses). Also the return time of every
    revocation-table insert, which splits a rollover into per-document times."""
    recorder.count("revoca.service", "read_snapshot", "service.check_table_parses", always=True)
    recorder.count(
        "revoca.service", "snapshot_from_bytes", "service.table_parses",
        amount=lambda args, result: int(_is_revocation_table(result)), always=True,
    )
    recorder.mark_returns("revoca.tables:RevocationTableSnapshot", "insert", "tables.insert")


PAIRING_SPANS = (
    "pairing.miller_loop", "pairing.final_exp", "pairing.g1_decode", "pairing.g2_decode",
    "pairing.g1_mul", "pairing.g2_mul", "pairing.gt_pow",
)
PAIRING_COUNTERS = ("pairing.fq12_mul", "pairing.fq12_sqr", "pairing.fq2_inv")
COMMON_SPANS = (
    "actors.verifier_check", "actors.holder_present", "actors.issuer_revoke", "actors.issuer_publish",
    "actors.issuer_rollover", "actors.issuer_export_day",
    "ahibe.probe_key", "ahibe.det_encap", "ahibe.encap", "ahibe.decap", "ahibe.delegate",
    "primitives.verify", "primitives.open_sealed", "primitives.seal", "primitives.day_token",
    "encoding.decode", "encoding.encode",
    "tables.segment_decode", "tables.revocation_decode", "tables.scan", "tables.insert",
    "tables.snapshot_encode", "tables.build_check",
    "service.get_segment", "service.get_revocation", "service.resolve", "service.publish_write",
)


def install_spans(recorder: Recorder) -> None:
    """Every span and counter the per-layer metrics are built from."""
    recorder.spans_installed = recorder.traced = True
    span, count = recorder.span, recorder.count

    # actors: the four roles as the benchmark calls them
    for attr in ("verifier_check", "holder_present", "issuer_revoke", "issuer_publish", "issuer_rollover"):
        span("revoca.actors", attr, f"actors.{attr}")
    span("revoca.actors.issuer", "issuer_export_day", "actors.issuer_export_day")

    # ahibe: the KEM as the roles and the tables call it
    for attr in ("probe_key", "det_encap", "encap", "decap", "delegate"):
        span("revoca.ahibe", attr, f"ahibe.{attr}")

    # pairing: the group operations as the bw2 scheme calls them
    scheme = "revoca.ahibe.pairing_scheme"
    span(scheme, "g1_from_bytes", "pairing.g1_decode")
    span(scheme, "g2_from_bytes", "pairing.g2_decode")
    span(scheme, "g1_mul", "pairing.g1_mul")
    span(scheme, "g2_mul", "pairing.g2_mul")
    span(scheme, "gt_pow", "pairing.gt_pow")
    span("revoca.pairing.pairing", "miller_loop_product", "pairing.miller_loop")
    span("revoca.pairing.pairing", "final_exponentiation", "pairing.final_exp")
    for module in ("revoca.pairing.fields", "revoca.pairing.pairing"):
        count(module, "fq12_mul", "pairing.fq12_mul")
        count(module, "fq12_sqr", "pairing.fq12_sqr")
    for module in ("revoca.pairing.fields", "revoca.pairing.pairing", "revoca.pairing.curves"):
        count(module, "fq2_inv", "pairing.fq2_inv")

    # primitives: signatures, AEAD and day tokens where the roles use them
    for module in ("revoca.actors.verifier", "revoca.actors.credentials"):
        span(module, "verify", "primitives.verify")
    for module in ("revoca.tables", "revoca.ahibe"):
        span(module, "open_sealed", "primitives.open_sealed")
    for module in ("revoca.actors.issuer", "revoca.ahibe"):
        span(module, "seal", "primitives.seal")
    for module in ("revoca.actors.issuer", "revoca.actors.holder"):
        span(module, "derive_day_token", "primitives.day_token")

    # encoding: the canonical JSON codec under the snapshot codec
    span("revoca.tables", "canonical_decode", "encoding.decode",
         extra=[("encoding.bytes_decoded", lambda args, result: len(args[0]))])
    span("revoca.tables", "canonical_encode", "encoding.encode")

    # tables
    span("revoca.tables:CheckSegment", "from_record", "tables.segment_decode")
    span("revoca.tables:RevocationTableSnapshot", "from_record", "tables.revocation_decode")
    span("revoca.tables:RevocationTableSnapshot", "scan", "tables.scan", extra=[
        ("tables.scan_entries", lambda args, result: len(args[0].buckets[args[1]])),
        ("tables.scan_documents", lambda args, result: len(result)),
    ])
    span("revoca.tables:RevocationTableSnapshot", "insert", "tables.insert")
    span("revoca.tables", "snapshot_to_bytes", "tables.snapshot_encode", extra=[
        ("tables.check_snapshot_bytes", lambda args, result: len(result) if _is_check_table(args[0]) else 0),
        ("tables.check_snapshot_encodes", lambda args, result: int(_is_check_table(args[0]))),
        ("tables.revocation_snapshot_bytes", lambda args, result: len(result) if _is_revocation_table(args[0]) else 0),
        ("tables.revocation_snapshot_encodes", lambda args, result: int(_is_revocation_table(args[0]))),
    ])
    span("revoca.actors.issuer", "build_check_table", "tables.build_check")

    # service: transport requests (client), path resolution (server), store writes
    for transport in ("InProcessTransport", "HttpTransport"):
        span(f"revoca.service:{transport}", "get", _path_kind)
    span("revoca.service", "resolve_path", "service.resolve")
    for attr in ("publish_check", "publish_revocation"):
        span("revoca.service:PublicationStore", attr, "service.publish_write")


def _is_check_table(snapshot) -> bool:
    from revoca.tables import CheckTableSnapshot

    return isinstance(snapshot, CheckTableSnapshot)


class SpanTable:
    """Aggregates of a finished pass: durations, self times and ancestry."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._by_id = {s[0]: s for s in recorder.spans}
        child_time = defaultdict(float)
        for s in recorder.spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        self._rows = defaultdict(list)  # name -> [(op kind, duration s, self s, parent id)]
        for span_id, name, start, end, parent, op in recorder.spans:
            kind = recorder.op_kinds[op] if op >= 0 else "none"
            self._rows[name].append((kind, end - start, end - start - child_time[span_id], parent))

    def _under(self, parent: int, ancestor: str) -> bool:
        while parent >= 0:
            span = self._by_id[parent]
            if span[1] == ancestor:
                return True
            parent = span[4]
        return False

    def select(self, name, kinds=MEASURED_KINDS, under=None) -> list:
        return [r for r in self._rows.get(name, ()) if r[0] in kinds and (under is None or self._under(r[3], under))]

    def calls(self, name, kinds=MEASURED_KINDS, under=None) -> int:
        return len(self.select(name, kinds, under))

    def total_s(self, name, kinds=MEASURED_KINDS, under=None) -> float:
        return sum(r[1] for r in self.select(name, kinds, under))

    def mean_s(self, name, kinds=MEASURED_KINDS) -> float:
        rows = self.select(name, kinds)
        return sum(r[1] for r in rows) / len(rows) if rows else 0.0

    def mean_self_s(self, name, kinds=MEASURED_KINDS) -> float:
        rows = self.select(name, kinds)
        return sum(r[2] for r in rows) / len(rows) if rows else 0.0

    def counter(self, name, kinds=("check",)) -> int:
        return sum(self.recorder.kind_counts[kind][name] for kind in kinds)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(table: SpanTable, overhead_ms: float) -> dict:
    """Every per-layer metric, as {name: (value, unit)}. Per-call figures are
    means over measured operations; ``*_per_*`` figures are exact counts
    divided by the number of honest checks or of publishes."""
    checks = table.recorder.op_kinds.count("check")
    publishes = table.calls("actors.issuer_publish")
    check = ("check",)
    ms = lambda name: table.mean_s(name) * 1e3  # noqa: E731
    us = lambda name: table.mean_s(name) * 1e6  # noqa: E731
    per_check = lambda name: _ratio(table.calls(name, check), checks)  # noqa: E731
    counted_per_check = lambda name: _ratio(table.counter(name), checks)  # noqa: E731
    gets = table.select("service.get_segment", check) + table.select("service.get_revocation", check)
    get_ms = _ratio(sum(r[1] for r in gets), len(gets)) * 1e3
    resolve_ms = table.mean_s("service.resolve", check) * 1e3
    snapshot_kinds = ("publish", "revoke")
    metrics = {
        "pairing.miller_loop_ms": (ms("pairing.miller_loop"), "ms"),
        "pairing.final_exp_ms": (ms("pairing.final_exp"), "ms"),
        "pairing.miller_loops_per_check": (per_check("pairing.miller_loop"), "count"),
        "pairing.final_exps_per_check": (per_check("pairing.final_exp"), "count"),
        "pairing.fq12_muls_per_check": (counted_per_check("pairing.fq12_mul"), "count"),
        "pairing.fq12_sqrs_per_check": (counted_per_check("pairing.fq12_sqr"), "count"),
        "pairing.fq2_invs_per_check": (counted_per_check("pairing.fq2_inv"), "count"),
        "pairing.g1_decode_ms": (ms("pairing.g1_decode"), "ms"),
        "pairing.g1_decodes_per_check": (per_check("pairing.g1_decode"), "count"),
        "pairing.gt_pow_ms": (ms("pairing.gt_pow"), "ms"),
        "pairing.gt_pows_per_check": (per_check("pairing.gt_pow"), "count"),
        "pairing.g1_mul_ms": (ms("pairing.g1_mul"), "ms"),
        "pairing.g2_decode_ms": (ms("pairing.g2_decode"), "ms"),
        "pairing.g2_mul_ms": (ms("pairing.g2_mul"), "ms"),
        "ahibe.probe_key_ms": (ms("ahibe.probe_key"), "ms"),
        "ahibe.det_encap_ms": (ms("ahibe.det_encap"), "ms"),
        "ahibe.decap_ms": (ms("ahibe.decap"), "ms"),
        "ahibe.decaps_per_check": (per_check("ahibe.decap"), "count"),
        "ahibe.encaps_per_check": (per_check("ahibe.encap"), "count"),
        "ahibe.encap_ms": (ms("ahibe.encap"), "ms"),
        "ahibe.delegate_ms": (ms("ahibe.delegate"), "ms"),
        "primitives.verify_us": (us("primitives.verify"), "us"),
        "primitives.open_sealed_us": (us("primitives.open_sealed"), "us"),
        "primitives.aead_opens_per_check": (per_check("primitives.open_sealed"), "count"),
        "primitives.day_token_us": (us("primitives.day_token"), "us"),
        "primitives.day_tokens_per_publish": (
            _ratio(table.calls("primitives.day_token", under="actors.issuer_publish"), publishes), "count"),
        "primitives.seal_us": (us("primitives.seal"), "us"),
        "encoding.decode_ms_per_check": (_ratio(table.total_s("encoding.decode", check), checks) * 1e3, "ms"),
        "encoding.bytes_decoded_per_check": (counted_per_check("encoding.bytes_decoded"), "B"),
        "encoding.encode_ms_per_publish": (
            _ratio(table.total_s("encoding.encode", under="actors.issuer_publish"), publishes) * 1e3, "ms"),
        "tables.segment_decode_ms": (ms("tables.segment_decode"), "ms"),
        "tables.revocation_decode_ms": (ms("tables.revocation_decode"), "ms"),
        "tables.scan_ms": (ms("tables.scan"), "ms"),
        "tables.scan_entries_per_check": (counted_per_check("tables.scan_entries"), "count"),
        "tables.scan_hit_ratio": (
            _ratio(table.counter("tables.scan_documents"), table.counter("tables.scan_entries")), "ratio"),
        "tables.insert_us": (us("tables.insert"), "us"),
        "tables.snapshot_encode_ms": (ms("tables.snapshot_encode"), "ms"),
        "tables.build_check_ms": (ms("tables.build_check"), "ms"),
        "tables.check_snapshot_bytes": (_ratio(
            table.counter("tables.check_snapshot_bytes", snapshot_kinds),
            table.counter("tables.check_snapshot_encodes", snapshot_kinds)), "B"),
        "tables.revocation_snapshot_bytes": (_ratio(
            table.counter("tables.revocation_snapshot_bytes", snapshot_kinds),
            table.counter("tables.revocation_snapshot_encodes", snapshot_kinds)), "B"),
        "service.segment_get_ms": (table.mean_s("service.get_segment", check) * 1e3, "ms"),
        "service.revocation_get_ms": (table.mean_s("service.get_revocation", check) * 1e3, "ms"),
        "service.resolve_ms": (resolve_ms, "ms"),
        "service.http_overhead_ms": (get_ms - resolve_ms, "ms"),
        "service.requests_per_check": (_ratio(len(gets), checks), "count"),
        "service.segment_parse_ratio": (
            _ratio(table.counter("service.check_table_parses"), table.calls("service.get_segment", check)), "ratio"),
        "service.table_parse_ratio": (
            _ratio(table.counter("service.table_parses"), table.calls("service.get_revocation", check)), "ratio"),
        "service.publish_write_ms": (
            _ratio(table.total_s("service.publish_write"), publishes) * 1e3, "ms"),
        "actors.check_self_ms": (table.mean_self_s("actors.verifier_check", check) * 1e3, "ms"),
        "actors.export_day_ms": (ms("actors.issuer_export_day"), "ms"),
        "trace.check_overhead_ms": (overhead_ms, "ms"),
    }
    return metrics


def missing_spans(table: SpanTable, pairing: bool) -> list:
    """Declared spans and counters the workload should exercise but did not."""
    missing = [name for name in COMMON_SPANS if not table.calls(name)]
    if pairing:
        missing += [name for name in PAIRING_SPANS if not table.calls(name)]
        missing += [name for name in PAIRING_COUNTERS if not table.counter(name)]
    return missing
