"""Operator command surface: one binary, role subcommands.

State layout under the issuer --state directory:

    issuer.state   registry and current tables (private, 0600)
    trust.store    this issuer's trust-store entry
    public/        the publication directory: params.doc + per-day snapshots
                   (what `issuer serve` exposes and verifiers consume)

Every failure prints a machine-readable JSON diagnostic on stderr and exits
with a class-specific code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import actors, ahibe, service, sim
from .encoding import canonical_decode, canonical_encode, b64u_decode, write_atomic
from .primitives import (
    AuthFailure,
    SignatureDecodeError,
    default_rng,
    generate_signing_key,
    signing_public_key,
    vc_id_from_hex,
    vc_id_hex,
)
from .tables import (
    REVOCATION_STATUSES,
    CorruptSnapshotError,
    IntegrityError,
    RevocationDocument,
    TableParams,
)

STATE_DIR_ENV = "REVOCA_STATE_DIR"

EXIT_CODES = {
    actors.BadSignature: 10,
    actors.BadProofOfPossession: 11,
    actors.KeyProbeFailed: 12,
    actors.CheckDigestNotFound: 13,
    actors.SnapshotUnavailable: 14,
    actors.DeferredFutureDay: 15,
    CorruptSnapshotError: 16,
    IntegrityError: 17,
    AuthFailure: 17,
    service.ResourceNotFound: 18,
    FileNotFoundError: 18,
}


class CliError(Exception):
    def __init__(self, message: str, code: int = 3):
        super().__init__(message)
        self.code = code


def _fail(exc: BaseException) -> int:
    code = 3 if isinstance(exc, (ValueError, CliError)) else 1
    for klass, klass_code in EXIT_CODES.items():
        if isinstance(exc, klass):
            code = klass_code
            break
    if isinstance(exc, CliError):
        code = exc.code
    name = getattr(exc, "code", type(exc).__name__)
    print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
    return code


def _state_dir(args) -> Path:
    value = getattr(args, "state", None) or os.environ.get(STATE_DIR_ENV)
    if not value:
        raise CliError(f"--state not given and {STATE_DIR_ENV} unset")
    return Path(value)


def _public_dir(state: Path) -> Path:
    return state / "public"


def _load_issuer(args):
    state_dir = _state_dir(args)
    return state_dir, actors.load_issuer_state(state_dir / "issuer.state")


def _commit(state_dir: Path, state) -> None:
    """Save `issuer.state`, then publish its day: after a failure the next
    commit publishes every revocation the saved state holds."""
    actors.save_issuer_state(state, state_dir / "issuer.state")
    actors.issuer_publish(state, service.PublicationStore(_public_dir(state_dir)))


def _table_client(args) -> service.TableClient:
    endpoint = getattr(args, "endpoint", None)
    if endpoint:
        return service.TableClient(service.HttpTransport(endpoint))
    source = getattr(args, "state_dir", None) or os.environ.get(STATE_DIR_ENV)
    if not source:
        raise CliError(f"supply --endpoint or --state-dir (or set {STATE_DIR_ENV})")
    path = Path(source)
    if (path / "public").is_dir() and not (path / service.PARAMS_FILENAME).exists():
        path = path / "public"
    return service.TableClient(service.InProcessTransport(service.PublicationStore(path)))


def _current_day(args, client: service.TableClient) -> int:
    if getattr(args, "current_day", None) is not None:
        return args.current_day
    return client.params().day_from_timestamp(int(time.time()))


# pkg


def cmd_pkg_setup(args) -> int:
    out = Path(args.out)
    mpp, msk = ahibe.setup(args.scheme, default_rng)
    write_atomic(out / "mpp.pub", canonical_encode(ahibe.to_record(mpp)))
    write_atomic(out / "msk.key", canonical_encode(ahibe.to_record(msk)), private=True)
    print(json.dumps({"scheme_id": mpp.scheme_id, "mpp": str(out / "mpp.pub"), "msk": str(out / "msk.key")}))
    return 0


def cmd_pkg_extract(args) -> int:
    msk = ahibe.from_record(ahibe.MasterSecret, canonical_decode(Path(args.msk).read_bytes()))
    holder_key = ahibe.extract(msk, args.root, default_rng)
    write_atomic(args.out, canonical_encode(ahibe.to_record(holder_key)), private=True)
    print(json.dumps({"root": args.root, "holder_key": args.out}))
    return 0


# issuer


def cmd_issuer_init(args) -> int:
    state_dir = _state_dir(args)
    params = TableParams(d=args.table_size, c=args.check_buckets, sigma=args.segments, min_anonymity=args.min_anonymity)
    mpp = ahibe.from_record(ahibe.MasterPublicParams, canonical_decode(Path(args.mpp).read_bytes()))
    state = actors.issuer_init(params, day=args.day, mpp=mpp, issuer_id=args.issuer_id)
    epoch = args.epoch if args.epoch is not None else int(time.time()) - args.day * args.granularity
    document = service.make_params_document(mpp, params, epoch, args.granularity, args.issuer_id, state.signing_key)
    service.PublicationStore(_public_dir(state_dir)).write_params(document)
    _commit(state_dir, state)
    actors.TrustStore({args.issuer_id: state.public_key}).save(state_dir / "trust.store")
    print(json.dumps({"issuer_id": args.issuer_id, "day": args.day, "public_dir": str(_public_dir(state_dir))}))
    return 0


def cmd_issuer_issue(args) -> int:
    state_dir, state = _load_issuer(args)
    claims = json.loads(args.claims)
    bundle: dict = {}
    if args.pop_public_key:
        pop_public = Path(args.pop_public_key).read_bytes()
    else:
        pop_signing = generate_signing_key(default_rng)
        pop_public = signing_public_key(pop_signing)
        bundle["pop_signing_key"] = pop_signing
    credential, seed = actors.issuer_issue(state, args.root, claims, args.expiry_day, pop_public)
    bundle.update({"credential": credential.to_record(), "seed": seed})
    _commit(state_dir, state)
    write_atomic(args.out, canonical_encode(bundle), private=True)
    print(json.dumps({"vc_id": vc_id_hex(credential.vc_id), "bundle": args.out}))
    return 0


def cmd_issuer_revoke(args) -> int:
    state_dir, state = _load_issuer(args)
    vc_id = vc_id_from_hex(args.vc_id)
    record = state.registry.get(vc_id)
    if record is None:
        raise CliError(f"unknown credential {args.vc_id}")
    sequence = record.documents[-1].document.sequence + 1 if record.documents else 0
    document = RevocationDocument(
        vc_id=vc_id,
        status=args.status,
        reason=args.reason,
        effective_from=state.current_day,
        sequence=sequence,
        constraints=json.loads(args.constraints) if args.constraints else None,
    )
    actors.issuer_revoke(state, vc_id, document, state.current_day)
    _commit(state_dir, state)
    print(json.dumps({"vc_id": args.vc_id, "day": state.current_day, "sequence": sequence}))
    return 0


def cmd_issuer_rollover(args) -> int:
    state_dir, state = _load_issuer(args)
    if args.to_day is None:
        raise CliError("give --to-day")
    # "+k" counts from the saved current day; a bare integer is absolute
    target = int(args.to_day) + (state.current_day if args.to_day.startswith("+") else 0)
    if target <= state.current_day:
        raise CliError(f"rollover day must exceed the current day {state.current_day}")
    for day in range(state.current_day + 1, target + 1):
        actors.issuer_rollover(state, day)
        _commit(state_dir, state)
    service.PublicationStore(_public_dir(state_dir)).prune(state.current_day, args.retention)
    print(json.dumps({"current_day": state.current_day}))
    return 0


def cmd_issuer_serve(args) -> int:
    state_dir = _state_dir(args)
    public = _public_dir(state_dir)
    serve_dir = public if public.is_dir() else state_dir
    server = service.serve(serve_dir, args.bind)
    host, port = server.server_address[:2]
    print(json.dumps({"serving": str(serve_dir), "url": f"http://{host}:{port}"}), flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


# holder


def cmd_holder_store(args) -> int:
    bundle = canonical_decode(Path(args.bundle).read_bytes())
    credential = actors.VerifiableCredential.from_record(bundle["credential"])
    seed = b64u_decode(bundle["seed"])
    if args.pop_signing_key:
        pop_signing = Path(args.pop_signing_key).read_bytes()
    elif "pop_signing_key" in bundle:
        pop_signing = b64u_decode(bundle["pop_signing_key"])
    else:
        raise CliError("bundle has no proof-of-possession key; pass --pop-signing-key")
    holder_key = ahibe.from_record(ahibe.HolderKey, canonical_decode(Path(args.holder_key).read_bytes()))
    trust = actors.TrustStore.load(args.trust)
    issuer_key = trust.get(credential.issuer_id)
    if issuer_key is None:
        raise actors.WalletRejection(f"issuer {credential.issuer_id!r} not in trust store")
    wallet_path = Path(args.wallet)
    wallet = actors.Wallet.load(wallet_path) if wallet_path.exists() else actors.Wallet()
    actors.holder_store(wallet, credential, seed, holder_key, pop_signing, issuer_key)
    wallet.save(wallet_path)
    print(json.dumps({"vc_id": vc_id_hex(credential.vc_id), "wallet": args.wallet}))
    return 0


def cmd_holder_present(args) -> int:
    wallet = actors.Wallet.load(args.wallet)
    days = [int(part) for part in args.days.split(",") if part]
    nonce = bytes.fromhex(args.nonce)
    presentation = actors.holder_present(wallet, vc_id_from_hex(args.vc_id), days, nonce)
    raw = presentation.to_bytes()
    write_atomic(args.out, raw)
    print(json.dumps({"presentation": args.out, "days": days, "bytes": len(raw)}))
    return 0


def cmd_holder_audit(args) -> int:
    wallet = actors.Wallet.load(args.wallet)
    client = _table_client(args)
    document = client.params()
    snapshot, _ = client.fetch_revocation_table(args.day)
    documents = actors.holder_audit(wallet, vc_id_from_hex(args.vc_id), args.day, snapshot, document)
    print(json.dumps({"day": args.day, "documents": [d.to_record() for d in documents]}))
    return 0


# verifier


def cmd_verifier_check(args) -> int:
    presentation = actors.Presentation.from_bytes(Path(args.presentation).read_bytes())
    if args.nonce and bytes.fromhex(args.nonce) != presentation.nonce:
        raise actors.BadProofOfPossession("presentation nonce does not match the challenge")
    trust = actors.TrustStore.load(args.trust)
    client = _table_client(args)
    current_day = _current_day(args, client)
    result = actors.verifier_check(presentation, trust, client, current_day)
    payload = {
        "vc_id": vc_id_hex(presentation.credential.vc_id),
        "current_day": current_day,
        "statuses": {
            str(day): {"verdict": "revoked" if docs else "no-revocation-found", "documents": [d.to_record() for d in docs]}
            for day, docs in result.statuses.items()
        },
        "segment_bytes": result.segment_bytes,
        "table_bytes": result.table_bytes,
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


# simulator


def cmd_sim_run(args) -> int:
    config = sim.ScenarioConfig(
        holders=args.holders,
        vcs_per_holder=args.vcs_per_holder,
        days=args.days,
        daily_revocation_rate=args.revocation_rate,
        presentations_per_day=args.presentations_per_day,
        past_auth_probability=args.past_prob,
        future_auth_probability=args.future_prob,
        forgery_rate=args.forgery_rate,
        rng_seed=args.seed,
        d=args.table_size,
        c=args.check_buckets,
        sigma=args.segments,
        min_anonymity=args.min_anonymity,
        scheme=args.scheme,
    )
    report = sim.run_scenario(config, state_dir=args.keep_state)
    write_atomic(args.out, report.to_bytes())
    print(report.render_text())
    if report.false_positives or report.false_negatives or report.forged_accepted or report.misclassified_rejections:
        raise CliError("scenario verdicts disagree with ground truth", code=4)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="revoca", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    groups = parser.add_subparsers(dest="group", required=True)

    pkg = groups.add_parser("pkg", help="key-authority operations").add_subparsers(dest="command", required=True)
    p = pkg.add_parser("setup", help="generate master params and secret")
    p.add_argument("--scheme", choices=("test", "standard"), default="standard")
    p.add_argument("--out", required=True, help="output directory for mpp.pub and msk.key")
    p.set_defaults(func=cmd_pkg_setup)
    p = pkg.add_parser("extract", help="extract a holder root key")
    p.add_argument("--msk", required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pkg_extract)

    issuer = groups.add_parser("issuer", help="issuer operations").add_subparsers(dest="command", required=True)
    p = issuer.add_parser("init", help="initialize issuer state and publish day tables")
    p.add_argument("--state")
    p.add_argument("--mpp", required=True)
    p.add_argument("--issuer-id", required=True)
    p.add_argument("--day", type=int, default=0)
    p.add_argument("--table-size", type=int, default=1024, help="revocation table size d")
    p.add_argument("--check-buckets", type=int, default=1024, help="check table bucket count c")
    p.add_argument("--segments", type=int, default=16, help="check table segment count sigma")
    p.add_argument("--min-anonymity", type=int, default=256)
    p.add_argument("--epoch", type=int, default=None, help="unix timestamp of day 0 (default: now minus --day)")
    p.add_argument("--granularity", type=int, default=86400, help="seconds per day index unit")
    p.set_defaults(func=cmd_issuer_init)
    p = issuer.add_parser("issue", help="issue a credential; writes the holder bundle")
    p.add_argument("--state")
    p.add_argument("--root", required=True)
    p.add_argument("--claims", default="{}")
    p.add_argument("--expiry-day", type=int, required=True)
    p.add_argument("--pop-public-key", help="file with the holder's raw Ed25519 public key")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_issuer_issue)
    p = issuer.add_parser("revoke", help="publish revocation information for today")
    p.add_argument("--state")
    p.add_argument("--vc-id", required=True)
    p.add_argument("--status", choices=REVOCATION_STATUSES, default="revoked")
    p.add_argument("--reason", default="")
    p.add_argument("--constraints", help="JSON map of constraints")
    p.set_defaults(func=cmd_issuer_revoke)
    p = issuer.add_parser("rollover", help="advance the day, re-encrypting active revocations")
    p.add_argument("--state")
    p.add_argument("--to-day", help="target day index; +K advances K days")
    p.add_argument("--retention", type=int, default=30)
    p.set_defaults(func=cmd_issuer_rollover)
    p = issuer.add_parser("serve", help="serve the publication directory over HTTP")
    p.add_argument("--state")
    p.add_argument("--bind", default="127.0.0.1:8080")
    p.set_defaults(func=cmd_issuer_serve)

    holder = groups.add_parser("holder", help="wallet operations").add_subparsers(dest="command", required=True)
    p = holder.add_parser("store", help="admit an issued bundle into the wallet")
    p.add_argument("--wallet", required=True)
    p.add_argument("--bundle", required=True)
    p.add_argument("--holder-key", required=True)
    p.add_argument("--trust", required=True)
    p.add_argument("--pop-signing-key")
    p.set_defaults(func=cmd_holder_store)
    p = holder.add_parser("present", help="build a presentation with temporal authorizations")
    p.add_argument("--wallet", required=True)
    p.add_argument("--vc-id", required=True)
    p.add_argument("--days", required=True, help="comma-separated day indices")
    p.add_argument("--nonce", required=True, help="verifier challenge, 32 hex chars")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_holder_present)
    p = holder.add_parser("audit", help="scan the published table for this wallet's credential")
    p.add_argument("--wallet", required=True)
    p.add_argument("--vc-id", required=True)
    p.add_argument("--day", type=int, required=True)
    p.add_argument("--state-dir")
    p.add_argument("--endpoint")
    p.set_defaults(func=cmd_holder_audit)

    verifier = groups.add_parser("verifier", help="relying-party operations").add_subparsers(dest="command", required=True)
    p = verifier.add_parser("check", help="run the revocation information check")
    p.add_argument("--presentation", required=True)
    p.add_argument("--trust", required=True)
    p.add_argument("--state-dir")
    p.add_argument("--endpoint")
    p.add_argument("--nonce", help="challenge the presentation must answer")
    p.add_argument("--current-day", type=int, default=None)
    p.set_defaults(func=cmd_verifier_check)

    simulator = groups.add_parser("sim", help="scenario simulator").add_subparsers(dest="command", required=True)
    p = simulator.add_parser("run", help="run a reproducible multi-day scenario")
    p.add_argument("--holders", type=int, default=200)
    p.add_argument("--vcs-per-holder", type=int, default=2)
    p.add_argument("--days", type=int, default=10)
    p.add_argument("--revocation-rate", type=float, default=0.05)
    p.add_argument("--presentations-per-day", type=int, default=100)
    p.add_argument("--past-prob", type=float, default=0.1)
    p.add_argument("--future-prob", type=float, default=0.05)
    p.add_argument("--forgery-rate", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--table-size", type=int, default=1024)
    p.add_argument("--check-buckets", type=int, default=1024)
    p.add_argument("--segments", type=int, default=16)
    p.add_argument("--min-anonymity", type=int, default=1)
    p.add_argument("--scheme", choices=("test", "standard"), default="test")
    p.add_argument("--out", default="report.rep")
    p.add_argument("--keep-state", help="retain the publication directory here")
    p.set_defaults(func=cmd_sim_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SignatureDecodeError as exc:
        return _fail(actors.BadSignature(str(exc)))
    except Exception as exc:  # classed exit codes; diagnostics on stderr
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
