import json
import stat

import pytest

from revoca import actors, service
from revoca.cli import main
from revoca.tables import read_snapshot


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def setup_world(tmp_path, capsys):
    """pkg setup -> extract -> issuer init -> issue -> holder store."""
    pkg_dir = tmp_path / "pkgdir"
    state = tmp_path / "state"
    wallet = tmp_path / "wallet.store"

    code, out, _ = run_cli("pkg", "setup", "--scheme", "test", "--out", str(pkg_dir), capsys=capsys)
    assert code == 0

    code, _, _ = run_cli(
        "pkg", "extract", "--msk", str(pkg_dir / "msk.key"), "--root", "holder-9", "--out", str(tmp_path / "h9.key"),
        capsys=capsys,
    )
    assert code == 0

    code, _, _ = run_cli(
        "issuer", "init", "--state", str(state), "--mpp", str(pkg_dir / "mpp.pub"), "--issuer-id", "acme",
        "--day", "50", "--table-size", "32", "--check-buckets", "32", "--segments", "4", "--min-anonymity", "1",
        "--epoch", "0",
        capsys=capsys,
    )
    assert code == 0

    code, out, _ = run_cli(
        "issuer", "issue", "--state", str(state), "--root", "holder-9", "--claims", '{"license":"B"}',
        "--expiry-day", "400", "--out", str(tmp_path / "bundle.cred"),
        capsys=capsys,
    )
    assert code == 0
    vc_id = json.loads(out)["vc_id"]

    code, _, _ = run_cli(
        "holder", "store", "--wallet", str(wallet), "--bundle", str(tmp_path / "bundle.cred"),
        "--holder-key", str(tmp_path / "h9.key"), "--trust", str(state / "trust.store"),
        capsys=capsys,
    )
    assert code == 0
    return {"tmp": tmp_path, "state": state, "wallet": wallet, "vc_id": vc_id}


NONCE = "00112233445566778899aabbccddeeff"


def _present(world, capsys, days="50", out="p.pres"):
    path = world["tmp"] / out
    code, _, _ = run_cli(
        "holder", "present", "--wallet", str(world["wallet"]), "--vc-id", world["vc_id"],
        "--days", days, "--nonce", NONCE, "--out", str(path),
        capsys=capsys,
    )
    assert code == 0
    return path


def test_happy_path_check(setup_world, capsys):
    pres = _present(setup_world, capsys)
    code, out, _ = run_cli(
        "verifier", "check", "--presentation", str(pres), "--trust", str(setup_world["state"] / "trust.store"),
        "--state-dir", str(setup_world["state"]), "--nonce", NONCE, "--current-day", "50",
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["statuses"]["50"]["verdict"] == "no-revocation-found"
    assert payload["segment_bytes"] > 0 and payload["table_bytes"] > 0


def test_revoke_then_check_and_audit(setup_world, capsys):
    code, _, _ = run_cli(
        "issuer", "revoke", "--state", str(setup_world["state"]), "--vc-id", setup_world["vc_id"],
        "--status", "suspended", "--reason", "points",
        capsys=capsys,
    )
    assert code == 0
    pres = _present(setup_world, capsys)
    code, out, _ = run_cli(
        "verifier", "check", "--presentation", str(pres), "--trust", str(setup_world["state"] / "trust.store"),
        "--state-dir", str(setup_world["state"]), "--current-day", "50",
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["statuses"]["50"]["verdict"] == "revoked"

    code, out, _ = run_cli(
        "holder", "audit", "--wallet", str(setup_world["wallet"]), "--vc-id", setup_world["vc_id"],
        "--day", "50", "--state-dir", str(setup_world["state"]),
        capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["documents"][0]["status"] == "suspended"


def test_rollover_writes_snapshot_pairs(setup_world, capsys):
    code, _, _ = run_cli("issuer", "rollover", "--state", str(setup_world["state"]), "--to-day", "+2", capsys=capsys)
    assert code == 0
    public = setup_world["state"] / "public"
    for day in (50, 51, 52):
        assert (public / f"check-{day}.snap").exists()
        assert (public / f"revocation-{day}.snap").exists()


def test_rollover_relative_day_syntax(setup_world, capsys):
    code, out, _ = run_cli("issuer", "rollover", "--state", str(setup_world["state"]), "--to-day", "+1", capsys=capsys)
    assert code == 0
    assert json.loads(out)["current_day"] == 51
    public = setup_world["state"] / "public"
    assert (public / "check-51.snap").exists() and (public / "revocation-51.snap").exists()


def test_rollover_needs_to_day(setup_world, capsys):
    code, _, err = run_cli("issuer", "rollover", "--state", str(setup_world["state"]), capsys=capsys)
    assert code == 3
    assert json.loads(err.strip().splitlines()[-1])["message"] == "give --to-day"
    with pytest.raises(SystemExit) as excinfo:  # --to-day +K is the one way to advance K days
        main(["issuer", "rollover", "--state", str(setup_world["state"]), "--days", "1"])
    assert excinfo.value.code == 2


def _disk_full(*args):
    raise OSError(28, "No space left on device")


def _verdict(world, capsys, day):
    """The verifier's verdict on `day` for a presentation of that day."""
    pres = _present(world, capsys, days=str(day), out=f"p{day}.pres")
    code, out, _ = run_cli(
        "verifier", "check", "--presentation", str(pres), "--trust", str(world["state"] / "trust.store"),
        "--state-dir", str(world["state"]), "--current-day", str(day),
        capsys=capsys,
    )
    assert code == 0
    return json.loads(out)["statuses"][str(day)]["verdict"]


def _revoke(world, capsys, vc_id=None):
    return run_cli("issuer", "revoke", "--state", str(world["state"]), "--vc-id", vc_id or world["vc_id"], capsys=capsys)[0]


def test_failed_state_write_publishes_nothing(setup_world, capsys, monkeypatch):
    # the state is saved before the day is published: when the save fails,
    # the published table and the saved state are both as they were
    state = setup_world["state"]
    files = (state / "issuer.state", state / "public" / "revocation-50.snap", state / "public" / "check-50.snap")
    before = [path.read_bytes() for path in files]
    with monkeypatch.context() as patch:
        patch.setattr(actors, "save_issuer_state", _disk_full)
        assert _revoke(setup_world, capsys) == 1
    assert [path.read_bytes() for path in files] == before
    assert _verdict(setup_world, capsys, 50) == "no-revocation-found"
    assert _revoke(setup_world, capsys) == 0  # the rerun publishes the revocation
    assert _verdict(setup_world, capsys, 50) == "revoked"


def test_failed_publish_is_caught_up_by_the_next_commit(setup_world, capsys, monkeypatch):
    # a publish that fails after the state write loses nothing: the next
    # commit publishes every revocation the saved state holds
    state = setup_world["state"]
    code, out, _ = run_cli(
        "issuer", "issue", "--state", str(state), "--root", "holder-9", "--expiry-day", "400",
        "--out", str(setup_world["tmp"] / "other.cred"),
        capsys=capsys,
    )
    assert code == 0
    other = json.loads(out)["vc_id"]
    with monkeypatch.context() as patch:
        patch.setattr(service.PublicationStore, "publish_revocation", _disk_full)
        assert _revoke(setup_world, capsys) == 1
    assert _revoke(setup_world, capsys, other) == 0
    assert len(read_snapshot(state / "public" / "revocation-50.snap").slots) == 2
    assert _verdict(setup_world, capsys, 50) == "revoked"


def test_failed_rollover_keeps_every_published_day_current(setup_world, capsys, monkeypatch):
    # a rollover commits each day it advances through: when the second day's
    # state write fails, the last published day is the last saved one, and
    # a revoke made next lands in its table
    state, save = setup_world["state"], actors.save_issuer_state

    def full_on_day_52(issuer, path):
        if issuer.current_day == 52:
            _disk_full()
        save(issuer, path)

    with monkeypatch.context() as patch:
        patch.setattr(actors, "save_issuer_state", full_on_day_52)
        code, _, _ = run_cli("issuer", "rollover", "--state", str(state), "--to-day", "+2", capsys=capsys)
    assert code == 1
    assert _revoke(setup_world, capsys) == 0
    last = service.PublicationStore(state / "public").archived_days()[-1]
    assert _verdict(setup_world, capsys, last) == "revoked"
    # "+K" counts from the last saved day, so the rerun names the target day
    code, out, _ = run_cli("issuer", "rollover", "--state", str(state), "--to-day", "52", capsys=capsys)
    assert code == 0 and json.loads(out)["current_day"] == 52
    assert _verdict(setup_world, capsys, 52) == "revoked"


@pytest.mark.parametrize("to_day", ["50", "49", "+0"])
def test_rollover_to_a_day_not_ahead_exits_3(setup_world, capsys, to_day):
    state = setup_world["state"]
    before = sorted(path.name for path in (state / "public").iterdir()), (state / "issuer.state").read_bytes()
    code, _, _ = run_cli("issuer", "rollover", "--state", str(state), "--to-day", to_day, capsys=capsys)
    assert code == 3
    assert (sorted(path.name for path in (state / "public").iterdir()), (state / "issuer.state").read_bytes()) == before


def test_tampered_presentation_is_bad_pop_with_exit_code(setup_world, capsys):
    pres = _present(setup_world, capsys)
    raw = bytearray(pres.read_bytes())
    pos = raw.index(b'"pop_signature":"') + len(b'"pop_signature":"') + 2
    raw[pos] = ord("A") if raw[pos] != ord("A") else ord("B")
    pres.write_bytes(bytes(raw))
    code, _, err = run_cli(
        "verifier", "check", "--presentation", str(pres), "--trust", str(setup_world["state"] / "trust.store"),
        "--state-dir", str(setup_world["state"]), "--current-day", "50",
        capsys=capsys,
    )
    assert code == 11
    diagnostic = json.loads(err.strip().splitlines()[-1])
    assert diagnostic["error"] == "bad-proof-of-possession"


@pytest.mark.parametrize("raw", [b"{}", b"[]"])
def test_malformed_presentation_is_decode_error(setup_world, capsys, raw):
    pres = setup_world["tmp"] / "bad.pres"
    pres.write_bytes(raw)
    code, _, err = run_cli(
        "verifier", "check", "--presentation", str(pres), "--trust", str(setup_world["state"] / "trust.store"),
        "--state-dir", str(setup_world["state"]), "--current-day", "50",
        capsys=capsys,
    )
    assert code == 3
    assert json.loads(err.strip().splitlines()[-1])["error"] == "CanonicalDecodeError"


def test_secret_files_are_owner_only(setup_world):
    tmp = setup_world["tmp"]
    secrets = [tmp / "pkgdir" / "msk.key", tmp / "h9.key", tmp / "bundle.cred", setup_world["wallet"],
               setup_world["state"] / "issuer.state"]
    assert [stat.S_IMODE(path.stat().st_mode) for path in secrets] == [0o600] * len(secrets)


def test_wrong_nonce_rejected(setup_world, capsys):
    pres = _present(setup_world, capsys)
    code, _, err = run_cli(
        "verifier", "check", "--presentation", str(pres), "--trust", str(setup_world["state"] / "trust.store"),
        "--state-dir", str(setup_world["state"]), "--nonce", "ff" * 16, "--current-day", "50",
        capsys=capsys,
    )
    assert code == 11


def test_future_day_deferred_exit_code(setup_world, capsys):
    pres = _present(setup_world, capsys, days="55")
    code, _, err = run_cli(
        "verifier", "check", "--presentation", str(pres), "--trust", str(setup_world["state"] / "trust.store"),
        "--state-dir", str(setup_world["state"]), "--current-day", "50",
        capsys=capsys,
    )
    assert code == 15
    assert json.loads(err.strip().splitlines()[-1])["error"] == "deferred-future-day"


def test_unknown_vc_is_parameter_error(setup_world, capsys):
    code, _, err = run_cli(
        "issuer", "revoke", "--state", str(setup_world["state"]), "--vc-id", "00" * 16,
        capsys=capsys,
    )
    assert code == 3


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["issuer", "revoke", "--vc-id"])  # missing value
    assert excinfo.value.code == 2


def test_sim_run_cli(tmp_path, capsys):
    out = tmp_path / "report.rep"
    code, stdout, _ = run_cli(
        "sim", "run", "--holders", "4", "--vcs-per-holder", "1", "--days", "3",
        "--revocation-rate", "0.2", "--presentations-per-day", "5", "--seed", "1",
        "--table-size", "64", "--check-buckets", "64", "--segments", "4",
        "--out", str(out),
        capsys=capsys,
    )
    assert code == 0
    assert out.exists()
    assert "presentations checked" in stdout


def test_serve_and_check_over_http(setup_world, capsys):
    from revoca import service

    server, url = service.serve_in_thread(setup_world["state"] / "public")
    try:
        pres = _present(setup_world, capsys)
        code, out, _ = run_cli(
            "verifier", "check", "--presentation", str(pres), "--trust", str(setup_world["state"] / "trust.store"),
            "--endpoint", url, "--current-day", "50",
            capsys=capsys,
        )
        assert code == 0
        assert json.loads(out)["statuses"]["50"]["verdict"] == "no-revocation-found"
    finally:
        server.shutdown()


def test_state_dir_env_fallback(setup_world, capsys, monkeypatch):
    monkeypatch.setenv("REVOCA_STATE_DIR", str(setup_world["state"]))
    code, out, _ = run_cli("issuer", "rollover", "--to-day", "+1", capsys=capsys)
    assert code == 0
    assert json.loads(out)["current_day"] == 51
