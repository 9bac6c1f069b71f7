import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spanse import cli, serial
from spanse.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_REJECT, main
from spanse.qcalg import QCMatrix
from spanse.scheme import PrivateKey


@pytest.fixture()
def workdir(tmp_path):
    msg = tmp_path / "msg.txt"
    msg.write_bytes(b"message under test\n")
    return tmp_path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def keygen_files(tmp_path, seed=11):
    sk = tmp_path / "sk.bin"
    pk = tmp_path / "pk.bin"
    assert run("keygen", "--params", "desk", "--private", sk,
               "--public", pk, "--seed", seed) == EXIT_OK
    return sk, pk


def test_keygen_sign_verify_happy_path(workdir, capsys):
    sk, pk = keygen_files(workdir)
    sig = workdir / "sig.bin"
    assert run("sign", "--key", sk, "--message", workdir / "msg.txt",
               "--out", sig, "--seed", 3) == EXIT_OK
    assert run("verify", "--key", pk, "--message", workdir / "msg.txt",
               "--signature", sig) == EXIT_OK
    assert "accept" in capsys.readouterr().out


def test_keygen_seed_determinism(tmp_path):
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    d1.mkdir(), d2.mkdir()
    sk1, pk1 = keygen_files(d1, seed=7)
    sk2, pk2 = keygen_files(d2, seed=7)
    assert sk1.read_bytes() == sk2.read_bytes()
    assert pk1.read_bytes() == pk2.read_bytes()


def test_verify_rejects_tampered_message(workdir, capsys):
    sk, pk = keygen_files(workdir)
    sig = workdir / "sig.bin"
    run("sign", "--key", sk, "--message", workdir / "msg.txt", "--out", sig, "--seed", 3)
    other = workdir / "other.txt"
    other.write_bytes(b"message under test?\n")
    assert run("verify", "--key", pk, "--message", other, "--signature", sig) == EXIT_REJECT
    assert "syndrome-mismatch" in capsys.readouterr().out


def test_verify_parse_error_exit_code(workdir):
    sk, pk = keygen_files(workdir)
    sig = workdir / "sig.bin"
    run("sign", "--key", sk, "--message", workdir / "msg.txt", "--out", sig, "--seed", 3)
    truncated = workdir / "trunc.bin"
    truncated.write_bytes(sig.read_bytes()[:40])
    assert run("verify", "--key", pk, "--message", workdir / "msg.txt",
               "--signature", truncated) == EXIT_INPUT
    assert run("verify", "--key", pk, "--message", workdir / "missing",
               "--signature", sig) == EXIT_INPUT


def test_second_sign_warns_about_reuse(workdir, capsys):
    sk, pk = keygen_files(workdir)
    sig = workdir / "sig.bin"
    run("sign", "--key", sk, "--message", workdir / "msg.txt", "--out", sig, "--seed", 3)
    capsys.readouterr()
    assert run("sign", "--key", sk, "--message", workdir / "msg.txt",
               "--out", workdir / "sig2.bin", "--seed", 3) == EXIT_OK
    assert "WARNING" in capsys.readouterr().err


def test_keycheck_accepts_a_keygen_key(workdir, capsys):
    sk, _ = keygen_files(workdir)
    capsys.readouterr()
    assert run("keycheck", "--key", sk) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"


@pytest.mark.parametrize("part", ["S", "G"])
def test_keycheck_rejects_singular_key(workdir, capsys, part):
    sk_path, _ = keygen_files(workdir)
    sk = serial.deserialize_private(sk_path.read_bytes())
    parts = {"G": sk.G, "S": sk.S}
    blocks = parts[part].blocks.copy()
    # two equal block rows: S, or the generator's M1, is singular, yet the key loads
    blocks[1] = blocks[0]
    parts[part] = QCMatrix(blocks, sk.params.q)
    data = serial.serialize_private(PrivateKey(sk.params, sk.P, parts["G"], parts["S"]))
    bad = workdir / "bad.bin"
    bad.write_bytes(data)
    assert serial.deserialize_private(data).S == parts["S"]  # loading skips the check
    capsys.readouterr()
    assert run("keycheck", "--key", bad) == EXIT_INPUT
    err = capsys.readouterr().err
    message = {"S": "dense transform is singular", "G": "generator is not reducible"}[part]
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_zero_block_row_in_s_is_rejected_at_load(workdir, capsys, monkeypatch):
    # every signature would have that block zero, so signing could only
    # exhaust its attempts; the key must be refused before sign runs
    sk_path, _ = keygen_files(workdir)
    sk = serial.deserialize_private(sk_path.read_bytes())
    blocks = sk.S.blocks.copy()
    blocks[3] = 0
    bad = workdir / "bad.bin"
    bad.write_bytes(serial.serialize_private(
        PrivateKey(sk.params, sk.P, sk.G, QCMatrix(blocks, sk.params.q))))
    signed = []
    monkeypatch.setattr(cli, "sign", lambda *a, **k: signed.append(a))
    out = workdir / "sig.bin"
    capsys.readouterr()
    for argv in (("sign", "--key", bad, "--message", workdir / "msg.txt", "--out", out),
                 ("keycheck", "--key", bad)):
        assert run(*argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "all-zero block row" in err
        assert "Traceback" not in err
    assert not signed and not out.exists()


@pytest.mark.parametrize("damage", ["weight-0", "value-2"])
def test_generator_row_unlike_keygen_is_rejected_at_sign(workdir, capsys, damage):
    # keygen writes every generator row with w_g entries of value 1; a row
    # of weight 0, or an entry of 2, must not load, sign and verify
    sk_path, _ = keygen_files(workdir)
    sk = serial.deserialize_private(sk_path.read_bytes())
    blocks = sk.G.blocks.copy()
    row = blocks[0].reshape(-1)
    if damage == "weight-0":
        row[:] = 0
    else:
        row[np.flatnonzero(row)[0]] = 2
    bad = workdir / "bad.bin"
    bad.write_bytes(serial.serialize_private(
        PrivateKey(sk.params, sk.P, QCMatrix(blocks, sk.params.q), sk.S)))
    out = workdir / "sig.bin"
    capsys.readouterr()
    assert run("sign", "--key", bad, "--message", workdir / "msg.txt",
               "--out", out) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "generator" in err and "Traceback" not in err
    assert not out.exists()


def _python(*args) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_importing_the_cli_leaves_scipy_unloaded():
    # sign, verify and keycheck use no analysis model; scipy.stats costs
    # about 1 s of import time
    code = "import spanse.cli, sys; assert 'scipy' not in sys.modules"
    assert _python("-c", code).returncode == 0


@pytest.mark.parametrize("argv", [
    ["rejection", "--density", "1/2,1/2"],
    ["attack"],
    ["sizes"],
])
def test_analyze_at_spanse_128_writes_nothing_to_stderr(argv):
    # spanse-128 has m_g*w_g >= q, which the registry already accepted
    done = _python("-m", "spanse", "analyze", argv[0], "--params", "spanse-128", *argv[1:])
    assert done.returncode == EXIT_OK and done.stdout and done.stderr == ""


def test_analyze_attack_fixed_point(capsys):
    assert run("analyze", "attack", "--params", "spanse-128",
               "--b", 9, "--nu", 0.010725, "--phi", 0.493) == EXIT_OK
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("t_doom_log2"))
    assert abs(float(line.split("=")[1]) - 131.6) < 1.0
    # partial point specification is an input error
    assert run("analyze", "attack", "--params", "spanse-128", "--b", 9) == EXIT_INPUT


def test_analyze_sizes(capsys):
    assert run("analyze", "sizes", "--params", "spanse-128") == EXIT_OK
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("pk_packed_kib"))
    assert abs(float(line.split("=")[1]) - 2436.6) / 2436.6 < 0.01


def test_analyze_rejection_analytic_vs_monte_carlo(capsys):
    assert run("analyze", "rejection", "--params", "desk") == EXIT_OK
    analytic = capsys.readouterr().out
    p_analytic = float(next(l for l in analytic.splitlines()
                            if l.startswith("p_valid")).split("=")[1])
    assert run("analyze", "rejection", "--params", "desk",
               "--monte-carlo", 5000, "--seed", 1) == EXIT_OK
    mc = capsys.readouterr().out
    p_mc = float(next(l for l in mc.splitlines() if l.startswith("p_valid")).split("=")[1])
    se = float(next(l for l in mc.splitlines() if l.startswith("stderr")).split("=")[1])
    assert abs(p_mc - p_analytic) <= 3 * max(se, 1e-3)


def test_analyze_rejection_invalid_density(capsys):
    assert run("analyze", "rejection", "--params", "desk",
               "--density", "0.7,0.7") == EXIT_INPUT


def test_analyze_rejection_monte_carlo_needs_trials_and_workers(capsys):
    # 0 trials must not fall through to the analytic model
    assert run("analyze", "rejection", "--params", "desk", "--monte-carlo", 0) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "at least one trial" in captured.err and "p_valid" not in captured.out
    assert run("analyze", "rejection", "--params", "desk",
               "--monte-carlo", 10, "--workers", 0) == EXIT_INPUT
    assert "at least one worker" in capsys.readouterr().err


def test_params_subcommands(capsys):
    assert run("params", "list") == EXIT_OK
    assert "desk" in capsys.readouterr().out
    assert run("params", "show", "desk") == EXIT_OK
    assert "q=127" in capsys.readouterr().out
    assert run("params", "show", "bogus") == EXIT_INPUT


def test_no_partial_output_on_failure(workdir):
    sk, pk = keygen_files(workdir)
    out = workdir / "should-not-exist.bin"
    bad = workdir / "bad.bin"
    bad.write_bytes(b"SPNSgarbage")
    assert run("sign", "--key", bad, "--message", workdir / "msg.txt",
               "--out", out) == EXIT_INPUT
    assert not out.exists()


def test_params_file_round_trip(workdir):
    pfile = workdir / "desk.params"
    from spanse.params import get_params

    pfile.write_bytes(serial.serialize_params(get_params("desk")))
    sk = workdir / "sk.bin"
    pk = workdir / "pk.bin"
    assert run("keygen", "--params", pfile, "--private", sk,
               "--public", pk, "--seed", 1) == EXIT_OK
    assert sk.exists() and pk.exists()


def test_hostile_private_key_header_is_input_error(workdir, capsys):
    # 45 bytes whose header declares n0=65535, k0=65534, p=65521: the
    # declared payload must be checked before anything is sized from it
    header = b"SPNS" + struct.pack("<HB", 1, 3)
    header += struct.pack("<7H", 127, 65521, 65535, 65534, 10, 4, 2)
    header += struct.pack("<H", 2) + struct.pack("<BII", 0, 1, 2) + struct.pack("<BII", 1, 1, 2)
    key = workdir / "hostile.bin"
    key.write_bytes(header + struct.pack("<HH", 0, 0))
    assert len(key.read_bytes()) == 45
    out = workdir / "sig.bin"
    assert run("sign", "--key", key, "--message", workdir / "msg.txt",
               "--out", out) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_unexpected_failure_is_internal_error_not_reject(workdir, capsys, monkeypatch):
    sk, _ = keygen_files(workdir)

    def out_of_memory(data):
        raise MemoryError("simulated")

    monkeypatch.setattr(serial, "deserialize_private", out_of_memory)
    assert run("sign", "--key", sk, "--message", workdir / "msg.txt",
               "--out", workdir / "sig.bin") == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("error: internal failure: MemoryError")


def test_params_file_with_q_above_byte_symbols_is_input_error(workdir, capsys):
    # desk's shape at q = 257: symbols up to 256 would wrap in the byte format
    data = b"SPNS" + struct.pack("<HB", 1, 1)
    data += struct.pack("<7H", 257, 13, 20, 10, 6, 5, 4)
    data += struct.pack("<H", 2) + struct.pack("<BII", 0, 1, 2) + struct.pack("<BII", 1, 1, 2)
    pfile = workdir / "wide.params"
    pfile.write_bytes(data)
    sk, pk = workdir / "sk.bin", workdir / "pk.bin"
    assert run("keygen", "--params", pfile, "--private", sk,
               "--public", pk, "--seed", 1) == EXIT_INPUT
    assert "q <= 256" in capsys.readouterr().err
    assert not sk.exists() and not pk.exists()
