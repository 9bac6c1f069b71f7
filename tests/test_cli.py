import json
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spanse import analysis, cli, scheme, serial
from spanse.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_REJECT, main
from spanse.params import DensityPolynomial, ParameterSet, get_params
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


def test_verify_rejects_a_zero_sigma_entry_with_exit_1(workdir, capsys):
    # the format requires only symbols below q: a zero entry parses, and
    # verify rejects it as a signature
    sk, pk = keygen_files(workdir)
    sig = workdir / "sig.bin"
    run("sign", "--key", sk, "--message", workdir / "msg.txt", "--out", sig, "--seed", 3)
    data = bytearray(sig.read_bytes())
    data[-1] = 0  # sigma is the last n bytes
    sig.write_bytes(bytes(data))
    capsys.readouterr()
    assert run("verify", "--key", pk, "--message", workdir / "msg.txt",
               "--signature", sig) == EXIT_REJECT
    out = capsys.readouterr()
    assert out.out == "reject: zero-entry\n" and out.err == ""


def test_every_readme_command_parses():
    # each `spanse ...` line of README's sh blocks, continuations joined
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv[1:] for argv in (shlex.split(line, comments=True) for line in lines)
                if argv[:1] == ["spanse"]]
    assert len(commands) >= 10
    for argv in commands:
        cli.build_parser().parse_args(argv)


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


@pytest.mark.parametrize("part", ["S", "G", "S-zero-column"])
def test_keycheck_rejects_singular_key(workdir, capsys, part):
    sk_path, _ = keygen_files(workdir)
    sk = serial.deserialize_private(sk_path.read_bytes())
    # G's one-positions, or S's blocks, as arrays indexed by block row
    parts = {"G": sk.G.copy(), "S": sk.S.blocks.copy()}
    if part == "S-zero-column":
        # every block row stays nonzero, so only the elimination finds it
        parts["S"][:, 1] = 0
        part = "S"
    else:
        # two equal block rows: S, or the generator's M1, is singular, yet the key loads
        parts[part][1] = parts[part][0]
    S = QCMatrix(parts["S"], sk.params.q)
    data = serial.serialize_private(PrivateKey(sk.params, sk.P, parts["G"], S))
    bad = workdir / "bad.bin"
    bad.write_bytes(data)
    assert serial.deserialize_private(data).S == S  # loading skips the check
    capsys.readouterr()
    assert run("keycheck", "--key", bad) == EXIT_INPUT
    err = capsys.readouterr().err
    message = {"S": "dense transform is singular", "G": "generator is not reducible"}[part]
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_keycheck_at_the_spanse_128_ring(workdir, capsys):
    # spanse-128's ring and weights at n0 = 84, so S spans 11 panels of the
    # solve: a keygen key passes, and equal block rows of S, or of the
    # generator's M1, are each named
    pfile = _params_file(workdir / "p101.params", 101, 84, 42)
    sk_path, pk_path = workdir / "sk.bin", workdir / "pk.bin"
    assert run("keygen", "--params", pfile, "--private", sk_path,
               "--public", pk_path, "--seed", 11) == EXIT_OK
    capsys.readouterr()
    assert run("keycheck", "--key", sk_path) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"
    sk = serial.deserialize_private(sk_path.read_bytes())
    for part, message in (("S", "dense transform is singular"),
                          ("G", "generator is not reducible")):
        parts = {"G": sk.G.copy(), "S": sk.S.blocks.copy()}
        parts[part][1] = parts[part][0]
        bad = workdir / f"bad-{part}.bin"
        bad.write_bytes(serial.serialize_private(
            PrivateKey(sk.params, sk.P, parts["G"], QCMatrix(parts["S"], sk.params.q))))
        assert run("keycheck", "--key", bad) == EXIT_INPUT
        err = capsys.readouterr().err
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
    # of weight 0, or an entry of 2, must not load, sign and verify. Held
    # as positions, G cannot express either, so the bytes are edited: row 0
    # is count u32, w_g u32 positions, w_g value bytes, after the header and
    # the permutation's r0 u16 blocks and r0 u16 shifts.
    sk_path, _ = keygen_files(workdir)
    data = bytearray(sk_path.read_bytes())
    params = serial.deserialize_private(bytes(data)).params
    row = len(serial.serialize_params(params)) + 4 * params.r0
    values = row + 4 + 4 * params.w_g
    if damage == "weight-0":
        data[row : values + params.w_g] = struct.pack("<I", 0)
    else:
        data[values] = 2
    bad = workdir / "bad.bin"
    bad.write_bytes(bytes(data))
    out = workdir / "sig.bin"
    capsys.readouterr()
    assert run("sign", "--key", bad, "--message", workdir / "msg.txt",
               "--out", out) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "generator" in err and "Traceback" not in err
    assert not out.exists()


def _python(*args, **run_args) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          **run_args)


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
    # a valid density that puts mass on 2 has no analytic model; only the
    # library refuses it, and the refusal exits 2 with no output
    capsys.readouterr()
    assert run("analyze", "rejection", "--params", "desk",
               "--density", "0.5,0.4,2:0.1") == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "binary" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("density", ["1/0,1", "1/2,1/2,2:1/0"])
def test_density_with_a_zero_denominator_is_input_error(capsys, density):
    assert run("analyze", "rejection", "--params", "desk", "--density", density) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: density entry") and "zero denominator" in err


def test_analyze_rejection_monte_carlo_needs_trials_and_workers(capsys):
    # 0 trials must not fall through to the analytic model
    assert run("analyze", "rejection", "--params", "desk", "--monte-carlo", 0) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "at least one trial" in captured.err and "p_valid" not in captured.out
    # the Monte Carlo runs in one process; --workers accepts only 1
    for workers in (0, 2):
        with pytest.raises(SystemExit) as exc:
            run("analyze", "rejection", "--params", "desk",
                "--monte-carlo", 10, "--workers", workers)
        assert exc.value.code == EXIT_INPUT
        assert "invalid choice" in capsys.readouterr().err


def test_analyze_monte_carlo_with_one_worker_at_spanse_128(capsys):
    # the Monte Carlo command line of the benchmark's analysis workload
    assert run("analyze", "rejection", "--params", "spanse-128",
               "--density", "0.5783,0.4167,2:0.0042,13:0.00083",
               "--monte-carlo", 100, "--seed", 7, "--workers", 1) == EXIT_OK
    report = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert set(report) >= {"p_valid", "stderr", "rejection_rate"}
    p_valid, stderr = float(report["p_valid"]), float(report["stderr"])
    assert 0.95 < p_valid < 1 and 0 < stderr < 0.01
    assert float(report["rejection_rate"]) == pytest.approx(1 - p_valid, abs=1e-5)


def test_parser_is_built_once_and_no_option_leaks_into_the_next_call(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seeds, estimate = [], analysis.rejection_rate_montecarlo

    def recorded(*args, seed=None, **kwargs):
        seeds.append(seed)
        return estimate(*args, seed=seed, **kwargs)

    monkeypatch.setattr(analysis, "rejection_rate_montecarlo", recorded)
    mc = ("analyze", "rejection", "--params", "desk", "--monte-carlo", 10)
    assert run(*mc, "--seed", 5) == EXIT_OK
    assert run(*mc) == EXIT_OK
    assert seeds == [5, None]
    capsys.readouterr()
    reports = []
    for argv in ((), ("--b", 9, "--nu", 0.010725, "--phi", 0.493), ()):
        assert run("analyze", "attack", *argv) == EXIT_OK
        reports.append(capsys.readouterr().out)
    ps = get_params("spanse-128")  # analyze's default
    best = analysis.optimize_attack(n=ps.n, k=ps.k, q=ps.q, p=ps.p)
    assert reports[0] == reports[2] != reports[1]
    assert f"b = {best.point.b}\n" in reports[2] and "b = 9\n" in reports[1]


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


def test_params_file_with_a_density_the_header_cannot_write_is_input_error(workdir, capsys):
    # d0 = 1/2 and d1 = (2^31 - 1)/(2^32 - 1) fit the file's u32 fields but
    # sum to just under 1, and renormalized d0 = (2^32 - 1)/(2^33 - 3) would
    # not: keygen exits 2 before it draws anything
    desk = get_params("desk")
    data = b"SPNS" + struct.pack("<HB", 1, 1)
    data += struct.pack("<7H", desk.q, desk.p, desk.n0, desk.k0, desk.w, desk.w_g, desk.m_g)
    data += struct.pack("<H", 2) + struct.pack("<BII", 0, 1, 2)
    data += struct.pack("<BII", 1, 2**31 - 1, 2**32 - 1)
    pfile = workdir / "fine.params"
    pfile.write_bytes(data)
    sk, pk = workdir / "sk.bin", workdir / "pk.bin"
    drawn = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheme, "make_code", lambda *a: drawn.append(a))
        assert run("keygen", "--params", pfile, "--private", sk,
                   "--public", pk, "--seed", 1) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "below 2^32" in err and "Traceback" not in err
    assert not drawn and not sk.exists() and not pk.exists()


def _python_limited(*argv) -> subprocess.CompletedProcess:
    """The spanse CLI in a child interpreter under a 4 GiB address-space
    limit, so an allocation that slips past the working-set check fails
    instead of taking real memory. The limit is set before spanse loads."""
    code = ("import resource, runpy, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30)); "
            "sys.argv[0] = 'spanse'; runpy.run_module('spanse', run_name='__main__')")
    return _python("-c", code, *argv, timeout=120)


def _params_file(path, p, n0, k0, w_g=None, density=None):
    """spanse-128's field, weights and density at another size, or with
    another generator row weight or density; 59 bytes at spanse-128's density."""
    ref = get_params("spanse-128")
    params = ParameterSet("big", ref.q, p, n0, k0, ref.w, w_g or ref.w_g, ref.m_g,
                          density or ref.density)
    path.write_bytes(serial.serialize_params(params))
    return path


@pytest.mark.parametrize("argv, n0, k0, p, w_g", [
    # G's block form alone would be 3.29 TiB
    (["keygen", "--private", "{dir}/sk.bin", "--public", "{dir}/pk.bin", "--seed", "1"],
     60000, 30000, 251, 11),
    # G's 32767 x 65535 positions are 16 GiB
    (["analyze", "rejection", "--monte-carlo", "10", "--seed", "1"], 65535, 32767, 65521, 65535),
    # G is 5 MiB, but a batch of 1000 trials holds 1000 x 786 446 positions at once
    (["analyze", "rejection", "--monte-carlo", "1000", "--seed", "1"], 20, 10, 65521, 65535),
], ids=["keygen", "monte-carlo", "monte-carlo-batch-arrays"])
def test_oversized_parameters_are_refused_before_allocating(workdir, argv, n0, k0, p, w_g):
    pfile = _params_file(workdir / "big.params", p, n0, k0, w_g)
    assert len(pfile.read_bytes()) == 59
    argv = [a.format(dir=workdir) for a in argv]
    proc = _python_limited(*argv, "--params", str(pfile))
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert f"n0={n0}, k0={k0}, p={p} needs " in proc.stderr and " GiB, over the " in proc.stderr
    assert not (workdir / "sk.bin").exists() and not (workdir / "pk.bin").exists()


def test_monte_carlo_batch_that_would_not_fit_exits_2_before_drawing(capsys, monkeypatch):
    # a 1 MB limit fits desk's generator and a batch of 100 trials, but not
    # a batch of 1000: their positions and histograms alone are 1.3 MB
    batches = []
    monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": 10**6}.get)
    monkeypatch.setattr(analysis, "_simulate_batch",
                        lambda *args: batches.append(args[2]) or (float(args[2]), 0.0))
    mc = ("analyze", "rejection", "--params", "desk", "--seed", 1, "--monte-carlo")
    assert run(*mc, 1000) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: monte-carlo at n0=20") and " GiB, over the " in err
    assert not batches
    assert run(*mc, 100) == EXIT_OK
    assert batches == [100]


@pytest.mark.parametrize("kind", ["attack", "sizes"])
def test_closed_form_analyses_run_at_any_size(workdir, kind):
    pfile = _params_file(workdir / "big.params", 65521, 65535, 32767)
    proc = _python_limited("analyze", kind, "--params", str(pfile))
    assert proc.returncode == EXIT_OK, proc.stderr


def test_monte_carlo_at_n_4e9_holds_positions_only(workdir):
    # n = 4.29e9: a length-n array per trial would be 34 GB, but a trial
    # holds only the positions of e and c, and G is 32767 x 11 positions
    pfile = _params_file(workdir / "big.params", 65521, 65535, 32767)
    proc = _python_limited("analyze", "rejection", "--monte-carlo", "10", "--seed", "1",
                           "--params", str(pfile))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "p_valid = " in proc.stdout and proc.stderr == ""


def test_zero_only_density_is_refused_by_keygen_not_by_analyze(workdir, capsys):
    # d0 = 1 makes every S zero: keygen exits 2 before any draw instead of
    # drawing S 100 times, while the rejection model reports p_valid = 0
    desk = get_params("desk")
    pfile = _params_file(workdir / "zero.params", desk.p, desk.n0, desk.k0,
                         density=DensityPolynomial.parse("1,0", desk.q))
    sk, pk = workdir / "sk.bin", workdir / "pk.bin"
    drawn = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scheme, "make_code", lambda *a: drawn.append(a))
        assert run("keygen", "--params", pfile, "--private", sk, "--public", pk,
                   "--seed", 1) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "every S is zero" in err and "Traceback" not in err
    assert not drawn and not sk.exists() and not pk.exists()
    assert run("analyze", "rejection", "--params", pfile) == EXIT_OK
    assert "p_valid = 0\n" in capsys.readouterr().out


def test_fuzzed_files_end_in_exit_0_1_or_2_without_traceback(tmp_path):
    # about 600 mutated desk keys, signatures and params files through
    # sign, keycheck, verify, analyze and keygen, in one child interpreter
    # under a 4 GiB address-space limit, each command under a 5 s budget
    fuzz = Path(__file__).with_name("cli_fuzz.py")
    proc = _python(str(fuzz), str(tmp_path), "0", "600", timeout=600)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    result = json.loads(proc.stdout)
    assert result["commands"] > 1000
    assert not result["violations"], result["violations"][:5]
