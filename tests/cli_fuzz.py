"""Mutated key, signature and params files through every spanse command.

Run as a script, `python cli_fuzz.py DIR SEED MUTATIONS`: it sets a 4 GiB
address-space limit before spanse loads, writes a desk key pair, a
signature and a params file into DIR, and feeds `MUTATIONS` mutated copies
(byte flips biased toward the header, truncations, appended bytes) to the
commands that read each file, in this one process. It prints a JSON object
with the number of commands run and every violation: an exit code outside
{0, 1, 2}, a traceback on stderr, or a command over its time budget.

A flip can turn the params file into another valid parameter set, such as
desk at p = 3853, whose keygen takes as long as its size needs (3.4 s CPU
at p = 1549 on a 2-core x86_64 host). keygen on a params file that loads is stopped at the budget
like every command, but its overtime is not a violation.
"""

import contextlib
import io
import json
import random
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

LIMIT_BYTES = 4 * 2**30
BUDGET_S = 5.0
# every file starts with its magic, type byte and parameter block, 41 bytes at desk
HEADER_BYTES = 48


class _Overtime(BaseException):
    """Raised by the alarm; a BaseException so the CLI's handlers pass it on."""


def _on_alarm(signum, frame):
    raise _Overtime


def _mutate(data: bytes, rnd: random.Random) -> tuple[bytes, str]:
    kind = rnd.choice(["flip", "flip", "truncate", "append"])
    if kind == "truncate":
        cut = rnd.randrange(len(data))
        return data[:cut], f"truncate to {cut}"
    if kind == "append":
        extra = rnd.randbytes(rnd.randint(1, 64))
        return data + extra, f"append {len(extra)}"
    out, flips = bytearray(data), []
    for _ in range(rnd.randint(1, 4)):
        span = HEADER_BYTES if rnd.random() < 0.5 else len(out)
        pos = rnd.randrange(min(span, len(out)))
        out[pos] ^= rnd.randrange(1, 256)
        flips.append(pos)
    return bytes(out), f"flip bytes {flips}"


def _commands(target: str, path: Path, d: Path) -> list[list[str]]:
    f, msg = str(path), str(d / "msg.txt")
    if target == "sk":
        return [["sign", "--key", f, "--message", msg, "--out", str(d / "out.sig")],
                ["keycheck", "--key", f]]
    if target == "pk":
        return [["verify", "--key", f, "--message", msg, "--signature", str(d / "sig")]]
    if target == "sig":
        return [["verify", "--key", str(d / "pk"), "--message", msg, "--signature", f]]
    return [["analyze", kind, "--params", f] for kind in ("sizes", "attack", "rejection")] + [
        ["keygen", "--params", f, "--private", str(d / "out.sk"),
         "--public", str(d / "out.pk"), "--seed", "1"]]


def _run(main, argv: list[str]) -> tuple[int | str, str, float]:
    """(exit code, stderr, seconds) of one in-process CLI call."""
    err = io.StringIO()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except _Overtime:
        code = "overtime"
    except BaseException:
        code = "escaped"
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, err.getvalue(), time.perf_counter() - t0


def _loads(serial, data: bytes) -> bool:
    """Whether `data` is a valid params file (its errors are ValueErrors)."""
    try:
        serial.deserialize_params(data)
    except ValueError:
        return False
    return True


def fuzz(d: Path, seed: int, mutations: int) -> dict:
    from spanse import cli, serial
    from spanse.params import get_params

    (d / "msg.txt").write_bytes(b"fuzzed message\n")
    setup = [["keygen", "--params", "desk", "--private", str(d / "sk"), "--public",
              str(d / "pk"), "--seed", "11"],
             ["sign", "--key", str(d / "sk"), "--message", str(d / "msg.txt"),
              "--out", str(d / "sig"), "--seed", "3"]]
    for argv in setup:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != cli.EXIT_OK:
                raise RuntimeError(f"setup failed: {argv}")
    (d / "params").write_bytes(serial.serialize_params(get_params("desk")))
    originals = {t: (d / t).read_bytes() for t in ("sk", "pk", "sig", "params")}
    signal.signal(signal.SIGALRM, _on_alarm)
    rnd = random.Random(seed)
    commands, violations, valid_overtime = 0, [], 0
    for i in range(mutations):
        target = rnd.choice(sorted(originals))
        data, how = _mutate(originals[target], rnd)
        path = d / f"mutated.{target}"
        path.write_bytes(data)
        for argv in _commands(target, path, d):
            code, err, seconds = _run(cli.main, argv)
            commands += 1
            overtime = code == "overtime" or seconds > BUDGET_S
            if overtime and argv[0] == "keygen" and _loads(serial, data):
                valid_overtime += 1
            elif overtime or code not in (0, 1, 2) or "Traceback" in err:
                violations.append({"mutation": i, "target": target, "how": how,
                                   "argv": argv[:2], "code": code,
                                   "seconds": round(seconds, 2), "stderr": err[-2000:]})
    return {"commands": commands, "violations": violations, "valid_overtime": valid_overtime}


if __name__ == "__main__":
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))
    workdir, seed, count = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
    print(json.dumps(fuzz(workdir, seed, count)))
