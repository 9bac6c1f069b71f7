"""Workloads of the CLI-level benchmark and the loop that measures them.

Every workload is a closed loop with one client: the next command starts
when the previous one has returned. Commands run in-process through
`spanse.cli.main(argv)` on real files in a work directory inside the
checkout, so timings include reading keys and signatures from disk but not
interpreter start-up. All inputs (messages, key seeds, Monte Carlo seeds,
the p101 params file) derive from the workload seed.
"""

from __future__ import annotations

import hashlib
import io
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.stats import binom

import spanse
from spanse import cli, serial
from spanse.params import ParameterSet, get_params
from spanse.scheme import Signature

import tracing

ROOT = Path(__file__).resolve().parent.parent
# cycles are counted per CPU second of this process, not per wall second:
# the client is single-threaded, and on a shared host wall time also counts
# the time other tenants hold the CPU
END_TO_END = (("setup_s", "s"), ("cycles_per_cpu_s", "1/s"), ("peak_rss_mb", "MB"))

# per-command figures, measured untraced; 0 where a workload has no such
# command, and p90 only from at least P90_MIN_SAMPLES samples
OP_METRICS = (
    ("keygen_ms_p50", "ms"), ("keygen_ms_p90", "ms"),
    ("sign_ms_p50", "ms"), ("sign_ms_p90", "ms"),
    ("verify_ms_p50", "ms"), ("verify_ms_p90", "ms"),
    ("optimize_s_p50", "s"), ("mc_trials_per_s", "1/s"), ("error_rate", "ratio"),
)
P90_MIN_SAMPLES = 100

# criterion-6 densities and the rejection-rate band each must land in
MC_DENSITIES = (
    ("0.5783,0.4167,2:0.0042,13:0.00083", (0.002, 0.05)),
    ("0.5775,0.4167,2:0.0042,13:0.00083,25:0.00083", (0.95, 0.999)),
)
# an MC estimate fails its band only when the band is this improbable
# given the observed count, so small per-command trial counts never flag
# a correct sampler
MC_BAND_ALPHA = 1e-6
ATTACK_B, ATTACK_T_DOOM_MAX = 9, 132.1  # criterion 3


@dataclass(frozen=True)
class Sizes:
    """Input sizes of a run; the self-test shrinks them."""

    p101_n0: int = 84  # S is 8484 wide and M1 4242: both above the dense limit
    p101_k0: int = 42
    messages: int = 32
    mc_trials: int = 100  # per density per cycle
    setup_repeats: int = 3


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)

    def record(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[what] += 1


class Phase:
    """One measured stretch: op timings, cycle wall and CPU times, the shared tally."""

    def __init__(self, tally: Tally, tracer: tracing.Tracer | None = None):
        self.tally = tally
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)  # op kind -> seconds
        self.pools: dict[int, list[tuple[int, int]]] = defaultdict(list)  # MC (trials, rejections)
        self.cycles: list[float] = []  # wall seconds
        self.cycles_cpu: list[float] = []  # CPU seconds of this process
        self.wall = 0.0
        self.cpu = 0.0

    def op(self, kind: str, argv: list[str], check) -> bool:
        """Run one CLI command, time it, and count it by `check(code, stdout)`."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else nullcontext()
        code = None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), span:
                code = cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
        self.samples[kind].append(time.perf_counter() - start)
        try:
            ok = code is not None and bool(check(code, out.getvalue()))
        except (KeyError, ValueError):
            ok = False
        if not ok:
            print(f"failed {kind}: {argv} -> exit {code}\n{out.getvalue()}{err.getvalue()}",
                  file=sys.stderr)
        self.tally.record(ok, kind)
        return ok

    def paused(self):
        return self.tracer.paused() if self.tracer else nullcontext()


def _report_lines(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def _in_band(rejections: int, trials: int, band: tuple[float, float]) -> bool:
    lo, hi = band
    return (binom.sf(rejections - 1, trials, hi) >= MC_BAND_ALPHA
            and binom.cdf(rejections, trials, lo) >= MC_BAND_ALPHA)


class Lifecycle:
    """keygen -> sign -> verify -> verify of a tampered signature.

    One fresh key pair per message, as the one-time contract requires.
    """

    def __init__(self, work: Path, seed: int, params: str, sizes: Sizes):
        self.work, self.seed, self.params, self.sizes = work, seed, params, sizes
        self.params_arg = params
        self.messages: list[str] = []

    def setup(self):
        if self.params == "p101":
            # spanse-128's field, ring and weights on fewer blocks
            ref = get_params("spanse-128")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # m_g*w_g >= q, as in spanse-128
                ps = ParameterSet("p101", ref.q, ref.p, self.sizes.p101_n0,
                                  self.sizes.p101_k0, ref.w, ref.w_g, ref.m_g, ref.density)
            path = self.work / "p101.params"
            path.write_bytes(serial.serialize_params(ps))
            self.params_arg = str(path)
        rng = np.random.default_rng([self.seed, 1])
        self.messages = []
        for j in range(self.sizes.messages):
            path = self.work / f"msg-{j}.bin"
            path.write_bytes(rng.bytes(int(round(2.0 ** rng.uniform(5, 16)))))  # 32 B-64 KiB
            self.messages.append(str(path))

    def warm_up(self, run: Phase):
        self._cycle(np.random.default_rng([self.seed, 3]), self.messages[0], "desk", run)

    def cycle(self, i: int, run: Phase):
        rng = np.random.default_rng([self.seed, 2, i])
        self._cycle(rng, self.messages[i % len(self.messages)], self.params_arg, run)

    def _cycle(self, rng, msg: str, params_arg: str, run: Phase):
        sk, pk, sig, bad = (str(self.work / n) for n in
                            ("sk.bin", "pk.bin", "sig.bin", "sig-tampered.bin"))
        seeds = [str(int(s)) for s in rng.integers(0, 2**31, size=2)]
        if not run.op("keygen", ["keygen", "--params", params_arg, "--private", sk,
                                 "--public", pk, "--seed", seeds[0]],
                      lambda code, out: code == 0):
            return
        signed = run.op("sign", ["sign", "--key", sk, "--message", msg, "--out", sig,
                                 "--seed", seeds[1]], lambda code, out: code == 0)
        Path(sk + ".used").unlink(missing_ok=True)
        if not signed:
            return
        run.op("verify", ["verify", "--key", pk, "--message", msg, "--signature", sig],
               lambda code, out: code == 0 and out.strip() == "accept")
        with run.paused():
            _tamper(sig, bad, rng)
        run.op("verify_tampered",
               ["verify", "--key", pk, "--message", msg, "--signature", bad],
               lambda code, out: code == 1 and out.strip() == "reject: syndrome-mismatch")

    def finish(self, run: Phase):
        pass


def _tamper(src: str, dst: str, rng):
    """Copy a signature with one sigma symbol changed to another nonzero value."""
    sig, params = serial.deserialize_signature(Path(src).read_bytes())
    sigma = np.array(sig.sigma, dtype=np.int64)
    j = int(rng.integers(sigma.size))
    q = params.q
    sigma[j] = 1 + (sigma[j] - 1 + int(rng.integers(1, q - 1))) % (q - 1)
    Path(dst).write_bytes(serial.serialize_signature(Signature(sigma, sig.theta), params))


class Analysis:
    """spanse-128 attack optimizer, analytic rejection, sizes and Monte Carlo."""

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.work, self.seed, self.sizes = work, seed, sizes
        ps = get_params("spanse-128")
        self.min_pk_bytes, self.min_sig_bytes = ps.r0 * ps.n0 * ps.p, ps.n

    def setup(self):
        pass

    def warm_up(self, run: Phase):
        self._sizes(run)
        run.op("mc_warm_up", self._mc_argv(MC_DENSITIES[0][0], 2, self.seed),
               lambda code, out: code == 0)

    def cycle(self, i: int, run: Phase):
        run.op("optimize", ["analyze", "attack", "--params", "spanse-128"], self._attack_ok)
        run.op("analytic", ["analyze", "rejection", "--params", "spanse-128",
                            "--density", "1/2,1/2"], self._analytic_ok)
        self._sizes(run)
        rng = np.random.default_rng([self.seed, 4, i])
        trials = self.sizes.mc_trials
        for j, (density, band) in enumerate(MC_DENSITIES):
            pool = run.pools[j]
            run.op("mc", self._mc_argv(density, trials, int(rng.integers(2**31))),
                   lambda code, out: code == 0 and self._mc_ok(out, trials, band, pool))

    def finish(self, run: Phase):
        """Check each density's pooled estimate over the phase against its band."""
        for j, (_, band) in enumerate(MC_DENSITIES):
            pool = run.pools[j]
            if pool:
                run.tally.record(_in_band(sum(r for _, r in pool), sum(t for t, _ in pool),
                                          band), "mc_pooled")

    def _sizes(self, run: Phase):
        run.op("sizes", ["analyze", "sizes", "--params", "spanse-128"], self._sizes_ok)

    @staticmethod
    def _mc_argv(density: str, trials: int, seed: int) -> list[str]:
        return ["analyze", "rejection", "--params", "spanse-128", "--density", density,
                "--monte-carlo", str(trials), "--seed", str(seed), "--workers", "1"]

    @staticmethod
    def _attack_ok(code: int, out: str) -> bool:
        rep = _report_lines(out)
        return (code == 0 and int(rep["b"]) == ATTACK_B
                and float(rep["t_doom_log2"]) <= ATTACK_T_DOOM_MAX)

    @staticmethod
    def _analytic_ok(code: int, out: str) -> bool:
        rep = _report_lines(out)
        p_valid = float(rep["p_valid"])
        return (code == 0 and 0.0 < p_valid <= 1.0
                and abs(float(rep["rejection_rate"]) - (1.0 - p_valid)) < 1e-5)

    def _sizes_ok(self, code: int, out: str) -> bool:
        rep = _report_lines(out)
        return (code == 0 and int(rep["pk_disk_bytes"]) >= self.min_pk_bytes
                and int(rep["sig_bytes"]) >= self.min_sig_bytes)

    @staticmethod
    def _mc_ok(out: str, trials: int, band, pool: list) -> bool:
        rejections = trials - round(float(_report_lines(out)["p_valid"]) * trials)
        pool.append((trials, rejections))
        return _in_band(rejections, trials, band)


def make_workload(name: str, work: Path, seed: int, sizes: Sizes):
    if name == "desk-lifecycle":
        return Lifecycle(work, seed, "desk", sizes)
    if name == "p101-keygen":
        return Lifecycle(work, seed, "p101", sizes)
    if name == "analysis-128":
        return Analysis(work, seed, sizes)
    raise ValueError(f"unknown workload {name!r}")


def measure(workload, seconds: float, tally: Tally, tracer=None) -> Phase:
    """Run whole cycles until `seconds` have passed (at least one)."""
    run = Phase(tally, tracer)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        workload.cycle(i, run)
        t1, c1 = time.perf_counter(), time.process_time()
        run.cycles.append(t1 - t0)
        run.cycles_cpu.append(c1 - c0)
        i += 1
        if t1 >= deadline:
            break
    run.wall = time.perf_counter() - start
    run.cpu = sum(run.cycles_cpu)
    workload.finish(run)
    return run


def _p50(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[-1] if len(xs) >= P90_MIN_SAMPLES else 0.0


def op_metrics(run: Phase, tally: Tally) -> dict[str, float]:
    s = run.samples
    out = {}
    for kind in ("keygen", "sign", "verify"):
        out[f"{kind}_ms_p50"] = _p50(s[kind]) * 1e3
        out[f"{kind}_ms_p90"] = _p90(s[kind]) * 1e3
    out["optimize_s_p50"] = _p50(s["optimize"])
    trials = sum(t for pool in run.pools.values() for t, _ in pool)
    out["mc_trials_per_s"] = trials / sum(s["mc"]) if s["mc"] else 0.0
    out["error_rate"] = tally.failed / tally.attempted if tally.attempted else 0.0
    return out


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "spanse": spanse.__version__,
        "machine": platform.machine(),
    }


def _git_sha() -> str | None:
    """HEAD of a `.git` directory in the checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes(), imports_s: tuple[float, ...] = (0.0,)) -> tuple[dict, dict]:
    """Set up, measure and return (result, report) for one workload run."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        tally = Tally()
        setups = []
        for _ in range(sizes.setup_repeats):
            t0 = time.perf_counter()
            workload = make_workload(name, work, seed, sizes)
            workload.setup()
            workload.warm_up(Phase(tally))
            setups.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports_s) + statistics.median(setups)
        if not trace:
            plain = measure(workload, seconds, tally)
            metrics = {
                "setup_s": setup_s,
                "cycles_per_cpu_s": len(plain.cycles) / plain.cpu,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
        else:
            # untraced then traced over the same inputs; the difference in
            # CPU time per cycle is the tracing overhead
            plain = measure(workload, seconds / 2, tally)
            tracer = tracing.Tracer()
            tracer.install()
            tracer.active = True
            try:
                traced = measure(workload, seconds / 2, tally, tracer)
            finally:
                tracer.active = False
                tracer.uninstall()
            metrics = tracing.layer_metrics(tracer, len(traced.cycles), traced.wall)
            n = min(len(plain.cycles), len(traced.cycles))
            base_ms = statistics.median(plain.cycles_cpu[:n]) * 1e3
            over_ms = statistics.median(traced.cycles_cpu[:n]) * 1e3 - base_ms
            metrics["trace.overhead_ms"] = over_ms
            metrics["trace.overhead_pct"] = 100.0 * over_ms / base_ms
            metrics.update(op_metrics(plain, tally))
            units = dict(tracing.LAYER_METRICS + list(OP_METRICS))
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        report = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "sizes": asdict(sizes), "env": environment(),
            "setup": {"imports_s": list(imports_s), "repeats_s": setups},
            "cycles": len(plain.cycles),
            "wall_s": plain.wall,
            "cpu_s": plain.cpu,
            "ops": {k: {"n": len(v), "p50_ms": _p50(v) * 1e3, "p90_ms": _p90(v) * 1e3 or None}
                    for k, v in plain.samples.items()},
            "e2e": {"cycles_per_s": {"value": len(plain.cycles) / plain.wall, "unit": "1/s"}}
            | {k: {"value": v, "unit": dict(OP_METRICS)[k]}
               for k, v in op_metrics(plain, tally).items()},
            "failures": dict(tally.failures),
        }
        return result, report
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
