"""In-memory span tracer for the benchmark's traced run.

The library is not edited. `Tracer.install` replaces each traced function
with a wrapper at every place it is bound: its home module and every other
`spanse` module that imported it by name (`qc_mat_inv` lives in `qcalg` and
is bound again in `scheme`, `ldgm` and `serial`). A function that no longer
exists is skipped, so its metrics read 0 instead of breaking the run.

While active, each wrapped call records a span [name, start, end, parent]
in a list; `layer_metrics` turns the spans into calls and self time (span
duration minus the time its direct children cover) per span name, plus the
counters the wrappers note from arguments and results. `params` and
`field` are not traced: they only parse parameters and test primes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

from spanse import qcalg

# span names, grouped by layer; each gets `<name>.calls` and `<name>.self_s`
SPANS = {
    "qcalg": ("qcalg.qc_mat_inv", "qcalg.poly_inv", "qcalg.conv_outer",
              "qcalg.block_matmul", "qcalg.dense_fallback", "qcalg.qc_mat_mul",
              "qcalg.qc_vec_mul_sparse", "qcalg.qc_vec_mul_dense", "qcalg.transpose"),
    "ldgm": ("ldgm.sample_generator", "ldgm.make_code",
             "ldgm.systematic_parity_check", "ldgm.codeword"),
    "scheme": ("scheme.keygen", "scheme.sign", "scheme.derive_syndrome", "scheme.verify"),
    "serial": ("serial.deserialize_private", "serial.deserialize_public",
               "serial.deserialize_signature", "serial.serialize_private",
               "serial.serialize_public", "serial.atomic_write"),
    "analysis": ("analysis.optimize_attack", "analysis.simulate_batch",
                 "analysis.rejection_analytic"),
    # opened by the harness around each `spanse.cli.main` call: argparse,
    # file reads, size_report and printing land in their self time
    "cli": ("cli.keygen", "cli.sign", "cli.verify", "cli.analyze"),
}

VERIFY_REASONS = ("zero-entry", "syndrome-weight", "syndrome-mismatch")
SERIAL_BYTES = ("deserialize_private", "deserialize_public", "deserialize_signature",
                "serialize_private", "serialize_public", "atomic_write")

# (name, unit) of every metric `layer_metrics` returns. Counts and
# times are per traced cycle, so a faster program that fits more cycles
# into the run does not read as doing more work.
LAYER_METRICS = (
    [(f"{s}.calls", "count/cycle") for spans in SPANS.values() for s in spans]
    + [(f"{s}.self_s", "s/cycle") for spans in SPANS.values() for s in spans]
    + [(f"layer.{layer}.self_s", "s/cycle") for layer in SPANS]
    + [
        ("qcalg.qc_mat_inv.singular", "count/cycle"),
        ("qcalg.poly_inv.unit_ratio", "ratio"),
        ("qcalg.conv_outer.out_coeffs", "count/cycle"),
        ("qcalg.dense_fallback.skipped_large", "count/cycle"),
        ("ldgm.make_code.accept_ratio", "ratio"),
        ("scheme.keygen.s_draws", "count/cycle"),
        ("scheme.sign.attempts", "count/cycle"),
        ("scheme.sign.accept_ratio", "ratio"),
        ("analysis.best_over_nu.calls", "count/cycle"),
        ("analysis.simulate_batch.trials", "count/cycle"),
    ]
    + [(f"scheme.verify.reject.{r}", "count/cycle") for r in VERIFY_REASONS]
    + [(f"serial.{f}.bytes", "B/cycle") for f in SERIAL_BYTES]
    + [
        ("trace.cycles", "count"),
        ("trace.spans", "count/cycle"),
        ("trace.overhead_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.unattributed_share", "ratio"),
    ]
)


def _vec_mul_name(args) -> str:
    sparse = isinstance(args[0], qcalg.SparseVector)
    return "qcalg.qc_vec_mul_sparse" if sparse else "qcalg.qc_vec_mul_dense"


def _note_fallback(counts, args, result):
    limit = getattr(qcalg, "_DENSE_FALLBACK_LIMIT", None)
    if limit is not None and args[0].rows0 * args[0].p > limit:
        counts["qcalg.dense_fallback.skipped_large"] += 1


def _note_verify(counts, args, result):
    if not result.accepted:
        counts[f"scheme.verify.reject.{result.reason}"] += 1


# (module, attribute, span name or callable(args) -> name, note). A note
# gets (counts, args, result) after a call returns while tracing is on.
SPANNED = (
    ("spanse.qcalg", "qc_mat_inv", "qcalg.qc_mat_inv",
     lambda c, a, r: c.update({"qcalg.qc_mat_inv.singular": r is None})),
    ("spanse.qcalg", "_poly_inv_raw", "qcalg.poly_inv",
     lambda c, a, r: c.update({"qcalg.poly_inv.units": r is not None})),
    ("spanse.qcalg", "_conv_outer", "qcalg.conv_outer",
     lambda c, a, r: c.update({"qcalg.conv_outer.out_coeffs":
                               a[0].shape[0] * a[1].shape[0] * a[2]})),
    ("spanse.qcalg", "_block_matmul", "qcalg.block_matmul", None),
    ("spanse.qcalg", "_qc_inv_dense_fallback", "qcalg.dense_fallback", _note_fallback),
    ("spanse.qcalg", "qc_mat_mul", "qcalg.qc_mat_mul", None),
    ("spanse.qcalg", "qc_vec_mul", _vec_mul_name, None),
    ("spanse.qcalg", "QCMatrix.transpose", "qcalg.transpose", None),
    ("spanse.ldgm", "sample_generator", "ldgm.sample_generator", None),
    ("spanse.ldgm", "make_code", "ldgm.make_code", None),
    ("spanse.ldgm", "systematic_parity_check", "ldgm.systematic_parity_check", None),
    ("spanse.ldgm", "codeword_from_generator", "ldgm.codeword", None),
    ("spanse.scheme", "keygen", "scheme.keygen", None),
    ("spanse.scheme", "sign", "scheme.sign",
     lambda c, a, r: c.update({"scheme.sign.attempts": r[1]})),
    ("spanse.scheme", "derive_syndrome", "scheme.derive_syndrome", None),
    ("spanse.scheme", "verify", "scheme.verify", _note_verify),
    ("spanse.serial", "deserialize_private", "serial.deserialize_private",
     lambda c, a, r: c.update({"serial.deserialize_private.bytes": len(a[0])})),
    ("spanse.serial", "deserialize_public", "serial.deserialize_public",
     lambda c, a, r: c.update({"serial.deserialize_public.bytes": len(a[0])})),
    ("spanse.serial", "deserialize_signature", "serial.deserialize_signature",
     lambda c, a, r: c.update({"serial.deserialize_signature.bytes": len(a[0])})),
    ("spanse.serial", "serialize_private", "serial.serialize_private",
     lambda c, a, r: c.update({"serial.serialize_private.bytes": len(r)})),
    ("spanse.serial", "serialize_public", "serial.serialize_public",
     lambda c, a, r: c.update({"serial.serialize_public.bytes": len(r)})),
    ("spanse.serial", "atomic_write", "serial.atomic_write",
     lambda c, a, r: c.update({"serial.atomic_write.bytes": len(a[1])})),
    ("spanse.analysis", "optimize_attack", "analysis.optimize_attack", None),
    ("spanse.analysis", "_simulate_batch", "analysis.simulate_batch",
     lambda c, a, r: c.update({"analysis.simulate_batch.trials": a[2]})),
    ("spanse.analysis", "rejection_rate_analytic", "analysis.rejection_analytic", None),
)

# (module, attribute, counter): calls counted without a span, for functions
# called too often for a span each or only worth a count
COUNTED = (
    ("spanse.scheme", "sample_dense_transform", "scheme.keygen.s_draws"),
    ("spanse.analysis", "_best_over_nu", "analysis.best_over_nu.calls"),
)


class Tracer:
    """Spans and counters of wrapped calls, recorded only while `active`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    @contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the harness itself calls the library."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float):
        rec = self.spans[idx]
        rec[1], rec[2] = start, time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name(args) if callable(name) else name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start)
            if note is not None:
                try:
                    note(tracer.counts, args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the counter, not the run
            return result

        return traced

    def _counter(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every target that exists, at every `spanse` module binding it."""
        import spanse.cli  # noqa: F401  (loads every traced module)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spanse" or n.startswith("spanse.")]
        targets = [(home, attr, lambda fn, n=name, note=note: self._wrap(fn, n, note))
                   for home, attr, name, note in SPANNED]
        targets += [(home, attr, lambda fn, key=key: self._counter(fn, key))
                    for home, attr, key in COUNTED]
        for home, attr, make in targets:
            owner = sys.modules.get(home)
            *cls, fname = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            original = getattr(owner, fname, None)
            if original is None:
                continue
            wrapped = make(original)
            self._patch(owner, fname, wrapped)
            if cls:
                continue  # a method is bound only on its class
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)


def layer_metrics(tracer: Tracer, cycles: int, wall_s: float) -> dict[str, float]:
    """Every metric in LAYER_METRICS except `trace.overhead_*`, per cycle."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    under: Counter = Counter()  # (child name, parent name) pairs
    rooted = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child[i]
        if parent < 0:
            rooted += end - start
        else:
            under[(name, spans[parent][0])] += 1
    counts = tracer.counts
    per = 1.0 / max(cycles, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for layer, names in SPANS.items():
        for s in names:
            out[f"{s}.calls"] = calls[s] * per
            out[f"{s}.self_s"] = self_s[s] * per
        out[f"layer.{layer}.self_s"] = sum(self_s[s] for s in names) * per
    for key in ("qcalg.qc_mat_inv.singular", "qcalg.conv_outer.out_coeffs",
                "qcalg.dense_fallback.skipped_large", "scheme.keygen.s_draws",
                "scheme.sign.attempts", "analysis.best_over_nu.calls",
                "analysis.simulate_batch.trials"):
        out[key] = counts[key] * per
    out["qcalg.poly_inv.unit_ratio"] = ratio(counts["qcalg.poly_inv.units"],
                                             calls["qcalg.poly_inv"])
    out["ldgm.make_code.accept_ratio"] = ratio(
        calls["ldgm.make_code"], under[("ldgm.sample_generator", "ldgm.make_code")])
    out["scheme.sign.accept_ratio"] = ratio(calls["scheme.sign"],
                                            counts["scheme.sign.attempts"])
    for r in VERIFY_REASONS:
        out[f"scheme.verify.reject.{r}"] = counts[f"scheme.verify.reject.{r}"] * per
    for f in SERIAL_BYTES:
        out[f"serial.{f}.bytes"] = counts[f"serial.{f}.bytes"] * per
    out["trace.cycles"] = cycles
    out["trace.spans"] = len(spans) * per
    # rooted spans partition into self times, so this is the wall time
    # outside every layer: the harness's own loop, file generation, checks
    out["trace.unattributed_share"] = ratio(wall_s - rooted, wall_s)
    return out
