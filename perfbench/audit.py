"""Workload `audit`: the `theta-lab report` CLI, one child process per op.

The golden output is rebuilt here from the values the README pins, not
from the program, and every child's stdout must match it byte for byte.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# (label, pinned value, source), in report order.
PINNED = [
    ("p(0)", "1", "verlinde.hilbert_values"),
    ("p(1)", "10", "verlinde.hilbert_values"),
    ("p(2)", "58", "verlinde.verlinde_p2"),
    ("gamma", "1/604800", "hilbert.fit_hilbert"),
    ("basepoints", "6", "hilbert.fit_hilbert"),
    ("canonical power", "-6", "hilbert.canonical_power"),
    ("h0(4Theta)+", "10", "verlinde.theta_eigendims"),
    ("h0(4Theta)-", "6", "verlinde.theta_eigendims"),
    ("sym2 split", "(1, 5)", "lefschetz.split_eigendims"),
    ("sym2 rejected", "Infeasible", "lefschetz.split_eigendims"),
    ("hom(E_f,E_e) split", "(1, 3)", "lefschetz.split_eigendims"),
    ("hom(O(-w),E_e) split", "(1, 1)", "lefschetz.split_eigendims"),
    ("moduli dim (2,2)", "10", "bundles.moduli_dim"),
    ("mukai rank", "4", "bundles.raynaud_invariants"),
    ("duplication degree", "16", "bundles.raynaud_invariants"),
    ("pullback degree", "64", "bundles.raynaud_invariants"),
    ("slope E_c", "1", "bundles.raynaud_invariants"),
    ("chi(W x K)", "4", "bundles.chi"),
    ("slope F", "5/3", "bundles.slope"),
    ("|J[2]|", "16", "hyperelliptic.two_torsion"),
    ("Theta^2", "2", "bundles.theta_self_intersection"),
]


def golden(pinned) -> dict[str, bytes]:
    """The expected stdout of `report --format text` and `--format json`."""
    table = [("label", "computed", "expected", "status", "source")]
    table += [(label, value, value, "match", source) for label, value, source in pinned]
    widths = [max(len(row[i]) for row in table) for i in range(5)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in table]
    lines.append(f"{len(pinned)} rows, {len(pinned)} match, 0 mismatch")
    rows = [{"label": label, "computed": value, "expected": value, "source": source,
             "status": "match"} for label, value, source in pinned]
    return {"text": ("\n".join(lines) + "\n").encode(),
            "json": (json.dumps({"rows": rows}, indent=2) + "\n").encode()}


class Audit:
    def __init__(self, rng, root, fault=False):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.first = rng.randrange(2)
        pinned = PINNED
        if fault:
            pinned = [(l, "59" if l == "p(2)" else v, s) for l, v, s in PINNED]
        self.golden = golden(pinned)
        self._child("text")  # warm-up: the first child also writes bytecode caches

    def _child(self, fmt):
        proc = subprocess.run(
            [sys.executable, "-m", "thetalab.cli", "report", "--format", fmt],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, timeout=120)
        return proc.returncode, proc.stdout

    @staticmethod
    def _in_process(fmt):
        from thetalab import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["report", "--format", fmt])
        return code, out.getvalue().encode()

    def ops(self, in_process=False):
        """Alternate text and json; in-process through cli.main for tracing."""
        run = self._in_process if in_process else self._child
        i = self.first
        while True:
            fmt = ("text", "json")[i % 2]
            i += 1
            yield (lambda fmt=fmt: run(fmt)), (lambda out, exc, fmt=fmt: self._check(fmt, out, exc))

    def _check(self, fmt, out, exc):
        return exc is None and out == (0, self.golden[fmt])

    def import_ms(self, repeats=7) -> float:
        """Median `import thetalab.cli` in a child minus a bare interpreter start."""
        def child(code):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                           check=True, timeout=60)
            return time.perf_counter() - t0
        bare, full = [], []
        for _ in range(repeats):
            bare.append(child("pass"))
            full.append(child("import thetalab.cli"))
        return (statistics.median(full) - statistics.median(bare)) * 1e3

    @staticmethod
    def peak_rss_kb() -> int:
        """The largest report child so far (the work runs in children)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
