"""Per-layer tracing from outside the program.

The tracer wraps public entry points of each spdmeans layer, plus
``numpy.linalg.eigh``/``eigvalsh`` as the kernel's LAPACK boundary, for the
duration of a ``with tracer.installed(spdmeans):`` block. Nothing under
``src/`` is edited: the wrappers replace module attributes and are removed
on exit. Counters live on the tracer object and cover only calls made
while it is installed and not paused, so correctness gates run inside
``tracer.paused()`` stay out of the counts.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

import numpy as np

# Flop estimates for the symmetric eigensolver (Golub & Van Loan, 4th ed.,
# section 8.3): about 9 n^3 with eigenvectors, 4/3 n^3 for eigenvalues only.
# They are computed from the operand shapes, not measured. The tracer sums
# the integer n^3 per call kind, so the flop figure repeats exactly.
EIGH_FLOPS_PER_N3 = {"kernel.eigh.n3": 9.0, "kernel.eigvalsh.n3": 4.0 / 3.0}


class Tracer:
    """Span-style counters at the layer boundaries, kept in memory."""

    def __init__(self) -> None:
        self.counts: dict[str, float] = defaultdict(int)
        # Open spans: [name, eigh seconds seen inside]. A means span's self
        # time is its duration minus the eigh time inside it.
        self._stack: list[list] = []
        self._paused = 0

    @contextlib.contextmanager
    def paused(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- wrappers ------------------------------------------------------------

    def _wrap_eigh(self, fn, n3_key: str):
        def wrapper(a, *args, **kwargs):
            if self._paused:
                return fn(a, *args, **kwargs)
            t0 = time.perf_counter()
            out = fn(a, *args, **kwargs)
            dt = time.perf_counter() - t0
            shape = np.shape(a)
            n = shape[-1]
            batch = int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            c = self.counts
            c["kernel.eigh.calls"] += 1
            c["kernel.eigh.s"] += dt
            c["kernel.eigh.n_sum"] += n
            c[n3_key] += batch * n**3
            for frame in self._stack:
                frame[1] += dt
            return out
        return wrapper

    def _wrap_span(self, fn, name: str, on_exit=None):
        """Time ``fn`` as span ``name``; ``on_exit(args, result)`` adds counts."""
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            outer = not any(f[0].startswith("means.") for f in self._stack)
            self._stack.append(frame)
            t0 = time.perf_counter()
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                c = self.counts
                c[f"{name}.calls"] += 1
                c[f"{name}.s"] += dt
                c[f"{name}.eigh_inside_s"] += frame[1]
                if name.startswith("means."):
                    if outer:
                        c["means.outer_s"] += dt
                    if failed:
                        c[f"{name}.fail"] += 1
                if on_exit is not None and not failed:
                    on_exit(args, out)
        return wrapper

    def _wrap_karcher(self, fn):
        inner = self._wrap_span(fn, "means.karcher")

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            before = self.counts["kernel.eigh.calls"]
            try:
                return inner(*args, **kwargs)
            finally:
                self.counts["means.karcher.eigh_calls_inside"] += (
                    self.counts["kernel.eigh.calls"] - before)
        return wrapper

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, pkg):
        """Patch the layer boundaries of the imported package ``pkg``."""
        kernel, means, harness, cli = pkg.kernel, pkg.means, pkg.harness, pkg.cli
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr, new):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        patch(np.linalg, "eigh", self._wrap_eigh(np.linalg.eigh, "kernel.eigh.n3"))
        patch(np.linalg, "eigvalsh",
              self._wrap_eigh(np.linalg.eigvalsh, "kernel.eigvalsh.n3"))
        patch(kernel.SpdMatrix, "__init__",
              self._wrap_span(kernel.SpdMatrix.__init__, "kernel.certify"))

        # Every namespace that binds a mean function by name, so calls through
        # `mean(kind, ...)`, its dispatch table and direct imports all count.
        for kind in (k.value for k in means.MeanKind):
            attr = f"{kind}_mean"
            original = getattr(means, attr)
            if kind == "karcher":
                wrapped = self._wrap_karcher(original)
            else:
                wrapped = self._wrap_span(original, f"means.{kind}")
            for module in (means, harness, pkg):
                if getattr(module, attr, None) is original:
                    patch(module, attr, wrapped)
            for key, fn in list(means._DISPATCH.items()):
                if fn is original:
                    patches.append((means._DISPATCH, key, fn))
                    means._DISPATCH[key] = wrapped

        patch(harness, "gen_tuple",
              self._wrap_span(harness.gen_tuple, "harness.gen"))

        def count_in(args, _out):
            self.counts["cli.bytes_in"] += os.path.getsize(args[0])

        def count_out(_args, text):
            self.counts["cli.bytes_out"] += len(text.encode())

        patch(cli, "load_matrix_file",
              self._wrap_span(cli.load_matrix_file, "cli.parse", count_in))
        patch(cli, "render_matrix_file",
              self._wrap_span(cli.render_matrix_file, "cli.render", count_out))
        patch(cli, "mean", self._wrap_span(cli.mean, "cli.solve"))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)
