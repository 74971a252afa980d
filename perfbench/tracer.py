"""Run one fracsum CLI invocation in this process with spans around each layer.

    python3 perfbench/tracer.py SPANS_JSON -- <fracsum arguments>

The package is left untouched: each traced function is replaced, under
every module name that refers to it, by a wrapper that records a span
(name, start, end, parent) and a few attributes in memory.  The spans are
written to SPANS_JSON when the command returns; the command's own output
goes to stdout as usual, and the exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

import numpy as np

import fracsum
from fracsum import cli, core, operators, specfun, spectrum, verify

MODULES = (fracsum, specfun, core, operators, spectrum, verify, cli)


class Tracer:
    """Spans kept as [name, start, end, parent, attrs] in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out
        return traced

    def patch(self, owner, attr, name, attrs=None, wrap=None):
        """Replace owner.attr under every module name bound to it."""
        orig = getattr(owner, attr)
        new = wrap(orig) if wrap is not None else self.span(name, orig, attrs)
        for mod in MODULES:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, new)

    def traced_eval(self, name, fn, keep_x=False):
        """The EvalFn fn with its pointwise map recorded as span ``name``."""
        tag = len(self.spans)  # distinguishes operator instances

        def attrs(args, kwargs, out):
            x = np.atleast_1d(np.asarray(args[0], dtype=float))
            rec = {"points": int(x.size)}
            if keep_x:
                rec["keys"] = [[tag, float(v)] for v in x]
            return rec

        return replace(fn, eval=self.span(name, fn.eval, attrs))


def install(tr: Tracer) -> None:
    def hurwitz_attrs(args, kwargs, out):
        a = args[1]
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg", specfun.DEFAULT_SPECFUN)
        if isinstance(a, float):
            return {"points": 1, "large_a": int(a >= cfg.em_terms)}
        a = np.atleast_1d(np.asarray(a, dtype=float))
        return {"points": int(a.size), "large_a": int(np.count_nonzero(a >= cfg.em_terms))}

    def zeta_attrs(args, kwargs, out):
        s = complex(args[0])
        return {"s": [s.real, s.imag]}

    def fsl_attrs(args, kwargs, out):
        return {"n_used": out.n_used, "converged": out.converged,
                "err": out.err_estimate}

    tr.patch(specfun, "hurwitz_zeta_with_error", "specfun.hurwitz", hurwitz_attrs)
    tr.patch(specfun, "riemann_zeta", "specfun.riemann_zeta", zeta_attrs)
    tr.patch(specfun, "log_gamma", "specfun.log_gamma")
    tr.patch(specfun, "hardy_z", "specfun.hardy_z")
    tr.patch(core, "fractional_sum_limit", "core.fsl", fsl_attrs)
    tr.patch(core, "frac_power", "core.frac_power")

    def wrap_factory(name, keep_x=False, numeric_only=False):
        def wrap(factory):
            def build(f, *args, **kwargs):
                out = factory(f, *args, **kwargs)
                if numeric_only and f.analytic_derivative is not None:
                    return out
                return tr.traced_eval(name, out, keep_x)
            return build
        return wrap

    tr.patch(operators, "apply_X", None, wrap=wrap_factory("operators.X", keep_x=True))
    tr.patch(operators, "apply_p", None,
             wrap=wrap_factory("operators.p_numeric", numeric_only=True))
    tr.patch(operators, "apply_R", None, wrap=wrap_factory("operators.R"))
    tr.patch(spectrum, "find_critical_zeros", "spectrum.find_zeros")
    tr.patch(spectrum, "_bisect_zero", "spectrum.bisect")
    tr.patch(spectrum, "eigen_residual", "spectrum.eigen_residual")
    tr.patch(spectrum, "scan_s_plane", "spectrum.scan",
             lambda a, k, o: {"cells": len(o)})
    tr.patch(verify, "run_suite", "verify.run_suite", lambda a, k, o: {"checks": len(o)})
    tr.patch(verify, "lemma_suite", "verify.lemma_suite")
    tr.patch(verify, "operator_suite", "verify.operator_suite")


class _CountingWriter:
    """Text stream that forwards to another and counts the bytes written."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.bytes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode("utf-8"))
        return self.inner.write(text)

    def flush(self) -> None:
        self.inner.flush()


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <fracsum arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tr = Tracer()
    install(tr)
    writer = _CountingWriter(sys.stdout)
    sys.stdout = writer
    try:
        code = tr.span("cli.main", cli.main)(cli_args)
    finally:
        sys.stdout = writer.inner
        sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.spans, "record_bytes": writer.bytes}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
