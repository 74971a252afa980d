"""Command-line front end.

Subcommands: eval, verify, zeros, scan, norm.  Every run emits one
self-describing record (human table by default, ``--format json`` for the
machine-readable form) and optional CSV for the tabular commands.  Output
is deterministic: identical invocations produce byte-identical payloads
apart from the timing field.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 convergence failure in strict mode.  A domain error includes an
unwritable ``--csv`` path and a non-finite input; like every failure it
still emits its record.  Each global flag sets one field of a config
type, and only when given: every default is the library's, except that
the CLI is strict.  The environment sets nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from .config import (
    MAX_QUAD_POINTS,
    MAX_SCAN_CELLS,
    OperatorConfig,
    SpecFunConfig,
    SummationConfig,
)
from .errors import ConvergenceError, DomainError, FracsumError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3

ZEROS_CSV_COLUMNS = (
    "index", "t", "residual", "bracket_lo", "bracket_hi",
    "lambda_re", "lambda_im", "lambda_is_real", "abs_zeta",
    "analytic_residual", "numeric_residual", "boundary_f0_abs", "boundary_fhalf_abs",
)
SCAN_CSV_COLUMNS = (
    "s_re", "s_im", "abs_zeta", "analytic_residual",
    "lambda_re", "lambda_im", "lambda_is_real", "flags",
)


def parse_complex(text: str) -> complex:
    """Parse the CLI complex format: ``a``, ``a+bi``, ``a-bi`` (no spaces)."""
    t = text.strip()
    if not t:
        raise DomainError("empty complex literal")
    if not t.endswith("i"):
        try:
            return complex(float(t), 0.0)
        except ValueError as exc:
            raise DomainError(f"cannot parse {text!r} as a number") from exc
    try:
        return complex(t[:-1] + "j")
    except ValueError as exc:
        raise DomainError(f"cannot parse {text!r} as a complex number") from exc


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


_encode_leaf = json.JSONEncoder().encode
# json writes this string as a quote and then a backslash, which never
# follows a closing quote; so its text shows up in json's output only where
# a string equals it
_ROWS_MARK = "\0fracsum rows\0"


class _Rows:
    """A list of flat dicts held as columns: the str keys (plain names
    without "%"), and one 1-D numpy array per key, of floats, of bools or
    of str objects.  Iterating gives the row dicts, of Python values."""

    def __init__(self, keys, columns) -> None:
        self.keys, self.columns = tuple(keys), list(columns)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return (dict(zip(self.keys, row)) for row in zip(*(c.tolist() for c in self.columns)))


_ROWS_BLOCK = 512


def _column_text(col):
    """A function from a slice of the array col to its values' json texts.

    A column of few distinct values encodes each value once: bool and str
    columns always, and float columns where fewer than half the values
    differ (such as the scan's grid coordinates).  Floats are told apart by
    their bits, which keep 0.0, -0.0 and NaN apart where == does not.  A
    float column whose values mostly differ is one encoder call per slice,
    so that its texts are never held all at once.
    """
    if col.dtype.kind == "f":
        distinct, at = np.unique(col.view(np.int64), return_inverse=True)
        if 2 * distinct.size < col.size:
            texts = np.array(_numbers_text(distinct.view(float).tolist()), dtype=object)
            return lambda part: texts[at[part]].tolist()
        return lambda part: _numbers_text(col[part].tolist())
    values = col.tolist()
    if not set(map(type, values)) <= {str, bool}:
        raise TypeError("a row column holds neither floats nor only str and bool values")
    # equal values of these types have equal texts
    code = {v: _encode_leaf(v) for v in set(values)}
    return lambda part: map(code.__getitem__, values[part])


def _numbers_text(values):
    # one encoder call; no number's text holds json's item separator
    return _encode_leaf(values)[1:-1].split(", ")


def _rows_parts(rows: _Rows, out: list, pad: str) -> None:
    """Append the text of json.dumps(list(rows), indent=2), one piece per
    block of _ROWS_BLOCK rows.

    A block is one flat list of every row's separators and value texts,
    joined once: the separators stay in place from block to block, and
    each column's texts are put in theirs by one slice assignment.
    """
    n = len(rows)
    if not n:
        out.append("[]")
        return
    inner, item = pad + "  ", pad + "    "
    keys = [_encode_leaf(k) + ": " for k in rows.keys]
    seps = [",\n" + inner + "{\n" + item + keys[0],
            *(",\n" + item + k for k in keys[1:]), "\n" + inner + "}"]
    stride = len(seps) + len(keys)  # a row: seps[0], text, seps[1], ..., text, seps[-1]
    texts = [_column_text(col) for col in rows.columns]
    flat = [piece for sep in seps for piece in (sep, None)][:-1] * min(n, _ROWS_BLOCK)
    head = len(out)
    for lo in range(0, n, _ROWS_BLOCK):
        del flat[stride * (n - lo):]  # the last block may be short
        for j, text in enumerate(texts):
            flat[2 * j + 1::stride] = text(slice(lo, lo + _ROWS_BLOCK))
        out.append("".join(flat))
    out[head] = "[" + out[head][1:]
    out.append("\n" + pad + "]")


def _json_parts(value, out: list) -> None:
    """Append the text of json.dumps(value, indent=2) to out, in pieces.

    A complex is written as {"re", "im"}, and each _Rows as its list of row
    dicts by _rows_parts, spliced in where json wrote _ROWS_MARK.  Anything
    else json cannot encode raises its TypeError.
    """
    tables = []

    def plain(v):
        if isinstance(v, complex):
            return {"re": v.real, "im": v.imag}
        if isinstance(v, _Rows):
            tables.append(v)
            return _ROWS_MARK
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    pieces = json.dumps(value, indent=2, default=plain).split(_encode_leaf(_ROWS_MARK))
    if len(pieces) != len(tables) + 1:
        raise ValueError("a string in the value equals the row-table mark")
    out.append(pieces[0])
    for rows, before, after in zip(tables, pieces, pieces[1:]):
        line = before.rpartition("\n")[2]
        _rows_parts(rows, out, line[:len(line) - len(line.lstrip(" "))])
        out.append(after)


def build_parser() -> argparse.ArgumentParser:
    # global flags are declared on a parent with SUPPRESS defaults so they
    # may appear before or after the subcommand without the subparser's
    # defaults clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"),
                        default=argparse.SUPPRESS,
                        help="output representation (default: table)")
    common.add_argument("--strict", action=argparse.BooleanOptionalAction,
                        default=argparse.SUPPRESS,
                        help="raise on non-converged limits (default: on)")
    common.add_argument("--abs-tol", type=float, default=argparse.SUPPRESS,
                        help="summation-limit tolerance "
                             f"(default: {SummationConfig.abs_tol})")
    common.add_argument("--diff-step", type=float, default=argparse.SUPPRESS,
                        help="finite-difference step for p "
                             f"(default: {OperatorConfig.diff_step})")
    common.add_argument("--em-terms", type=int, default=argparse.SUPPRESS,
                        help="explicit terms before the Euler-Maclaurin tail, "
                             "taken only by Hurwitz points with a below it "
                             f"(default: {SpecFunConfig.em_terms})")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="accepted for compatibility; has no effect")

    p = argparse.ArgumentParser(
        prog="fracsum",
        description="fractional sums, the operator R = Xp + pX, and "
                    "eigenvalue reality at critical-line zeta zeros",
        parents=[common],
    )
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate a fractional sum", parents=[common])
    pe.add_argument("expr", choices=("fracpow", "sumlog", "sigma"),
                    help="fracpow: closed form x^[-s]; sumlog: log Gamma(x+1); "
                         "sigma: the raw summation limit for v^(-s)")
    pe.add_argument("--x", type=float, required=True)
    pe.add_argument("--s", type=str, default=None, help="complex, e.g. 0.5+3i")

    pv = sub.add_parser("verify", help="run a property suite", parents=[common])
    pv.add_argument("suite", choices=("lemmas", "operators", "all"))
    pv.add_argument("--seed", type=int, default=0)

    pz = sub.add_parser("zeros", help="critical-line zeros with eigen reports",
                        parents=[common])
    pz.add_argument("t_min", type=float)
    pz.add_argument("t_max", type=float)
    pz.add_argument("--csv", type=str, default=None, help="write one row per zero")
    pz.add_argument("--numeric-residual", action="store_true",
                    help="also run the nested numeric R defect per zero (slow)")

    ps = sub.add_parser("scan", help="sweep the strip and tabulate residuals",
                        parents=[common])
    ps.add_argument("re0", type=float)
    ps.add_argument("re1", type=float)
    ps.add_argument("im0", type=float)
    ps.add_argument("im1", type=float)
    ps.add_argument("n_re", type=int, help="grid points along Re s")
    ps.add_argument("n_im", type=int, help="grid points along Im s; n_re * n_im is at "
                                           f"most {MAX_SCAN_CELLS}")
    ps.add_argument("--csv", type=str, default=None)

    pn = sub.add_parser("norm", help="truncated half-shift norm diagnostics",
                        parents=[common])
    pn.add_argument("--s", type=str, required=True)
    pn.add_argument("--T", type=float, required=True)
    pn.add_argument("--quad-points", type=int, default=4000,
                    help=f"Simpson points over [0, T], from 1000 to {MAX_QUAD_POINTS} "
                         "(default: 4000)")
    return p


def _configs(args):
    """(OperatorConfig, SpecFunConfig) of the global flags given; a flag
    left out is absent from args (SUPPRESS), so its field keeps the
    library default.  The one summation config is op_cfg.sum_cfg."""
    given = vars(args)

    def pick(name):
        return {name: given[name]} if name in given else {}

    sum_cfg = SummationConfig(strict=given.get("strict", True), **pick("abs_tol"))
    return (OperatorConfig(sum_cfg=sum_cfg, **pick("diff_step")),
            SpecFunConfig(**pick("em_terms")))


def _write_csv(path: str, columns, rows) -> None:
    # booleans are written as 0/1, so that every field reads back as a number
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_render(int(v) if isinstance(v, bool) else v)
                                  for v in (row[c] for c in columns)) + "\n")
    except OSError as exc:
        raise DomainError(f"cannot write CSV: {exc}") from exc


def read_records_csv(path: str) -> list[dict]:
    """Read back a CSV written by this tool, restoring numeric fields."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    out = []
    for ln in lines[1:]:
        row = {}
        for key, raw in zip(header, ln.split(",")):
            try:
                row[key] = float(raw)
            except ValueError:
                row[key] = raw
        out.append(row)
    return out


# Each command imports the layers it runs inside its handler, so that a run
# loads only those: zeros (without --numeric-residual) and scan never load
# fracsum.core or fracsum.operators, and only verify loads fracsum.verify.
def _cmd_eval(args, cfgs, diagnostics):
    from .core import frac_power_with_error, fractional_sum_limit, power_fn, sum_log_with_error
    op_cfg, spec_cfg = cfgs
    x = float(args.x)
    inputs = {"expr": args.expr, "x": x}
    if args.expr == "sumlog":
        value, err = sum_log_with_error(x)
        results = {"value": value, "err_estimate": err, "method": "log_gamma"}
        return inputs, results, EXIT_OK
    if args.s is None:
        raise DomainError(f"eval {args.expr} requires --s")
    s = parse_complex(args.s)
    inputs["s"] = s
    if args.expr == "fracpow":
        value, err = frac_power_with_error(x, s, spec_cfg)
        results = {"value": value, "err_estimate": err, "method": "closed_form"}
        return inputs, results, EXIT_OK
    # sigma: the raw limit, for direct comparison against fracpow; v^(-s) is
    # asymptotically flat only for Re(s) > -1, the domain of fracpow too
    if s.real <= -1.0:
        raise DomainError(f"eval sigma requires Re(s) > -1, got {s}")
    res = fractional_sum_limit(power_fn(s), x, op_cfg.sum_cfg)
    results = {
        "value": res.value,
        "err_estimate": res.err_estimate,
        "n_used": res.n_used,
        "converged": res.converged,
        "method": "summation_limit",
    }
    if not res.converged:
        diagnostics.append({"level": "warning", "message": "limit did not converge"})
    return inputs, results, EXIT_OK


def _cmd_verify(args, cfgs, diagnostics):
    op_cfg, spec_cfg = cfgs
    # verification always measures leniently (see README): each check
    # reports the defect its limits reached, converged or not
    op_cfg = replace(op_cfg, sum_cfg=replace(op_cfg.sum_cfg, strict=False))
    from .verify import run_suite
    checks = run_suite(args.suite, args.seed, op_cfg, spec_cfg)
    rows = [asdict(c) for c in checks]
    failed = [c.name for c in checks if not c.passed]
    for name in failed:
        diagnostics.append({"level": "error", "message": f"property failed: {name}"})
    inputs = {"suite": args.suite, "seed": args.seed}
    results = {"checks": rows, "n_failed": len(failed)}
    return inputs, results, EXIT_VERIFY if failed else EXIT_OK


def _cmd_zeros(args, cfgs, diagnostics):
    from .spectrum import eigen_columns, find_critical_zeros
    op_cfg, spec_cfg = cfgs
    zeros = find_critical_zeros(args.t_min, args.t_max, spec_cfg)
    cols = eigen_columns(zeros, op_cfg, spec_cfg, args.numeric_residual)
    cols.update(lambda_re=cols["lam"].real, lambda_im=cols["lam"].imag)
    rows = [dict(zip(ZEROS_CSV_COLUMNS, (z.index, z.t, z.residual, *z.bracket, *rest)))
            for z, rest in zip(zeros, zip(*(cols[k].tolist() for k in ZEROS_CSV_COLUMNS[5:])))]
    inputs = {"t_min": args.t_min, "t_max": args.t_max,
              "numeric_residual": bool(args.numeric_residual)}
    results = {"n_zeros": len(zeros), "zeros": rows}
    if args.csv:
        _write_csv(args.csv, ZEROS_CSV_COLUMNS, rows)
        results["csv"] = args.csv
    return inputs, results, EXIT_OK


def _cmd_scan(args, cfgs, diagnostics):
    from .spectrum import scan_columns
    _, spec_cfg = cfgs
    cols = scan_columns((args.re0, args.re1), (args.im0, args.im1),
                        args.n_re, args.n_im, spec_cfg)
    s, lam, flag = cols["s"], cols["lam"], cols["flag"]
    rows = _Rows(SCAN_CSV_COLUMNS, [
        s.real, s.imag, cols["abs_zeta"], cols["analytic_residual"], lam.real, lam.imag,
        cols["lambda_is_real"], flag])
    n_cells, n_error = len(rows), int((flag == "error:ConvergenceError").sum())
    inputs = {"re0": args.re0, "re1": args.re1, "im0": args.im0, "im1": args.im1,
              "n_re": args.n_re, "n_im": args.n_im}
    results = {"n_cells": n_cells, "n_error": n_error, "cells": rows}
    if args.csv:
        _write_csv(args.csv, SCAN_CSV_COLUMNS, rows)
        results["csv"] = args.csv
    if n_error > 0.1 * n_cells:
        diagnostics.append({"level": "error",
                            "message": f"{n_error}/{n_cells} cells failed"})
        return inputs, results, EXIT_CONVERGENCE
    return inputs, results, EXIT_OK


def _cmd_norm(args, cfgs, diagnostics):
    from .spectrum import half_shift_norm
    _, spec_cfg = cfgs
    s = parse_complex(args.s)
    res = half_shift_norm(s, args.T, args.quad_points, spec_cfg)
    verdict = "finite-trend" if res.decay_exponent < -1.0 else "divergent-trend"
    inputs = {"s": s, "T": args.T, "quad_points": args.quad_points}
    results = {
        "truncated_norm_sq": res.truncated_norm_sq,
        "decay_exponent": res.decay_exponent,
        "expected_exponent": -2.0 * s.real,
        "verdict": verdict,
    }
    return inputs, results, EXIT_OK


_HANDLERS = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "zeros": _cmd_zeros,
    "scan": _cmd_scan,
    "norm": _cmd_norm,
}


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        # the bytes of print(json.dumps(record, indent=2)), written piece by
        # piece (a table's piece is a block of rows) so that the whole text
        # is never one more string; a value json cannot encode raises
        # before any is written
        parts: list[str] = []
        _json_parts(record, parts)
        parts.append("\n")
        for part in parts:
            sys.stdout.write(part)
        return
    print(f"fracsum {record['command']}  (schema {record['schema_version']})")
    for key, val in record["inputs"].items():
        print(f"  input   {key} = {_render(val)}")
    _render_results(record["results"], indent="  ")
    for d in record["diagnostics"]:
        tag = d["level"] if "error_class" not in d else f"{d['level']}:{d['error_class']}"
        print(f"  [{tag}] {d['message']}")
    print(f"  timing_ms = {record['timing_ms']:.3f}")


def _render(val) -> str:
    if isinstance(val, complex):
        return format_complex(val)
    if isinstance(val, float):
        # repr round-trips doubles exactly, which beats any fixed digit count
        return repr(float(val))
    return str(val)


def _render_results(results: dict, indent: str) -> None:
    for key, val in results.items():
        if isinstance(val, _Rows):
            val = list(val)
        if isinstance(val, list) and val and isinstance(val[0], dict):
            print(f"{indent}{key}:")
            cols = list(val[0].keys())
            print(f"{indent}  " + " | ".join(cols))
            for row in val:
                print(f"{indent}  " + " | ".join(_render(row[c]) for c in cols))
        else:
            print(f"{indent}result  {key} = {_render(val)}")


def _join_complex_values(argv: list[str]) -> list[str]:
    """Rewrite ``--s VALUE`` as ``--s=VALUE`` when VALUE is a complex literal.

    argparse takes a separate ``-0.5+3i`` for an option, so without this a
    negative real part would need the ``--s=`` spelling.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--s":
            try:
                parse_complex(tok)
            except DomainError:
                pass
            else:
                out[-1] = f"--s={tok}"
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_complex_values(argv))
    t0 = time.perf_counter()
    diagnostics: list[dict] = []
    try:
        inputs, results, code = _HANDLERS[args.command](args, _configs(args), diagnostics)
    except FracsumError as exc:
        # a failed run reports only its error, not the partial diagnostics
        inputs, results = {}, {}
        code = EXIT_CONVERGENCE if isinstance(exc, ConvergenceError) else EXIT_USAGE
        diagnostics = [{"level": "error", "message": str(exc),
                        "error_class": type(exc).__name__}]
    record = {
        "schema_version": "1",
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
        "timing_ms": (time.perf_counter() - t0) * 1000.0,
    }
    _emit(record, getattr(args, "format", "table"))
    return code


if __name__ == "__main__":
    sys.exit(main())
