"""Command-line front end: file ingestion, analysis subcommands, CSV/JSON
and pixmap emission with deterministic exit codes.

Exit codes: 0 success (violation reports are data, not failures),
2 malformed input (including non-finite complex or float arguments, an
--escape or --rho of 0 or below, germ coefficients that are not [re, im,
exp2] triples of finite reals and an integral exponent, coefficients
outside the double range, and a petalcheck map whose petal no radius
certifies), 3 degenerate small divisor, 4 precision/iteration
budget exhausted with no partial output possible, or an allocation the
machine cannot satisfy (one error line, no --out).  Summary JSONs are
strict: non-finite floats are written as null.  A process enters through
run(), which ends it with os._exit once main() has returned and the
standard streams are flushed.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .cremer import greedy_quadratic, growth_profile, linear_example_phi, \
    write_growth_csv
from .errors import DegenerateDivisorError, LinearFiberError, PrecisionError
from .normalform import conjugacy_defect, normalize, reduce_parabolic_tail
from .petals import (ParabolicLocal, _local_region, critical_orbit_check,
                     fatou_slice, forward_invariance_check, iterate_orbit,
                     repelling_expansion_check, vertical_derivative_sum)
from .rotation import (_CHUNK, brjuno_partial_sum, cremer_running_max,
                       divisor_table, rotation_from_json, rotation_to_json,
                       unit_column, write_divisor_csv)
from .series import Bump, Gauge, Shift, germ_from_json, retruncate, \
    series_to_triples

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_BUDGET = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_rotation(source: str):
    try:
        if source.lstrip().startswith("{"):
            return rotation_from_json(source)
        with open(source) as fh:
            return rotation_from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        raise _CliError(EXIT_BAD_INPUT, f"cannot load rotation: {exc}") from exc


def _load_germ(path: str):
    try:
        with open(path) as fh:
            return germ_from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        raise _CliError(EXIT_BAD_INPUT, f"cannot load germ: {exc}") from exc


def _parse_complex(text: str) -> complex:
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            value = complex(float(re_s), float(im_s))
        else:
            value = complex(text)
    except ValueError as exc:
        raise _CliError(EXIT_BAD_INPUT, f"cannot parse complex {text!r}") from exc
    if not cmath.isfinite(value):
        raise _CliError(EXIT_BAD_INPUT, f"complex {text!r} is not finite")
    return value


def _out_dir(args) -> Path:
    """The --out directory, created only once every result is computed, so
    a rejected call leaves no directory behind."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # for example --out names an existing file
        raise _CliError(EXIT_BAD_INPUT,
                        f"cannot create output directory: {exc}") from exc
    return out


def _write_summary(out: Path, name: str, payload: dict) -> Path:
    payload = {"tool": "skewdyn", "version": __version__, **payload}
    # non-finite floats become null: written as NaN/Infinity tokens, read back as None
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    path = out / name
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _cjson(c: complex) -> list[float]:
    return [float(c.real), float(c.imag)]


def _config_echo(args) -> dict:
    """Every parsed argument that is set, apart from the subcommand's
    name, its handler and --out."""
    return {f: v for f, v in vars(args).items()
            if f not in ("command", "func", "out") and v is not None}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_brjuno(args) -> int:
    rot = _load_rotation(args.rotation)
    m_max = args.m_max
    if args.brjuno_k is not None:
        k_top = args.brjuno_k
        if k_top < 0:
            raise _CliError(EXIT_BAD_INPUT, "--brjuno-k must be nonnegative")
        if 2 ** (k_top + 1) > m_max:
            raise _CliError(EXIT_BAD_INPUT,
                            f"--brjuno-k {k_top} needs --m-max >= {2 ** (k_top + 1)}")
    else:
        k_top = m_max.bit_length() - 2  # the largest k with 2^(k+1) <= m_max
    table = divisor_table(rot, m_max)
    sums = {str(k): brjuno_partial_sum(table, k) for k in range(k_top + 1)}
    summary = {
        "config": _config_echo(args),
        "rotation": rotation_to_json(rot),
        "partial_quotients": rot.partial_quotients(16),
        "omega_final": float(table.omega(m_max)),
        "brjuno_partial_sums": sums,
        "cremer_running_max": cremer_running_max(table, m_max),
        "degenerate_indices": list(table.degenerate_indices),
    }
    out = _out_dir(args)
    write_divisor_csv(table, out / "divisors.csv")
    _write_summary(out, "brjuno.json", summary)
    return EXIT_OK


def cmd_normalize(args) -> int:
    F = _load_germ(args.germ)
    if args.trunc_z is not None or args.trunc_w is not None:
        F = retruncate(F, n=args.trunc_z, dw=args.trunc_w)
    nf, log = normalize(F, args.depth)
    report = {
        "config": _config_echo(args),
        "k": nf.k,
        "h": nf.h,
        "jet": [_cjson(c) for c in nf.jet],
        "tail_constants": [_cjson(s.constant_term()) for s in nf.tail],
        "tail_defect": nf.tail_defect(),
        "z_dependence_defect": nf.z_dependence_defect(),
        "stage_residuals": nf.stage_residuals,
        "replay_defect": conjugacy_defect(F, log, nf.germ),
        "change_log": _changelog_json(log),
    }
    if nf.h >= nf.k:
        red = reduce_parabolic_tail(nf)
        report["reduced"] = {
            "jet": [_cjson(c) for c in red.jet],
            "b": _cjson(red.b) if red.b is not None else None,
            "tail_constants": [_cjson(s.constant_term()) for s in red.tail],
        }
    _write_summary(_out_dir(args), "normalize.json", report)
    return EXIT_OK


def _changelog_json(log) -> list[dict]:
    entries: list[dict] = [{"kind": "base", "series": series_to_triples(log.sigma)}]
    for ch in log.changes:
        if isinstance(ch, Shift):
            entries.append({"kind": "shift", "series": series_to_triples(ch.phi)})
        elif isinstance(ch, Gauge):
            entries.append({"kind": "gauge", "series": series_to_triples(ch.psi)})
        elif isinstance(ch, Bump):
            entries.append({"kind": "bump", "k": ch.k,
                            "series": series_to_triples(ch.h)})
    return entries


def cmd_cremer(args) -> int:
    rot = _load_rotation(args.rotation)
    m_max = args.m_max
    col = unit_column(rot, m_max)
    if args.construction == "linear":
        phi0 = _parse_complex(args.phi0) if args.phi0 else 0j
        coeffs = linear_example_phi(col, phi0)
        bits = None
    else:
        res = greedy_quadratic(col)
        coeffs, bits = res.phi, res.bits
    prof = growth_profile(coeffs)
    dens = [q for q in rot.convergent_denominators(32) if 1 <= q <= m_max]
    summary = {
        "config": _config_echo(args),
        "rotation": rotation_to_json(rot),
        "running_max_exponent": float(prof.running_max[m_max]),
        "exponent_at_denominators": {str(q): float(prof.exponents[q])
                                     for q in dens},
        "bits_prefix": bits[:64] if bits else None,
    }
    out = _out_dir(args)
    write_growth_csv(col, prof, out / "growth.csv", bits=bits)
    _write_summary(out, "cremer.json", summary)
    return EXIT_OK


def cmd_orbit(args) -> int:
    F = _load_germ(args.germ)
    z0 = _parse_complex(args.z0)
    w0 = _parse_complex(args.w0)
    orbit = iterate_orbit(F, z0, w0, args.n_max, escape_radius=args.escape,
                          stop_at_verdict=not args.full_orbit)
    sums = vertical_derivative_sum(orbit)
    out = _out_dir(args)
    with open(out / "orbit.csv", "w", newline="") as fh:
        fh.write("n,re_z,im_z,re_w,im_w,dlog,dlog_partial_sum\n")
        for i in range(0, len(orbit.ws), _CHUNK):  # rows formed a chunk at a time
            part = slice(i, i + _CHUNK)
            dlogs = orbit.dlogs[part].tolist()
            if i + _CHUNK >= len(orbit.ws):
                dlogs.append(float("nan"))  # no step from the last row
            rows = zip(orbit.zs[part].tolist(), orbit.ws[part].tolist(), dlogs,
                       sums[part].tolist())
            fh.write("".join(f"{n},{z.real!r},{z.imag!r},{w.real!r},{w.imag!r},"
                             f"{d!r},{s!r}\n"
                             for n, (z, w, d, s) in enumerate(rows, i)))
    summary = {
        "config": _config_echo(args),
        "verdict": repr(orbit.verdict),
        "n_stop": orbit.n_stop,
        "stop_reason": orbit.stop_reason,
        "cycle_period": orbit.cycle_period,
        "cycle_representative": (_cjson(orbit.cycle_representative)
                                 if orbit.cycle_representative is not None else None),
    }
    _write_summary(out, "orbit.json", summary)
    return EXIT_OK


def cmd_slice(args) -> int:
    F = _load_germ(args.germ)
    try:
        parts = [float(x) for x in args.grid.split(",")]
        re0, re1, im0, im1, res = parts
    except ValueError as exc:
        raise _CliError(EXIT_BAD_INPUT, f"cannot parse grid {args.grid!r}") from exc
    if not all(map(math.isfinite, parts[:4])):
        raise _CliError(EXIT_BAD_INPUT, f"grid bounds {args.grid!r} are not finite")
    if not res.is_integer():
        raise _CliError(EXIT_BAD_INPUT, f"grid resolution in {args.grid!r} "
                        "is not an integer")
    z0 = _parse_complex(args.z0)
    grid = fatou_slice(F, z0, (re0, re1, im0, im1, int(res)), n_max=args.n_max,
                       escape_radius=args.escape, threads=args.threads)
    out = _out_dir(args)
    grid.write_ppm(out / "slice.ppm")
    grid.write_csv(out / "slice.csv")
    summary = {
        "config": _config_echo(args),
        "verdict_counts": grid.verdict_counts(),
        "cycles": [[list(p) for p in key] for key in grid.cycles],
    }
    _write_summary(out, "slice.json", summary)
    return EXIT_OK


def cmd_hypotheses(args) -> int:
    F = _load_germ(args.germ)
    rep = critical_orbit_check(F, n_max=args.n_max)
    summary = {
        "config": _config_echo(args),
        "plausible": rep.plausible,
        "critical_points": [{
            "point": _cjson(r.point),
            "verdict": repr(r.verdict),
            "n_stop": r.n_stop,
            "root_defect": r.root_defect,
            "cycle_period": r.cycle_period,
        } for r in rep.reports],
    }
    _write_summary(_out_dir(args), "hypotheses.json", summary)
    return EXIT_OK


def cmd_petalcheck(args) -> int:
    local = ParabolicLocal(k=args.k, b=_parse_complex(args.b))
    # the map has no tail, so every fiber sees the same map: z = 0 alone
    fwd = forward_invariance_check(local, z_band=0.0, samples=args.samples,
                                   seed=args.seed, rho=args.rho)
    rep = repelling_expansion_check(local, samples=args.samples,
                                    seed=args.seed, rho=args.rho)
    region = _local_region(local, 0.0, args.rho)
    summary = {
        "config": _config_echo(args),
        "certificate": {"rho": region.rho, "eps": region.eps},
        "forward_invariance": {"samples": fwd.samples,
                               "violations": fwd.violations,
                               "worst_margin": fwd.worst_margin},
        "repelling_expansion": {"samples": rep.samples,
                                "violations": rep.violations,
                                "min_derivative_modulus": rep.worst_margin,
                                "min_log_derivative_modulus":
                                    rep.min_log_derivative},
    }
    _write_summary(_out_dir(args), "petalcheck.json", summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skewdyn",
        description="small-divisor tables, series normal forms and parabolic "
                    "orbit dynamics for polynomial skew-products")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("brjuno", help="divisor table, partial sums, exponents")
    p.add_argument("--rotation", required=True, help="rotation JSON file or inline")
    p.add_argument("--m-max", type=int, default=1024)
    p.add_argument("--brjuno-k", type=int, default=None)
    add_out(p)
    p.set_defaults(func=cmd_brjuno)

    p = sub.add_parser("normalize", help="run the normalization pipeline")
    p.add_argument("--germ", required=True, help="germ JSON file")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--trunc-z", type=int, default=None,
                   help="re-truncate the germ in z before normalizing")
    p.add_argument("--trunc-w", type=int, default=None,
                   help="re-truncate the germ in w before normalizing")
    add_out(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("cremer", help="divergence-witness coefficient growth")
    p.add_argument("--rotation", required=True)
    p.add_argument("--construction", choices=["linear", "greedy"],
                   default="greedy")
    p.add_argument("--phi0", default=None, help="phi_0 for the linear example")
    p.add_argument("--m-max", type=int, default=500)
    add_out(p)
    p.set_defaults(func=cmd_cremer)

    p = sub.add_parser("orbit", help="iterate and classify one orbit")
    p.add_argument("--germ", required=True)
    p.add_argument("--z0", default="0,0")
    p.add_argument("--w0", required=True)
    p.add_argument("--n-max", type=int, default=10000)
    p.add_argument("--escape", type=float, default=1e6)
    p.add_argument("--full-orbit", action="store_true",
                   help="keep iterating after the verdict fires")
    add_out(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("slice", help="classify a w-grid on one fiber")
    p.add_argument("--germ", required=True)
    p.add_argument("--z0", default="0,0")
    p.add_argument("--grid", required=True, help="re0,re1,im0,im1,res")
    p.add_argument("--n-max", type=int, default=1000)
    p.add_argument("--escape", type=float, default=1e6)
    p.add_argument("--threads", type=int, default=1)
    add_out(p)
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("hypotheses", help="critical orbit checker")
    p.add_argument("--germ", required=True)
    p.add_argument("--n-max", type=int, default=20000)
    add_out(p)
    p.set_defaults(func=cmd_hypotheses)

    p = sub.add_parser("petalcheck",
                       help="petal invariance and repelling expansion samples")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--b", default="0,0")
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, required=True)
    add_out(p)
    p.set_defaults(func=cmd_petalcheck)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    for name in ("m_max", "n_max", "samples", "threads", "escape"):
        val = getattr(args, name, None)
        if val is not None and val <= 0:
            print(f"error: --{name.replace('_', '-')} must be positive",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
    for name in ("escape", "rho"):
        val = getattr(args, name, None)
        if val is not None and not math.isfinite(val):
            print(f"error: --{name.replace('_', '-')} must be finite",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DegenerateDivisorError as exc:
        print(f"error: degenerate small divisor: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except PrecisionError as exc:
        print(f"error: precision budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (LinearFiberError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OverflowError as exc:
        print(f"error: input outside the double range: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def run() -> None:
    """Process entry point (`python -m skewdyn.cli`, the `skewdyn` script):
    exit with main()'s code, skipping interpreter teardown.

    Every output file is closed before main() returns and the package
    registers no exit handler, so once the streams are flushed teardown
    has nothing left to write.  argparse's SystemExit (--version, --help,
    usage errors) gives its code; any other exception propagates with its
    traceback and exit 1, as without run()."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started without it
            try:
                stream.flush()
            except OSError:  # for example a pipe whose reader has gone
                code = 120  # CPython's exit code when its final flush fails
    os._exit(code)


if __name__ == "__main__":
    run()
