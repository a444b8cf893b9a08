"""Seeded inputs and CLI invocations of the four workloads, plus the probe.

Every germ and rotation file the program reads is written here from the
workload seed; the program receives only those files and command lines.
Each invocation carries the check that judges its outputs (see checks.py).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

GOLDEN = {"kind": "surd", "p": -1, "q": 1, "r": 5, "s": 2, "frac_bits": 192}
# One huge quotient right after a small one: a Cremer-type rotation whose
# divisor |lam^4 - 1| ~ 2^-400 shows up at indices a short run reaches.
CREMER = {"kind": "quotients", "quotients": [4, 2 ** 400], "frac_bits": 512}

WORKLOADS = ("normal-form", "divergence", "fatou-slice", "orbits")


@dataclass
class Call:
    """One CLI invocation: `skewdyn <argv> --out <dir>` and its output check."""
    name: str
    argv: list[str]
    check: Callable[[Path], list[checks.Op]]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    calls: list[Call]
    # slice re-run in-process with threads=2 by the traced run (reference
    # for keeping or deleting --threads); None: the probe's slice is used
    threads_ref: tuple | None = None


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _triples(values) -> list[list]:
    return [[float(c.real), float(c.imag), 0] for c in values]


def write_germ(path: Path, coeffs: np.ndarray, degree: int,
               rotation: dict = GOLDEN) -> Path:
    """coeffs[j, n] is the coefficient of z^n w^j (shape (D_w+1, N+1))."""
    dw, n = coeffs.shape[0] - 1, coeffs.shape[1] - 1
    obj = {"rotation": rotation, "degree": degree,
           "trunc": {"z": n, "w": dw},
           "coeffs": [_triples(row) for row in coeffs]}
    path.write_text(json.dumps(obj))
    return path


def constant_germ(fiber: list[complex], n: int = 4) -> np.ndarray:
    """A germ whose vertical map is the same polynomial on every fiber."""
    c = np.zeros((len(fiber), n + 1), dtype=complex)
    c[:, 0] = fiber
    return c


def random_parabolic(rng, n: int, dw: int, k: int, scale: float = 0.3) -> np.ndarray:
    """Degree-(k+2) germ with a_0(0)=0, a_1(0)=1, a_2..a_k vanishing at z=0.

    Every z-coefficient of a_0..a_{k+2} is a seeded complex Gaussian times
    `scale`; a_{k+1}(0) and a_{k+2}(0) are kept at least 0.1 in modulus so
    that the parabolic order is exactly k.
    """
    deg = k + 2
    c = np.zeros((dw + 1, n + 1), dtype=complex)
    c[:deg + 1] = (rng.standard_normal((deg + 1, n + 1))
                   + 1j * rng.standard_normal((deg + 1, n + 1))) * scale
    c[0, 0], c[1, 0] = 0, 1
    c[2:k + 1, 0] = 0
    for j in (k + 1, k + 2):
        if abs(c[j, 0]) < 0.1:
            c[j, 0] = 0.1 * cmath.exp(1j * cmath.phase(c[j, 0] or 1))
    return c


# ---------------------------------------------------------------------------
# The four workloads
# ---------------------------------------------------------------------------

def normal_form(seed: int, work: Path, small: bool) -> Workload:
    rng = _rng(seed, 1)
    specs = [("k1", 1, 3, 10 if small else 14, 8),
             ("k2", 2, 2, 10 if small else 12, 8)]
    calls = []
    for tag, k, h, n, dw in specs:
        c = random_parabolic(rng, n, dw, k)
        path = write_germ(work / f"nf_{tag}.json", c, degree=k + 2)
        zs = 0.05 * np.sqrt(rng.random(16)) * np.exp(2j * np.pi * rng.random(16))
        calls.append(Call(f"normalize-{tag}",
                          ["normalize", "--germ", str(path), "--depth", str(h)],
                          checks.normalize_check(c, GOLDEN, k, h, zs)))
    return Workload("normal-form", calls)


def divergence(seed: int, work: Path, small: bool) -> Workload:
    rng = _rng(seed, 2)
    gold = work / "golden.json"
    gold.write_text(json.dumps(GOLDEN))
    cre = work / "cremer.json"
    cre.write_text(json.dumps(CREMER))
    m_gold = 4096 if small else 2 ** 17
    m_cre = 2048 if small else 2 ** 16
    m_greedy = 120 if small else 800
    m_linear = 300 if small else 5000
    phi0 = complex(*np.round(rng.uniform(-0.5, 0.5, 2), 6))
    samples = [int(x) for x in rng.integers(2, 1 << 30, 64)]
    calls = [
        Call("brjuno-golden", ["brjuno", "--rotation", str(gold),
                               "--m-max", str(m_gold)],
             checks.brjuno_check(GOLDEN, m_gold, samples)),
        Call("brjuno-cremer", ["brjuno", "--rotation", str(cre),
                               "--m-max", str(m_cre)],
             checks.brjuno_check(CREMER, m_cre, samples)),
        Call("cremer-greedy", ["cremer", "--rotation", str(gold),
                               "--construction", "greedy",
                               "--m-max", str(m_greedy)],
             checks.greedy_check(GOLDEN, m_greedy, samples)),
        Call("cremer-linear", ["cremer", "--rotation", str(cre),
                               "--construction", "linear",
                               f"--phi0={phi0.real!r},{phi0.imag!r}",
                               "--m-max", str(m_linear)],
             checks.linear_check(CREMER, m_linear, phi0)),
    ]
    return Workload("divergence", calls)


def _jitter(rng, span: float, res: int) -> float:
    """A seeded sub-pixel offset: moves the grid without changing its work."""
    return float(np.round(rng.uniform(-0.25, 0.25) * span / res, 9))


def fatou_slice(seed: int, work: Path, small: bool) -> Workload:
    rng = _rng(seed, 3)
    res12, res3 = (40, 30) if small else (300, 150)
    n12, n3 = (400, 200) if small else (1500, 500)
    # (1) criterion 8's germ: w + w^2 on the fiber z = 0
    par = constant_germ([0, 1, 1, 0], n=8)
    par[3, 1] = 0.05
    p1 = write_germ(work / "slice_parabolic.json", par, degree=3)
    dx, dy = _jitter(rng, 2.0, res12), _jitter(rng, 2.0, res12)
    g1 = (-1.5 + dx, 0.5 + dx, -1.0 + dy, 1.0 + dy, res12)
    # (2) the period-2 basin of w^2 - 1
    p2 = write_germ(work / "slice_basin.json", constant_germ([-1, 0, 1]), degree=2)
    dx, dy = _jitter(rng, 3.4, res12), _jitter(rng, 2.0, res12)
    g2 = (-1.7 + dx, 1.7 + dx, -1.0 + dy, 1.0 + dy, res12)
    # (3) a random parabolic germ on the moving fiber z0 = 0.05
    rnd = random_parabolic(rng, 6 if small else 32, 6, 1)
    p3 = write_germ(work / "slice_moving.json", rnd, degree=3)
    g3 = (-0.5, 0.5, -0.5, 0.5, res3)
    z3 = 0.05
    grids = [("slice-parabolic", p1, par, 0.0, g1, n12),
             ("slice-basin", p2, constant_germ([-1, 0, 1]), 0.0, g2, n12),
             ("slice-moving", p3, rnd, z3, g3, n3)]
    calls = []
    for name, path, coeffs, z0, grid, n_max in grids:
        calls.append(Call(name, _slice_argv(path, z0, grid, n_max),
                          checks.slice_check(coeffs, GOLDEN, z0, grid, n_max,
                                             seed, name == "slice-basin")))
    return Workload("fatou-slice", calls, threads_ref=(p3, z3, g3, n3))


def _slice_argv(path: Path, z0: float, grid: tuple, n_max: int) -> list[str]:
    return ["slice", "--germ", str(path), f"--z0={z0!r},0",
            "--grid=" + ",".join(repr(float(v)) for v in grid[:4]) + f",{grid[4]}",
            "--n-max", str(n_max), "--threads", "1"]


def orbits(seed: int, work: Path, small: bool) -> Workload:
    rng = _rng(seed, 4)
    n_full = 5000 if small else 10 ** 4   # k=3 needs ~3000 steps for its verdict
    n_siegel = 2000 if small else 5000
    samples = 500 if small else 2000
    calls = []
    for k in (1, 2, 3):
        fiber = [0, 1] + [0] * (k - 1) + [-1]
        path = write_germ(work / f"orbit_k{k}.json", constant_germ(fiber),
                          degree=k + 1)
        w0 = 0.1 + float(np.round(rng.uniform(-0.005, 0.005), 6))
        calls.append(Call(f"orbit-k{k}",
                          ["orbit", "--germ", str(path), f"--w0={w0!r},0",
                           "--n-max", str(n_full), "--full-orbit"],
                          checks.orbit_check(fiber, w0, n_full, full=True, k=k)))
    lam = cmath.exp(2j * math.pi * (math.sqrt(5) - 1) / 2)
    siegel = [0, lam, 1]
    sp = write_germ(work / "siegel.json", constant_germ(siegel), degree=2)
    a = rng.uniform(0, 2 * math.pi)   # inside the Siegel disk, |w0| = 0.15
    w0 = complex(round(0.15 * math.cos(a), 6), round(0.15 * math.sin(a), 6))
    calls.append(Call("orbit-siegel",
                      ["orbit", "--germ", str(sp),
                       f"--w0={w0.real!r},{w0.imag!r}", "--n-max", str(n_siegel)],
                      checks.orbit_check(siegel, w0, n_siegel, full=False)))
    calls.append(Call("hypotheses-siegel",
                      ["hypotheses", "--germ", str(sp), "--n-max", str(n_siegel)],
                      checks.hypotheses_check(siegel, n_siegel, petal_k=None)))
    w4 = [0, 1, 0, 0, -1]
    hp = write_germ(work / "w_minus_w4.json", constant_germ(w4), degree=4)
    calls.append(Call("hypotheses-w4", ["hypotheses", "--germ", str(hp)],
                      checks.hypotheses_check(w4, 20000, petal_k=3)))
    for k in (1, 2):
        pseed = int(rng.integers(0, 2 ** 31))
        calls.append(Call(f"petalcheck-k{k}",
                          ["petalcheck", "--k", str(k), "--samples", str(samples),
                           "--seed", str(pseed)],
                          checks.petalcheck_check(samples)))
    return Workload("orbits", calls)


BUILDERS = {"normal-form": normal_form, "divergence": divergence,
            "fatou-slice": fatou_slice, "orbits": orbits}


def build(name: str, seed: int, work: Path, small: bool = False) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work, small)


def probe(seed: int, work: Path, skip: set[str]) -> tuple[list[Call], tuple]:
    """Tiny invocations of every subcommand outside `skip`, for the traced run.

    They make every per-layer metric a measurement on every workload; the
    probe's slice also serves as the threads=2 reference when the workload
    runs no slice of its own.
    """
    work.mkdir(parents=True, exist_ok=True)
    parts = []
    small = {name: build(name, seed, work / name, small=True) for name in WORKLOADS}
    picks = {"normalize": ["normalize-k1"],
             "brjuno": ["brjuno-golden"],
             "cremer": ["cremer-greedy", "cremer-linear"],
             "slice": ["slice-parabolic"],
             "orbit": ["orbit-k1", "orbit-siegel"],
             "hypotheses": ["hypotheses-w4"],
             "petalcheck": ["petalcheck-k1"]}
    for wl in small.values():
        for c in wl.calls:
            if c.subcommand not in skip and c.name in picks[c.subcommand]:
                parts.append(Call("probe-" + c.name, c.argv, c.check))
    return parts, small["fatou-slice"].threads_ref
