"""Property test of the CLI contract: every input ends in exit 0, 2, 3 or 4,
never in an uncaught exception, a rejected call leaves no --out directory,
and every JSON it writes is strict.

Germ files and rotations start valid and are then mutated (triple lengths,
non-finite or null or string entries, huge exponents, wrong truncations);
argv values are drawn from small ranges plus malformed strings, so each
example runs in milliseconds.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skewdyn as sd
from skewdyn.cli import main

from conftest import germ_from_coeffs

GOLDEN_ROT = {"kind": "surd", "p": -1, "q": 1, "r": 5, "s": 2, "frac_bits": 192}
ODD_VALUES = [math.nan, math.inf, -math.inf, None, "x", 1e300, True, [], {}]


def _pick(draw, valid, odd):
    """Mostly a valid value, now and then a malformed one, so that examples
    reach the success paths as well as every rejection."""
    return draw(st.sampled_from(odd if draw(st.integers(0, 7)) == 7 else valid))


def _base_germ() -> dict:
    rot = sd.RotationNumber.from_surd(-1, 1, 5, 2)
    F = germ_from_coeffs(rot, [[0, 0.02], [1, 0.01], [1, 0.03],
                               [0.2, 0.01]], 4, 3)
    return sd.germ_to_json(F)


@st.composite
def germ_objects(draw):
    g = _base_germ()
    kind = _pick(draw, ["valid"], ["entry", "triple_length", "exponent",
                                   "trunc", "coeff_rows", "rotation", "key"])
    j = draw(st.integers(0, 3))
    n = draw(st.integers(0, 4))
    if kind == "entry":
        g["coeffs"][j][n][draw(st.integers(0, 2))] = draw(st.sampled_from(ODD_VALUES))
    elif kind == "triple_length":
        t = g["coeffs"][j][n]
        g["coeffs"][j][n] = draw(st.sampled_from([t[:2], t + [0], [], t[:1]]))
    elif kind == "exponent":
        g["coeffs"][j][n][2] = draw(st.sampled_from([1100, -1100, 5000, -10 ** 6,
                                                     10 ** 30, 2.5]))
    elif kind == "trunc":
        g["trunc"][draw(st.sampled_from(["z", "w"]))] = draw(
            st.sampled_from([-1, 0, 1, 2, 5, 9, None, "3", 2.5]))
    elif kind == "coeff_rows":
        g["coeffs"] = draw(st.sampled_from([g["coeffs"][:2], g["coeffs"] * 2,
                                            [], None, "x"]))
    elif kind == "rotation":
        g["rotation"] = draw(rotation_objects())
    elif kind == "key":
        del g[draw(st.sampled_from(sorted(g)))]
    return g


@st.composite
def rotation_objects(draw):
    return _pick(draw, [
        GOLDEN_ROT,
        {"kind": "quotients", "quotients": [1, 2, 3], "frac_bits": 128},
        {"kind": "quotients", "quotients": [4, 2 ** 80], "frac_bits": 256},
        {"kind": "decimal", "decimal": "0.123", "frac_bits": 64},
    ], [
        {"kind": "decimal", "decimal": "0.5", "frac_bits": 64},
        {"kind": "quotients", "quotients": [0, 2], "frac_bits": 64},
        {"kind": "quotients", "quotients": 5},
        {"kind": "quotients", "quotients": ["a"]},
        {"kind": "quotients", "quotients": [1, 2], "frac_bits": None},
        {"kind": "quotients", "quotients": [1, 2], "frac_bits": -8},
        {"kind": "quotients", "quotients": [1, 2], "frac_bits": 0},
        {"kind": "surd", "p": -1, "q": 1, "r": 4, "s": 2},
        {"kind": "surd", "p": None, "q": 1, "r": 5, "s": 2},
        {"kind": "decimal", "decimal": "abc"},
        {"kind": "wat"},
        [],
        "golden",
    ])


def _complex_text(draw):
    return _pick(draw, ["0,0", "0.1", "-0.3,0.2", "0.02j", "2e6,0"],
                 ["nan", "inf,0", "abc", "1e400"])


def _z0_text(draw):  # inside the germ's validity radius 0.1 unless malformed
    return _pick(draw, ["0,0", "0.05", "0.02,0.01", "0.03j"],
                 ["0.1", "nan", "abc"])


def _float_text(draw):
    return _pick(draw, ["1e6", "5", "0.25", "1e308"], ["0", "-1", "nan", "inf"])


@st.composite
def argvs(draw, cmd: str, germ: str, rot: str):
    n_max = str(draw(st.integers(-1, 300)))
    if cmd == "brjuno":
        argv = [cmd, "--rotation", rot, "--m-max", str(draw(st.integers(-1, 512)))]
        if draw(st.booleans()):
            argv += ["--brjuno-k", str(draw(st.integers(-3, 9)))]
    elif cmd == "cremer":
        argv = [cmd, "--rotation", rot, "--m-max", str(draw(st.integers(-1, 512))),
                "--construction", draw(st.sampled_from(["linear", "greedy", "x"]))]
        if draw(st.booleans()):
            argv += ["--phi0=" + _complex_text(draw)]
    elif cmd == "normalize":
        argv = [cmd, "--germ", germ, "--depth", str(draw(st.integers(-1, 4)))]
        for flag, lo, hi in (("--trunc-z", -1, 8), ("--trunc-w", 0, 6)):
            if draw(st.booleans()):
                argv += [flag, str(draw(st.integers(lo, hi)))]
    elif cmd == "orbit":
        argv = [cmd, "--germ", germ, "--z0=" + _z0_text(draw),
                "--w0=" + _complex_text(draw), "--n-max", n_max,
                "--escape=" + _float_text(draw)]
        if draw(st.booleans()):
            argv.append("--full-orbit")
    elif cmd == "slice":
        bounds = [_pick(draw, ["-1", "0.5", "1"], ["nan", "inf"]) for _ in range(4)]
        res = _pick(draw, ["1", "7", "16"], ["-1", "0", "2.5", "x"])
        argv = [cmd, "--germ", germ, "--z0=" + _z0_text(draw),
                "--grid=" + ",".join(bounds + [res]), "--n-max", n_max,
                "--escape=" + _float_text(draw),
                "--threads", str(draw(st.integers(1, 4)))]
    elif cmd == "hypotheses":
        argv = [cmd, "--germ", germ, "--n-max", n_max]
    else:
        argv = [cmd, "--k", str(_pick(draw, [0, 1, 2, 3], [320, 400, 4097])),
                "--b=" + _complex_text(draw), "--rho=" + _float_text(draw),
                "--samples", str(draw(st.integers(0, 50))),
                "--seed", str(draw(st.integers(0, 3)))]
    if draw(st.integers(0, 9)) == 0:  # a dropped token
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("cmd", ["brjuno", "cremer", "normalize", "orbit",
                                 "slice", "hypotheses", "petalcheck"])
@settings(max_examples=40)
@given(data=st.data(), germ=germ_objects(), rot=rotation_objects())
def test_cli_contract_under_mutated_inputs(cmd, data, germ, rot):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        germ_path = tmp / "germ.json"
        germ_path.write_text(json.dumps(germ))
        rot_arg = json.dumps(rot) if data.draw(st.booleans()) else str(tmp / "rot.json")
        (tmp / "rot.json").write_text(json.dumps(rot))
        argv = data.draw(argvs(cmd, str(germ_path), rot_arg))
        out = tmp / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse rejects a malformed option
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, code)
        assert "Traceback" not in err.getvalue()
        assert code == 0 or not out.exists(), (argv, code)  # nothing left behind
        for path in out.glob("*.json"):
            with open(path) as fh:
                json.load(fh, parse_constant=_reject_constant)
