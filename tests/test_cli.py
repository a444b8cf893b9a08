import argparse
import cmath
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import skewdyn as sd
from skewdyn.cli import build_parser, main

GOLDEN_ROT = {"kind": "surd", "p": -1, "q": 1, "r": 5, "s": 2, "frac_bits": 192}


@pytest.fixture()
def rot_file(tmp_path):
    p = tmp_path / "rot.json"
    p.write_text(json.dumps(GOLDEN_ROT))
    return str(p)


@pytest.fixture()
def germ_file(tmp_path, golden):
    F = sd.SkewGerm.from_coeffs(golden, [[0], [1], [1], [0, 0.05]], 8, 3)
    p = tmp_path / "germ.json"
    p.write_text(json.dumps(sd.germ_to_json(F)))
    return str(p)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def read_json(path):
    """Parse strictly: NaN, Infinity and -Infinity tokens fail the test."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def read_csv_cells(path, kinds):
    """Header and rows of a CSV whose every cell parses as int or float."""
    lines = Path(path).read_text().splitlines()
    rows = [[kind(cell) for kind, cell in zip(kinds, line.split(","),
                                              strict=True)]
            for line in lines[1:]]
    return lines[0], rows


def test_brjuno_outputs(tmp_path, rot_file):
    out = tmp_path / "o"
    assert main(["brjuno", "--rotation", rot_file, "--m-max", "256",
                 "--out", str(out)]) == 0
    summary = read_json(out / "brjuno.json")
    assert summary["tool"] == "skewdyn" and "version" in summary
    assert summary["cremer_running_max"] < 2
    lines = (out / "divisors.csv").read_text().splitlines()
    om = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b <= a for a, b in zip(om, om[1:]))


def test_brjuno_inline_rotation(tmp_path):
    out = tmp_path / "o"
    assert main(["brjuno", "--rotation", json.dumps(GOLDEN_ROT),
                 "--m-max", "64", "--out", str(out)]) == 0


def test_brjuno_rational_exit_code(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["brjuno", "--rotation",
                 '{"kind":"decimal","decimal":"0.5","frac_bits":192}',
                 "--m-max", "16", "--out", str(out)])
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


def test_malformed_inputs_exit_code(tmp_path):
    out = tmp_path / "o"
    assert main(["brjuno", "--rotation", "/nonexistent.json",
                 "--m-max", "16", "--out", str(out)]) == 2
    assert main(["brjuno", "--rotation", '{"kind":"wat"}',
                 "--m-max", "16", "--out", str(out)]) == 2
    assert main(["brjuno", "--rotation", '{"kind":"quotients","quotients":5}',
                 "--m-max", "16", "--out", str(out)]) == 2
    bad_germ = tmp_path / "bad.json"
    bad_germ.write_text('{"no": "germ"}')
    assert main(["normalize", "--germ", str(bad_germ), "--depth", "1",
                 "--out", str(out)]) == 2


def test_precision_budget_exit_code(tmp_path):
    out = tmp_path / "o"
    rot = {"kind": "surd", "p": -1, "q": 1, "r": 5, "s": 2, "frac_bits": 80}
    code = main(["brjuno", "--rotation", json.dumps(rot), "--m-max", "200000",
                 "--out", str(out)])
    assert code == 4


# 2^55 rows: each call's first array needs more than 2^57 bytes, so the
# allocation fails at once and touches no memory
HUGE = str(2 ** 55)


@pytest.mark.parametrize("argv", [
    ["orbit", "--w0=0.1,0", "--n-max", HUGE],
    ["hypotheses", "--n-max", HUGE],
    ["brjuno", "--m-max", HUGE],
    ["cremer", "--construction", "linear", "--m-max", HUGE],
], ids=["orbit", "hypotheses", "brjuno", "cremer-linear"])
def test_failed_allocation_exits_4(tmp_path, capsys, rot_file, germ_file, argv):
    source = (["--rotation", rot_file] if argv[0] in ("brjuno", "cremer")
              else ["--germ", germ_file])
    out = tmp_path / "o"
    assert main([*argv, *source, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory:") and err.count("\n") == 1
    assert not out.exists()


def test_slice_n_max_beyond_engine_limit_exits_2(tmp_path, capsys, germ_file):
    out = tmp_path / "o"
    assert main(["slice", "--germ", germ_file, "--grid=-1,1,-1,1,4",
                 "--n-max", str(2 ** 31), "--out", str(out)]) == 2
    assert "below 2^31" in capsys.readouterr().err
    assert not out.exists()


def test_normalize_report(tmp_path, germ_file):
    out = tmp_path / "o"
    assert main(["normalize", "--germ", germ_file, "--depth", "2",
                 "--trunc-w", "8", "--out", str(out)]) == 0
    rep = read_json(out / "normalize.json")
    assert rep["k"] == 1 and rep["h"] == 2
    assert rep["jet"][0] == pytest.approx([1.0, 0.0])
    assert rep["replay_defect"] < 1e-8
    assert rep["z_dependence_defect"] < 1e-8
    assert {e["kind"] for e in rep["change_log"]} >= {"base", "shift", "gauge", "bump"}
    assert rep["reduced"]["jet"][0] == pytest.approx([-1.0, 0.0])
    assert all(v < 1e-8 for v in rep["stage_residuals"].values())


@pytest.mark.parametrize("a1, top", [([1], 1.7e308), ([1, 0.5], 1e307)])
def test_normalize_oracle_overflow_writes_null(tmp_path, golden, a1, top):
    # 1.7e308 z at w^8 cannot be read as a double; 1e307 z times the
    # gauge's powers overflows the oracle's products
    F = sd.SkewGerm.from_coeffs(golden, [[0], a1, [1]] + [[0]] * 5 + [[0, top]],
                                6, 8)
    germ = tmp_path / "germ.json"
    germ.write_text(json.dumps(sd.germ_to_json(F)))
    out = tmp_path / "o"
    assert main(["normalize", "--germ", str(germ), "--depth", "2",
                 "--out", str(out)]) == 0
    rep = read_json(out / "normalize.json")
    assert rep["replay_defect"] is None
    assert rep["reduced"]["jet"][0] == pytest.approx([-1.0, 0.0])


def test_normalize_conjugates_only_inside_the_pipeline(tmp_path, germ_file,
                                                        monkeypatch):
    from skewdyn import normalform
    callers = []
    real = normalform.conjugate

    def counting(F, ch):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(F, ch)
    for mod in (normalform, sd.series):
        monkeypatch.setattr(mod, "conjugate", counting)
    assert main(["normalize", "--germ", germ_file, "--depth", "2",
                 "--trunc-w", "8", "--out", str(tmp_path / "o")]) == 0
    # curve, gauge and bumps w^2..w^4, then the reduction's one scale
    assert callers == ["normalize"] * 5 + ["reduce_parabolic_tail"]


def test_cremer_csv_and_summary(tmp_path, rot_file):
    out = tmp_path / "o"
    assert main(["cremer", "--rotation", rot_file, "--construction", "greedy",
                 "--m-max", "120", "--out", str(out)]) == 0
    rep = read_json(out / "cremer.json")
    assert rep["bits_prefix"][1] == 1
    assert rep["running_max_exponent"] < 2
    lines = (out / "growth.csv").read_text().splitlines()
    assert len(lines) == 121
    assert main(["cremer", "--rotation", rot_file, "--construction", "linear",
                 "--phi0", "0,0", "--m-max", "60", "--out", str(out)]) == 0


@pytest.mark.parametrize("construction", ["linear", "greedy"])
def test_cremer_builds_one_unit_column(tmp_path, rot_file, monkeypatch,
                                       construction):
    # the recursion and the growth CSV share one column of lam^k - 1
    real, calls = sd.rotation.unit_column, []

    def counting(rot, k_max):
        calls.append(k_max)
        return real(rot, k_max)
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("skewdyn") and \
                getattr(mod, "unit_column", None) is real:
            monkeypatch.setattr(mod, "unit_column", counting)
    assert main(["cremer", "--rotation", rot_file, "--construction", construction,
                 "--m-max", "80", "--out", str(tmp_path / "o")]) == 0
    assert calls == [80]


SMALL_CALLS = [
    ["brjuno", "--m-max", "64"],
    ["normalize", "--depth", "2", "--trunc-w", "8"],
    ["cremer", "--construction", "greedy", "--m-max", "40"],
    ["cremer", "--construction", "linear", "--phi0", "0.2,0.1", "--m-max", "40"],
    ["orbit", "--w0=-0.1,0", "--n-max", "300", "--full-orbit"],
    ["slice", "--grid=-1.5,0.5,-1,1,8", "--n-max", "200"],
    ["hypotheses", "--n-max", "500"],
    ["petalcheck", "--k", "2", "--seed", "3", "--samples", "200"],
]


def test_no_subcommand_builds_scaled_complex(tmp_path, rot_file, germ_file,
                                             monkeypatch):
    # ScaledComplex stays only as an object for outside callers: no
    # subcommand may construct one
    def refuse(self, *args):
        raise AssertionError("ScaledComplex built on a library path")
    monkeypatch.setattr(sd.ScaledComplex, "__init__", refuse)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in SMALL_CALLS} == set(sub.choices)
    for i, argv in enumerate(SMALL_CALLS):
        source = (["--rotation", rot_file] if argv[0] in ("brjuno", "cremer")
                  else [] if argv[0] == "petalcheck" else ["--germ", germ_file])
        assert main(argv + source + ["--out", str(tmp_path / str(i))]) == 0, argv


def test_cremer_vanishing_coefficients_write_null(tmp_path, rot_file):
    # phi_0 = -1 makes every phi_n zero: the growth exponents are -inf,
    # which the summary writes as null
    out = tmp_path / "o"
    assert main(["cremer", "--rotation", rot_file, "--construction", "linear",
                 "--phi0=-1,0", "--m-max", "50", "--out", str(out)]) == 0
    summary = read_json(out / "cremer.json")
    assert summary["running_max_exponent"] is None
    assert set(summary["exponent_at_denominators"].values()) == {None}


def test_orbit_outputs(tmp_path, germ_file):
    out = tmp_path / "o"
    assert main(["orbit", "--germ", germ_file, "--w0=-0.1,0",
                 "--n-max", "4000", "--out", str(out)]) == 0
    rep = read_json(out / "orbit.json")
    assert rep["verdict"].startswith("ParabolicPetal")
    header, rows = read_csv_cells(out / "orbit.csv", [int] + [float] * 6)
    assert header == "n,re_z,im_z,re_w,im_w,dlog,dlog_partial_sum"
    assert len(rows) == rep["n_stop"] + 1
    assert [r[0] for r in rows] == list(range(len(rows)))
    assert rows[0][3:5] == [-0.1, 0.0] and rows[0][6] == 0.0
    assert math.isnan(rows[-1][5]) and math.isfinite(rows[-1][6])


def test_config_echo_records_every_setting(tmp_path, germ_file):
    # --full-orbit decides where orbit.csv stops; --trunc-z/--trunc-w
    # decide which germ normalize reads
    out = tmp_path / "o"
    assert main(["orbit", "--germ", germ_file, "--w0=-0.1,0", "--n-max",
                 "300", "--full-orbit", "--out", str(out)]) == 0
    assert read_json(out / "orbit.json")["config"] == {
        "germ": germ_file, "z0": "0,0", "w0": "-0.1,0", "n_max": 300,
        "escape": 1e6, "full_orbit": True}
    assert main(["normalize", "--germ", germ_file, "--depth", "2",
                 "--trunc-z", "6", "--trunc-w", "8", "--out", str(out)]) == 0
    assert read_json(out / "normalize.json")["config"] == {
        "germ": germ_file, "depth": 2, "trunc_z": 6, "trunc_w": 8}


def test_slice_outputs_and_determinism(tmp_path, germ_file):
    outs = []
    for t in ("1", "3"):
        out = tmp_path / f"o{t}"
        assert main(["slice", "--germ", germ_file, "--grid=-1.5,0.5,-1,1,24",
                     "--n-max", "300", "--threads", t, "--out", str(out)]) == 0
        outs.append(out)
    a, b = (p / "slice.ppm" for p in outs)
    assert a.read_bytes() == b.read_bytes()
    a, b = (p / "slice.csv" for p in outs)
    assert a.read_bytes() == b.read_bytes()
    header, rows = read_csv_cells(a, [float, float, int, int])
    assert header == "re_w,im_w,verdict_code,n_stop"
    assert len(rows) == 24 * 24
    assert rows[0][:2] == [-1.5, -1.0] and rows[-1][:2] == [0.5, 1.0]
    rep = read_json(outs[0] / "slice.json")
    assert rep["verdict_counts"]["petal"] > 0
    petal_rows = sum(1 for r in rows if 100 <= r[2] < 200)
    assert petal_rows == rep["verdict_counts"]["petal"]


def test_rerun_byte_identical(tmp_path, rot_file):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["brjuno", "--rotation", rot_file, "--m-max", "128",
                     "--out", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "brjuno.json").read_bytes() == (outs[1] / "brjuno.json").read_bytes()
    assert (outs[0] / "divisors.csv").read_bytes() == (outs[1] / "divisors.csv").read_bytes()


def test_hypotheses_output(tmp_path, germ_file):
    out = tmp_path / "o"
    assert main(["hypotheses", "--germ", germ_file, "--n-max", "4000",
                 "--out", str(out)]) == 0
    rep = read_json(out / "hypotheses.json")
    assert rep["plausible"] is True
    assert len(rep["critical_points"]) >= 1


def test_petalcheck_requires_seed(tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit):
        main(["petalcheck", "--k", "1", "--out", str(out)])
    # random.Random would take |seed|, so seeds -5 and 5 would share a stream
    assert main(["petalcheck", "--k", "1", "--seed=-5", "--out", str(out)]) == 2
    assert "nonnegative" in capsys.readouterr().err and not out.exists()
    assert main(["petalcheck", "--k", "1", "--seed", "5", "--samples", "400",
                 "--out", str(out)]) == 0
    rep = read_json(out / "petalcheck.json")
    assert rep["forward_invariance"]["violations"] == 0
    assert rep["repelling_expansion"]["min_derivative_modulus"] > 1


def test_petalcheck_reports_unresolved_images(tmp_path):
    # at k = 10 some images round to their start; the count is reported
    # beside the unchanged keys
    out = tmp_path / "o"
    assert main(["petalcheck", "--k", "10", "--seed", "1", "--samples", "500",
                 "--z-band", "0.1", "--out", str(out)]) == 0
    fwd = read_json(out / "petalcheck.json")["forward_invariance"]
    assert fwd == {"samples": 500, "violations": 0, "unresolved": 15,
                   "worst_margin": fwd["worst_margin"]}


@pytest.mark.parametrize("k, rho", [(320, "0.1"), (400, "0.1"), (4097, "0.9")])
def test_petalcheck_order_out_of_range_exit_2(tmp_path, capsys, k, rho):
    # rho^k underflows at rho = 0.1 for k = 320 and 400, so R = 1/(k rho^k)
    # has no double; k = 4097 is past the order cap although 0.9^4097 is a
    # normal double
    out = tmp_path / "o"
    assert main(["petalcheck", "--k", str(k), "--rho", rho, "--seed", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (out / "petalcheck.json").exists()


def test_petalcheck_unresolved_step_exits_2(tmp_path, capsys):
    # at k = 20 every sampled image rounds to its start: no verdict, no file
    out = tmp_path / "o"
    assert main(["petalcheck", "--k", "20", "--seed", "1", "--samples", "500",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["--k", "1", "--b=1e308,0"], 0),
    (["--k", "2", "--b=1e308,0"], 0),
    (["--k", "3", "--b=1e308,0"], 0),
    (["--k", "1", "--b=1e308,0", "--rho=5"], 2),
    (["--k", "1", "--rho=1e308"], 2),
    (["--k", "1", "--z-band=1e308"], 0),
    (["--k", "2", "--z-band=1e308"], 0),
], ids=["b-k1", "b-k2", "b-k3", "b-rho5", "rho-huge", "z-band-k1", "z-band-k2"])
def test_petalcheck_overflowing_inputs_are_quiet(tmp_path, capsys, argv, code):
    # images and derivatives overflow to inf and NaN: no RuntimeWarning, and
    # an image that is not a finite double exits 2 as the scalar code did
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["petalcheck", *argv, "--samples", "30", "--seed", "1",
                     "--out", str(tmp_path / "o")]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("kept")
    assert main(["petalcheck", "--samples", "10", "--seed", "1",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot create output")
    assert out.read_text() == "kept"


def test_bad_grid_exit_code(tmp_path, germ_file):
    out = tmp_path / "o"
    assert main(["slice", "--germ", germ_file, "--grid", "nope",
                 "--out", str(out)]) == 2


@pytest.mark.parametrize("res", ["2.7", "8.5", "inf", "nan"])
def test_slice_non_integral_resolution_exits_2(tmp_path, germ_file, capsys,
                                               res):
    # a resolution is a count of points: 2.7 is not truncated to 2
    out = tmp_path / "o"
    assert main(["slice", "--germ", germ_file, f"--grid=-1,1,-1,1,{res}",
                 "--n-max", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()
    # an integral resolution may still be written with an exponent
    assert main(["slice", "--germ", germ_file, "--grid=-1,1,-1,1,1e1",
                 "--n-max", "10", "--out", str(out)]) == 0


def test_nonpositive_budget_rejected(tmp_path, rot_file):
    out = tmp_path / "o"
    assert main(["brjuno", "--rotation", rot_file, "--m-max", "0",
                 "--out", str(out)]) == 2


def test_brjuno_k_exceeding_table_rejected(tmp_path, rot_file):
    out = tmp_path / "o"
    for k in ("9", "-3"):  # past the table; negative
        assert main(["brjuno", "--rotation", rot_file, "--m-max", "64",
                     "--brjuno-k", k, "--out", str(out)]) == 2
        assert not (out / "divisors.csv").exists()  # rejected before the table


def test_brjuno_doubly_exponential_quotients(tmp_path):
    # the depth-6 doubly-exponential rotation runs fine; its exponent is
    # finite and small (the quotient growth is Brjuno-grade)
    rot = {"kind": "quotients", "quotients": [2 ** (2 ** n) for n in range(1, 7)],
           "frac_bits": 512}
    out = tmp_path / "o"
    assert main(["brjuno", "--rotation", json.dumps(rot), "--m-max", "512",
                 "--out", str(out)]) == 0
    rep = read_json(out / "brjuno.json")
    assert 0 < rep["cremer_running_max"] < 1


def _germ_with(germ_file, tmp_path, j, n, triple):
    data = read_json(germ_file)
    data["coeffs"][j][n] = triple
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return str(path)


def _run_python(args, **env_extra):
    """A fresh interpreter that imports this checkout's skewdyn, with
    `env_extra` added to its environment."""
    paths = [str(Path(sd.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
           **env_extra}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _assert_cli_exit_2(tmp_path, argv):
    """Run the CLI as a subprocess: exit 2 with one error line, no
    traceback and no --out directory."""
    proc = _run_python(["-m", "skewdyn.cli", *argv, "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert not (tmp_path / "o").exists()


def _modules_loaded(args):
    """Modules the process imports beyond a bare interpreter's start-up,
    read from its -X importtime report."""
    def imported(cmd):
        proc = _run_python(["-X", "importtime", *cmd])
        assert proc.returncode == 0, proc.stderr
        return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    return imported(args) - imported(["-c", "pass"])


def _dispatches_x86_v3() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("X86_V3"))


@pytest.mark.skipif(not _dispatches_x86_v3(),
                    reason="numpy dispatches no X86_V3 (AVX2 + FMA3) loops on "
                           "this CPU, so there is no second dispatch to compare")
@pytest.mark.parametrize("argv, files", [
    (["slice", "--germ", "{germ}", "--z0=0.05,0", "--grid=-0.5,0.5,-0.5,0.5,40",
      "--n-max", "400"], {"slice.json", "slice.csv", "slice.ppm"}),
    (["brjuno", "--rotation", "{rot}", "--m-max", "4096"],
     {"brjuno.json", "divisors.csv"}),
    # at these sizes numpy's fused complex product, in place of the split
    # one, changes both greedy files and the report
    (["cremer", "--rotation", "{rot}", "--construction", "greedy",
      "--m-max", "100"], {"cremer.json", "growth.csv"}),
    (["normalize", "--germ", "{germ}", "--depth", "2", "--trunc-w", "8"],
     {"normalize.json"}),
], ids=["slice", "brjuno", "cremer-greedy", "normalize"])
def test_outputs_do_not_depend_on_numpy_cpu_dispatch(tmp_path, germ_file,
                                                     rot_file, argv, files):
    # numpy's fused complex product comes from its X86_V3 loops; these
    # outputs must write the same bytes without them
    argv = [a.format(germ=germ_file, rot=rot_file) for a in argv]
    outs = []
    for tag, env in (("default", {}), ("baseline", {
            "NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4 X86_V3"})):
        out = tmp_path / tag
        proc = _run_python(["-m", "skewdyn.cli", *argv, "--out", str(out)], **env)
        assert proc.returncode == 0, proc.stderr
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outs[0] == outs[1] and set(outs[0]) == files


def test_version_loads_no_dataclasses_or_thread_pool():
    # numpy is bound lazily: -X importtime never lists "numpy" itself, but
    # executing it imports numpy._core
    mods = _modules_loaded(["-m", "skewdyn.cli", "--version"])
    assert "skewdyn.petals" in mods
    assert not mods & {"dataclasses", "concurrent.futures", "numpy._core"}, mods


def test_slice_process_does_not_load_numpy_ma(tmp_path, golden):
    # a slice with basin pixels, so the cycle keying runs; np.unique without
    # return_* flags would import numpy.ma
    F = sd.SkewGerm.from_coeffs(golden, [[-1], [0], [1]], 2, 2)
    germ = tmp_path / "basin.json"
    germ.write_text(json.dumps(sd.germ_to_json(F)))
    out = tmp_path / "o"
    mods = _modules_loaded(["-m", "skewdyn.cli", "slice", "--germ", str(germ),
                            "--grid=-1,1,-0.5,0.5,6", "--n-max", "200",
                            "--out", str(out)])
    assert read_json(out / "slice.json")["verdict_counts"]["basin"] > 0
    assert "numpy._core" in mods and "numpy.ma" not in mods


def test_petalcheck_process_does_not_load_numpy_random(tmp_path):
    out = tmp_path / "o"
    mods = _modules_loaded(["-m", "skewdyn.cli", "petalcheck", "--k", "2",
                            "--samples", "200", "--seed", "3", "--out", str(out)])
    assert read_json(out / "petalcheck.json")["forward_invariance"]["samples"] == 200
    # no numpy module at all: neither numpy._core nor numpy.random
    assert not [m for m in mods if m.split(".")[0] == "numpy"], mods


@pytest.mark.parametrize("argv", [
    ["brjuno", "--m-max", "4096"],
    ["cremer", "--construction", "linear", "--m-max", "500"],
    ["cremer", "--construction", "greedy", "--m-max", "50"],
], ids=["brjuno", "cremer-linear", "cremer-greedy"])
def test_which_divergence_processes_load_numpy(tmp_path, rot_file, argv):
    # divisor tables and both Cremer recursions run on Python floats and
    # complexes, so no divergence process loads numpy
    out = tmp_path / "o"
    mods = _modules_loaded(["-m", "skewdyn.cli", *argv, "--rotation", rot_file,
                            "--out", str(out)])
    assert len(list(out.iterdir())) == 2
    assert "numpy._core" not in mods, mods


def test_lazy_loader_refuses_a_missing_module():
    from skewdyn._np import _lazy
    with pytest.raises(ModuleNotFoundError, match="no_such_module_xyz"):
        _lazy("no_such_module_xyz")


BAD_TRIPLES = {  # case: (vertical order j, z-order n, coefficient triple)
    "null_in_triple": (2, 1, [None, 0, 0]),
    "exponent_overflow": (2, 0, [1.0, 0.0, 5000]),
    "nan_in_triple": (2, 1, [math.nan, 0.0, 0]),
    "short_triple": (2, 1, [1.0, 0.0]),
    "long_triple": (2, 1, [1, 0, 0, 7]),
    "fractional_exponent": (2, 1, [1.0, 0.0, 0.5]),
    "bool_in_triple": (2, 1, [True, 0.0, 0]),
}


@pytest.mark.parametrize("case", [*BAD_TRIPLES, "nan_start"])
def test_bad_orbit_inputs_exit_2_without_traceback(tmp_path, germ_file, case):
    germ, w0 = germ_file, "--w0=0.1,0"
    if case in BAD_TRIPLES:
        germ = _germ_with(germ_file, tmp_path, *BAD_TRIPLES[case])
    else:
        w0 = "--w0=nan,0"
    _assert_cli_exit_2(tmp_path, ["orbit", "--germ", germ, w0, "--n-max", "100"])


def test_normalize_nan_coefficient_exits_2(tmp_path, germ_file):
    germ = _germ_with(germ_file, tmp_path, *BAD_TRIPLES["nan_in_triple"])
    _assert_cli_exit_2(tmp_path, ["normalize", "--germ", germ, "--depth", "2",
                                  "--trunc-w", "8"])


@pytest.mark.parametrize("argv", [
    ["orbit", "--w0=0.1,0", "--escape", "nan"],
    ["orbit", "--w0=0.1,0", "--escape", "inf"],
    ["slice", "--grid=-1,nan,-1,1,4"],
    ["slice", "--grid=-inf,1,-1,1,4"],
    ["petalcheck", "--seed", "1", "--rho", "nan"],
    ["petalcheck", "--seed", "1", "--eta", "inf"],
    ["petalcheck", "--seed", "1", "--z-band=-inf"],
], ids=["escape-nan", "escape-inf", "grid-nan", "grid-inf", "rho-nan",
        "eta-inf", "z-band-inf"])
def test_non_finite_float_options_exit_2(tmp_path, germ_file, argv):
    if argv[0] != "petalcheck":
        argv = [argv[0], "--germ", germ_file, *argv[1:]]
    _assert_cli_exit_2(tmp_path, argv)


@pytest.mark.parametrize("argv", [
    ["orbit", "--w0=0.1,0", "--escape", "-1"],
    ["orbit", "--w0=0.1,0", "--escape", "0"],
    ["slice", "--grid=-0.5,0.5,-0.5,0.5,5", "--escape", "0"],
    ["slice", "--grid=-0.5,0.5,-0.5,0.5,5", "--escape=-inf"],
], ids=["orbit-negative", "orbit-zero", "slice-zero", "slice-minus-inf"])
def test_nonpositive_escape_exits_2(tmp_path, germ_file, argv):
    # an escape radius of 0 or below would label every start as escaping
    # at step 0
    _assert_cli_exit_2(tmp_path, [argv[0], "--germ", germ_file, *argv[1:]])


def test_escaping_full_orbit_dlog(tmp_path, germ_file):
    # g(w) = w + w^2 on the fiber z = 0: from w0 = 3 the orbit overflows to
    # inf and nan; dlog must follow as inf/nan, never read as a vanishing
    # derivative (-inf)
    out = tmp_path / "o"
    assert main(["orbit", "--germ", germ_file, "--w0=3,0", "--n-max", "100",
                 "--full-orbit", "--out", str(out)]) == 0
    _, rows = read_csv_cells(out / "orbit.csv", [int] + [float] * 6)
    assert len(rows) == 101
    ws = [complex(r[3], r[4]) for r in rows[:-1]]
    dlogs = [r[5] for r in rows[:-1]]
    assert not all(map(cmath.isfinite, ws))
    assert -math.inf not in dlogs
    for w, d in zip(ws, dlogs):
        if cmath.isfinite(w) and cmath.isfinite(1 + 2 * w):
            assert d == pytest.approx(math.log(abs(1 + 2 * w)), rel=1e-12)
        else:
            assert math.isnan(d) or d == math.inf


# -- process entry point ------------------------------------------------------

def test_run_version_through_a_pipe():
    # block-buffered: an empty PYTHONUNBUFFERED leaves stdout's buffer to
    # run()'s final flush
    proc = _run_python(["-m", "skewdyn.cli", "--version"], PYTHONUNBUFFERED="")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, sd.__version__ + "\n", "")


def test_run_version_with_stdout_closed():
    # sys.stdout is None, so argparse prints the version to stderr
    proc = _run_python(["-c", "import os, subprocess, sys; os.close(1); "
                        "sys.exit(subprocess.call([sys.executable, '-m', "
                        "'skewdyn.cli', '--version']))"])
    assert (proc.returncode, proc.stderr) == (0, sd.__version__ + "\n")


def test_run_usage_error_exits_2(tmp_path, germ_file):
    proc = _run_python(["-m", "skewdyn.cli", "orbit", "--germ", germ_file,
                        "--out", str(tmp_path / "o")])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: skewdyn orbit")
    assert proc.stderr.endswith(
        "error: the following arguments are required: --w0\n")
    assert not (tmp_path / "o").exists()


def test_run_writes_the_files_main_writes(tmp_path, germ_file):
    # the process ends without interpreter teardown; every file it wrote
    # must already be complete
    argv = ["orbit", "--germ", germ_file, "--w0=-0.1,0", "--n-max", "3000",
            "--full-orbit", "--out"]
    proc = _run_python(["-m", "skewdyn.cli", *argv, str(tmp_path / "sub")])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert main([*argv, str(tmp_path / "inproc")]) == 0
    outs = [{p.name: p.read_bytes() for p in sorted((tmp_path / d).iterdir())}
            for d in ("sub", "inproc")]
    assert outs[0] == outs[1]
    assert sorted(outs[0]) == ["orbit.csv", "orbit.json"]
    assert outs[0]["orbit.csv"].count(b"\n") == 3002


def test_run_lets_unexpected_exceptions_through():
    proc = _run_python(["-c", "import skewdyn.cli as c; "
                        "c.main = lambda argv=None: 1 / 0; c.run()"])
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr
    assert proc.stderr.rstrip().endswith("ZeroDivisionError: division by zero")


BROKEN_STDOUT = """import sys
class Broken:
    closed = False
    def write(self, s):
        return len(s)
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")
sys.stdout = Broken()
"""


def test_run_exits_120_when_the_final_flush_fails():
    # 120 is CPython's own exit code when flushing stdout fails at shutdown
    plain = _run_python(["-c", BROKEN_STDOUT])
    proc = _run_python(["-c", BROKEN_STDOUT + "import skewdyn.cli as c\n"
                        "c.main = lambda argv=None: 0\nc.run()\n"])
    assert plain.returncode == proc.returncode == 120


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="tomllib is new in Python 3.11")
def test_console_script_is_run():
    import tomllib

    import skewdyn.cli
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["skewdyn"]
    assert entry == "skewdyn.cli:run"
    assert callable(getattr(skewdyn.cli, entry.split(":")[1]))
