import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from types import SimpleNamespace

import pytest

from randcurve import verify
from randcurve.cli import main
from randcurve.fricke import FrickePoint
from randcurve.ribbon import SurfaceSignature
from randcurve.stats import (WalkDistribution, drift_estimate, random_walk,
                             sample_ball_uniform)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_reduce():
    code, out = run_cli("reduce", "--word", "aAb")
    assert code == 0 and out == "b\n"
    code, out = run_cli("reduce", "--word", "baB", "--cyclic")
    assert code == 0 and out == "a\n"


def test_self_int():
    code, out = run_cli("self-int", "--surface", "punctured-torus", "--word", "aab")
    assert code == 0 and out == "0\n"
    code, out = run_cli("self-int", "--word", "aabb")
    assert code == 0 and out == "1\n"
    code, out = run_cli("self-int", "--surface", "pair-of-pants", "--word", "aab")
    assert code == 0 and out == "1\n"


def test_int():
    code, out = run_cli("int", "--word", "a", "--word2", "b")
    assert code == 0 and out == "1\n"


def test_degree():
    code, out = run_cli("degree", "--word", "aabb", "--dmax", "6")
    assert code == 0 and out.startswith("degree 2 ")
    code, out = run_cli("degree", "--word", "aabbaabb", "--dmax", "3")
    assert code == 0 and out == "not-found(dmax=3)\n"


@pytest.mark.parametrize("dmax", ["0", "-2"])
def test_degree_rejects_nonpositive_dmax(capsys, dmax):
    code, out = run_cli("degree", "--word", "abAB", "--dmax", dmax)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: d_max must be positive, got {dmax}\n"


def test_spiral():
    code, out = run_cli("spiral", "--word", "Baaaba", "--alpha", "a")
    assert code == 0 and out == "3\n"


def test_spiral_two_letter_core():
    code, out = run_cli("spiral", "--word", "baabab", "--alpha", "ab")
    assert code == 0 and out == "2\n"


def test_count_subgroups_free():
    code, out = run_cli("count-subgroups", "--free", "--rank", "2", "--dmax", "3")
    assert code == 0
    assert out == "1,1\n2,3\n3,13\n"


def test_count_subgroups_closed():
    code, out = run_cli("count-subgroups", "--closed", "--genus", "2", "--dmax", "2")
    assert code == 0
    assert out == "1,1\n2,15\n"


@pytest.mark.parametrize("mode", ["--free", "--closed"])
@pytest.mark.parametrize("dmax", ["0", "-1"])
def test_count_subgroups_rejects_nonpositive_dmax(capsys, mode, dmax):
    code, out = run_cli("count-subgroups", mode, "--dmax", dmax)
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: d_max must be positive, got {dmax}\n"


def test_walk_and_ball():
    code, out = run_cli("walk", "--n", "0", "--seed", "1")
    assert code == 0 and out == "\n"
    code1, out1 = run_cli("walk", "--n", "12", "--seed", "7")
    code2, out2 = run_cli("walk", "--n", "12", "--seed", "7")
    assert code1 == code2 == 0 and out1 == out2 and len(out1.strip()) == 12
    code, out = run_cli("ball", "--n", "5", "--seed", "3")
    assert code == 0 and len(out.strip()) <= 5


def test_draw_commands_read_seed_and_rank():
    mu3 = WalkDistribution.uniform(3)
    assert run_cli("walk", "--n", "12", "--seed", "7", "--rank", "3") == (
        0, f"{random_walk(mu3, 12, 7)}\n")
    assert run_cli("ball", "--rank", "3", "--seed", "4", "--n", "5") == (
        0, f"{sample_ball_uniform(3, 5, 4)}\n")
    est = drift_estimate(mu3, 30, 6, 2)
    assert run_cli("drift", "--n", "30", "--samples", "6", "--seed", "2",
                   "--rank", "3") == (0, f"{est.mean!r},{est.stderr!r},"
                                         f"{est.ci95[0]!r},{est.ci95[1]!r}\n")


@pytest.mark.parametrize("cmd,rank", [("walk", 27), ("walk", 0), ("walk", -2),
                                      ("drift", 0), ("ball", 27)])
def test_walk_rank_out_of_range(capsys, cmd, rank):
    assert main([cmd, "--rank", str(rank), "--n", "5"]) == 1
    assert capsys.readouterr().err == f"error: rank must be in 1..26, got {rank}\n"


def test_minimize_diverged_and_csv():
    code, out = run_cli("minimize", "--word", "a")
    assert code == 0 and out == "diverged\n"
    code, out = run_cli("minimize", "--word", "babbaabAbaBabbAbABaB")
    assert code == 0
    fields = out.strip().split(",")
    assert len(fields) == 6
    assert float(fields[4]) < 1e-6  # gradient norm


def test_domain_error_exit_code(capsys):
    code = main(["self-int", "--word", "a!b"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2


def test_experiment_stdout_and_determinism(tmp_path):
    argv = ("experiment", "--family", "self-int", "--n-grid", "6,12",
            "--samples", "10", "--seed", "5")
    code1, out1 = run_cli(*argv)
    code2, out2 = run_cli(*argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "n,samples,median,q1,q3,mean,max"


def test_experiment_out_file(tmp_path):
    path = os.path.join(tmp_path, "t.csv")
    code, _ = run_cli("experiment", "--family", "self-int", "--n-grid", "6",
                      "--samples", "5", "--seed", "2", "--out", path)
    assert code == 0
    assert open(path).read().splitlines()[0] == "n,samples,median,q1,q3,mean,max"
    assert os.path.exists(path + ".meta.json")


def test_experiment_config_file(tmp_path):
    cfg = os.path.join(tmp_path, "exp.cfg")
    with open(cfg, "w") as fh:
        fh.write("family = self-int\nn_grid = 6, 12\nsamples = 8\nseed = 9\n")
    code1, out1 = run_cli("experiment", "--config", cfg)
    assert code1 == 0
    # flags override file values
    code2, out2 = run_cli("experiment", "--config", cfg, "--samples", "4")
    assert code2 == 0 and out1 != out2
    assert "samples" in out1.splitlines()[0]


def test_experiment_surface_flag_overrides_config_file(tmp_path):
    cfg = os.path.join(tmp_path, "exp.cfg")
    with open(cfg, "w") as fh:
        fh.write("family = self-int\nn_grid = 6\nsamples = 2\n"
                 "surface = pair-of-pants\nretain_raw = false\n")
    out = os.path.join(tmp_path, "t.csv")
    code = main(["experiment", "--config", cfg, "--surface", "punctured-torus",
                 "--out", out])
    assert code == 0
    meta = json.load(open(out + ".meta.json"))
    assert meta["surface"] == "punctured-torus" and meta["retain_raw"] is False
    # without the flag the file's surface holds
    code = main(["experiment", "--config", cfg, "--out", out])
    assert code == 0
    assert json.load(open(out + ".meta.json"))["surface"] == "pair-of-pants"
    # and without either, the preset default
    code = main(["experiment", "--family", "self-int", "--n-grid", "6",
                 "--samples", "2", "--out", out])
    assert code == 0
    assert json.load(open(out + ".meta.json"))["surface"] == "punctured-torus"


def test_experiment_unknown_config_key(tmp_path, capsys):
    cfg = os.path.join(tmp_path, "bad.cfg")
    with open(cfg, "w") as fh:
        fh.write("family = self-int\nn_grid = 6\nsamples = 2\nwomble = 3\n")
    code = main(["experiment", "--config", cfg])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--family", "self-int", "--rank", "3"), "does not match surface"),
    (("--family", "fixed-curve-int", "--alpha", "xyz"), "alpha 'xyz'"),
    (("--family", "fixed-curve-int", "--alpha", "aA"), "trivial class"),
    (("--family", "lifting", "--dmax", "0"), "d_max must be positive"),
    (("--family", "minimizer", "--surface", "pair-of-pants"),
     "punctured torus only"),
    (("--family", "minimizer", "--surface", "genus2-boundary1", "--rank", "4"),
     "punctured torus only"),
])
def test_experiment_bad_config_fails_before_sampling(capsys, argv, message):
    code = main(["experiment", *argv, "--n-grid", "6", "--samples", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


@pytest.mark.parametrize("family", ["self-int", "conj-ball"])
def test_experiment_repeated_radius_rejected(capsys, family):
    code = main(["experiment", "--family", family, "--n-grid", "4,4",
                 "--samples", "5"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "repeats a radius" in captured.err


def test_experiment_missing_required(capsys):
    code = main(["experiment", "--family", "self-int"])
    assert code == 2


VERIFY_LINES = [
    "PASS words: reduction, ball sizes, no-cancellation, conjugacy bound",
    "PASS ribbon: signatures, covers, boundary elevations, windings",
    "PASS intersect: oracle agreement, invariances, simple elevations",
    "PASS covers: hall/mednykh vs enumeration, hooks, degree invariants",
    "PASS fricke: holonomy, trace identities, collar, rose minimizer, proxy",
    "PASS stats: determinism, drift, exact ball sampling, reproducibility",
]


def test_verify_fast(capsys):
    code, out = run_cli("verify", "--fast")
    assert code == 0
    assert out.splitlines() == VERIFY_LINES
    # each suite's time goes to stderr, so stdout stays byte for byte
    err = capsys.readouterr().err.splitlines()
    names = [line.split()[1].rstrip(":") for line in VERIFY_LINES]
    assert len(err) == len(names)
    for line, name in zip(err, names):
        assert re.fullmatch(rf"time {name}: \d+\.\d\d s", line), line


def test_verify_fast_without_numpy():
    # the library imports no third-party package: numpy is blocked before
    # randcurve loads, and every suite, fricke's holonomy included, passes
    code = ("import sys\n"
            "sys.modules['numpy'] = None\n"
            "from randcurve.cli import main\n"
            "raise SystemExit(main(['verify', '--fast']))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == VERIFY_LINES


# one invariant broken per suite, by patching a name ``verify`` imports,
# and the message its first failed check gives
BROKEN_INVARIANTS = [
    ("words", "ball_size", lambda spec: 0, "rank-2 ball sizes wrong"),
    ("ribbon", "signature", lambda g: SurfaceSignature(0, 0),
     "punctured torus signature wrong"),
    ("intersect", "brute_min_crossings", lambda p: -1, "oracle disagreement at B"),
    ("covers", "hall_count", lambda rank, d: 0, "hall mismatch at d=1"),
    ("fricke", "rose_minimizer", lambda: FrickePoint(3, 3, 3),
     "rose minimizer off the symmetric point"),
    ("stats", "drift_estimate", lambda *args: SimpleNamespace(mean=0.0),
     "rank-2 drift 0.000 far from 1/2"),
]


@pytest.mark.parametrize("suite, name, broken, message", BROKEN_INVARIANTS,
                         ids=[case[0] for case in BROKEN_INVARIANTS])
def test_verify_reports_a_broken_invariant(monkeypatch, capsys, suite, name,
                                           broken, message):
    monkeypatch.setattr(verify, name, broken)
    monkeypatch.setattr(verify, "SUITES",
                        tuple(s for s in verify.SUITES if s[0] == suite))
    ((row_name, passed, detail, _),) = verify.run_all(fast=True)
    assert (row_name, passed, detail) == (suite, False, message)
    code, out = run_cli("verify", "--fast")
    assert code == 1 and out == f"FAIL {suite}: {message}\n"


def test_verify_fails_under_optimize():
    # the suites' own checks are not asserts, so -O keeps them
    code = ("from randcurve import verify\n"
            "from randcurve.cli import main\n"
            "verify.ball_size = lambda spec: 0\n"
            "verify.SUITES = verify.SUITES[:1]\n"
            "raise SystemExit(main(['verify', '--fast']))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "FAIL words: rank-2 ball sizes wrong\n"


@pytest.mark.parametrize("argv", [
    ["minimize", "--word", "ab", "--seed", "1"],
    ["experiment", "--family", "self-int", "--n-grid", "8", "--samples", "2",
     "--retain-raw"],
])
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
