import argparse
import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vilenkin import io as vio
from vilenkin import group, hardy, kernels, verify, weights
from vilenkin.cli import build_parser, main
from vilenkin.errors import InvalidParamsError, RangeError
from vilenkin.group import MAX_GRID_POINTS, check_grid_points, make_group
from vilenkin.hardy import counterexample
from vilenkin.spectral import GridFunction, Spectrum, constant, delta, random_grid_function


def run_cli(*argv):
    return main(list(argv))


def test_grid_round_trip(tmp_path, mixed):
    f = random_grid_function(mixed, 3, seed=4)
    path = tmp_path / "f.json"
    with open(path, "w", encoding="utf-8") as fh:
        vio.save_grid(f, fh)
    back = vio.load_grid(path)
    assert back.resolution == 3
    assert np.abs(back.values - f.values).max() == 0.0
    obj = json.loads(path.read_text())
    assert obj["m"] == [2, 3, 4]
    assert len(obj["values"]) == mixed.order(3)


def test_martingale_round_trip(tmp_path, walsh):
    mart = counterexample(walsh, "strong-partial-sums", [1, 2], rank=4)
    path = tmp_path / "mart.json"
    with open(path, "w", encoding="utf-8") as fh:
        vio.save_martingale(mart, fh)
    back = vio.load_martingale(path)
    assert back.levels == mart.levels
    for a, b in zip(back.entries, mart.entries):
        assert np.abs(a.values - b.values).max() == 0.0


def test_cli_group(capsys):
    assert run_cli("group", "--m", "2,3,4", "--levels", "3") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "k,m_k,M_k+1"
    assert out[-1] == "2,4,24"


def test_cli_kernel_dirichlet_example(capsys):
    assert run_cli("kernel", "--kind", "dirichlet", "--n", "3", "--m", "2", "--res", "2") == 0
    rows = capsys.readouterr().out.strip().splitlines()
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert vals == [3.0, 1.0, 1.0, -1.0]


def test_cli_kernel_fejer_example(capsys):
    assert run_cli("kernel", "--kind", "fejer", "--n", "2", "--m", "2", "--res", "2") == 0
    rows = capsys.readouterr().out.strip().splitlines()
    vals = [float(r.split(",")[1]) for r in rows[1:]]
    assert vals == [1.5, 0.5, 1.5, 0.5]


def test_cli_kernel_grows_the_group_to_its_order(capsys):
    # --m 2,3 alone has M_2 = 6 <= 9: the group takes the levels n needs
    assert run_cli("kernel", "--kind", "tmean", "--q", "power:0.5", "--n", "9", "--m", "2,3") == 0
    rows = capsys.readouterr().out.strip().splitlines()
    g = make_group([2, 3], 3)
    F = kernels.tmean_kernel(g, weights.power_weights(0.5, 10), 9)
    assert len(rows) == 1 + g.order(3)
    assert [float(r.split(",")[1]) for r in rows[1:]] == F.values.real.tolist()


@pytest.mark.parametrize("argv", [
    ("group", "--tol", "1e-9"),
    ("kernel", "--kind", "fejer", "--n", "2", "--seed", "1"),
    ("lebesgue", "--seed", "1"),
    ("mean", "--tol", "1e-9"),
    ("transform", "--tol", "1e-9"),
    ("counterexample", "--kind", "hp-blocks", "--format", "json"),
])
def test_cli_refuses_flags_the_subcommand_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_kernel_dirichlet_one(capsys):
    assert run_cli("kernel", "--kind", "dirichlet", "--n", "1", "--m", "2") == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert all(float(r.split(",")[1]) == 1.0 for r in rows[1:])


def test_cli_lebesgue_rows(capsys):
    assert run_cli("lebesgue", "--max-n", "4", "--m", "2") == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "n,L_n,v,vstar,lower,upper,pass"
    first = rows[1].split(",")
    assert first[:4] == ["1", "1", "1", "0"]
    assert float(first[4]) == 0.125 and float(first[5]) == 1.0 and first[6] == "pass"
    n3 = rows[3].split(",")
    assert float(n3[1]) == 1.5 and float(n3[4]) == 0.25 and float(n3[5]) == 2.0


def test_cli_lebesgue_block_row(capsys):
    assert run_cli("lebesgue", "--max-n", "6", "--m", "2,3") == 0
    rows = capsys.readouterr().out.strip().splitlines()
    n6 = rows[6].split(",")   # n = M_2 = 6
    assert float(n6[1]) == pytest.approx(1.0, abs=1e-12)


def test_cli_verify_identities(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli("verify", "--suite", "identities", "--m", "2", "--max-n", "16",
                   "--format", "json", "--out", str(out))
    assert code == 0
    records = json.loads(out.read_text())
    assert all(r["passed"] in (True, None) for r in records)


def test_cli_verify_unknown_suite(tmp_path):
    out = tmp_path / "x.json"
    proc = run_cli_process("verify", "--suite", "identities,foo", "--m", "2", "--levels", "8",
                           "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"error: unknown suite 'foo'; choose from {', '.join(verify.SUITES)} or all"]
    assert proc.stdout == ""
    assert not out.exists()


def test_cli_verify_csv_stdout(tmp_path, capsys):
    argv = ("verify", "--suite", "identities", "--m", "2", "--max-n", "8")
    assert run_cli(*argv) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["suite", "claim", "params"]
    assert {len(r) for r in rows} == {9}
    assert json.loads(rows[1][2])["m"] == [2] * 8   # params is one quoted JSON field
    path = tmp_path / "report.csv"
    assert run_cli(*argv, "--out", str(path)) == 0
    assert path.read_bytes() == out.encode("utf-8")   # one writer, LF line ends


def test_cli_counterexample(tmp_path, capsys):
    prefix = tmp_path / "ce"
    code = run_cli("counterexample", "--kind", "hp-blocks", "--alpha", "1,2",
                   "--p", "0.4", "--rank", "4", "--m", "5", "--out", str(prefix))
    assert code == 0
    mart = vio.load_martingale(f"{prefix}.martingale.json")
    assert mart.levels[-1] == 4
    raw = (tmp_path / "ce.probe.csv").read_bytes()
    assert b"\r" not in raw
    probe = raw.decode().splitlines()
    assert probe[0] == "n,weak_lp,bound"
    for line in probe[1:]:
        n, w, b = line.split(",")
        assert float(w) >= float(b)


def test_cli_counterexample_bad_alpha(capsys):
    assert run_cli("counterexample", "--kind", "hp-blocks", "--alpha", "",
                   "--m", "5", "--rank", "4") == 2


@pytest.mark.parametrize("alpha", ["x", "1,two", "1.5"])
def test_cli_counterexample_non_integer_alpha(capsys, alpha):
    assert run_cli("counterexample", "--kind", "hp-blocks", "--alpha", alpha,
                   "--m", "5", "--rank", "4") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--alpha" in err


@pytest.mark.parametrize("cmd", ["mean", "transform"])
def test_cli_missing_input_file(tmp_path, capsys, cmd):
    missing = tmp_path / "nonexistent.json"
    assert run_cli(cmd, "--input", str(missing), "--m", "2", "--levels", "4") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err


def test_cli_mean_convergence(capsys):
    code = run_cli("mean", "--kind", "fejer", "--m", "2", "--res", "4", "--max-n", "16",
                   "--p", "2")
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()
    errs = [float(r.split(",")[1]) for r in rows[1:]]
    assert errs[-1] <= errs[0]   # averaging converges on a fixed-rank function


def test_cli_transform_round_trip(tmp_path, capsys):
    g = make_group([2, 3], 4)
    f = random_grid_function(g, 2, seed=1)
    src = tmp_path / "f.json"
    with open(src, "w", encoding="utf-8") as fh:
        vio.save_grid(f, fh)
    out = tmp_path / "spec.json"
    code = run_cli("transform", "--m", "2,3", "--res", "2", "--input", str(src),
                   "--format", "json", "--out", str(out))
    assert code == 0
    spec = vio.load_grid(out)
    from vilenkin.spectral import transform_forward

    assert np.abs(spec.values - transform_forward(f).coeffs).max() < 1e-14


def test_grid_file_radices_must_match_group(tmp_path, capsys):
    f = random_grid_function(make_group([2, 3], 2), 2, seed=1)
    src = tmp_path / "f.json"
    with open(src, "w", encoding="utf-8") as fh:
        vio.save_grid(f, fh)
    with pytest.raises(InvalidParamsError):
        vio.load_grid(src, make_group([3, 2], 2))
    assert run_cli("transform", "--m", "3,2", "--res", "2", "--input", str(src)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "radices" in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_grid_file_values_must_be_finite(tmp_path, capsys, bad):
    obj = vio.grid_to_dict(random_grid_function(make_group([2], 2), 2, seed=1))
    obj["values"][1][0] = bad
    src = tmp_path / "f.json"
    src.write_text(json.dumps(obj))
    with pytest.raises(InvalidParamsError):
        vio.load_grid(src)
    assert run_cli("transform", "--m", "2", "--res", "2", "--input", str(src)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("argv", [
    ("group", "--m", "a"),
    ("group", "--m", ","),
    ("lebesgue", "--m", "2,x", "--max-n", "4"),
    ("mean", "--m", "a", "--res", "2"),
    ("kernel", "--kind", "fejer", "--n", "2", "--m", "2.5"),
    ("transform", "--m", "a", "--res", "2"),
    ("verify", "--m", "a", "--suite", "identities"),
    ("counterexample", "--kind", "hp-blocks", "--m", "a"),
])
def test_cli_bad_radix_pattern(capsys, argv):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--m" in err


@pytest.mark.parametrize("q", ["power:abc", "log:", "1,x", "1,,2"])
@pytest.mark.parametrize("argv", [
    ("kernel", "--kind", "tmean", "--n", "5"),
    ("mean", "--kind", "norlund", "--res", "3", "--max-n", "4"),
], ids=["kernel", "mean"])
def test_cli_malformed_weights_exit_2(capsys, argv, q):
    assert run_cli(*argv, "--m", "2", "--q", q) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--q" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("mean", "--p", "nan", "--m", "2", "--levels", "4", "--res", "4", "--max-n", "8"),
    ("counterexample", "--kind", "strong-fejer", "--p", "nan", "--m", "2"),
    ("kernel", "--kind", "tmean", "--q", "nan,1,1,1", "--n", "3", "--m", "2"),
], ids=["mean-p", "counterexample-p", "kernel-q"])
def test_cli_nan_exponent_or_weight_exits_2(tmp_path, capsys, argv):
    prefix = tmp_path / "ce"
    extra = ("--out", str(prefix)) if argv[0] == "counterexample" else ()
    assert run_cli(*argv, *extra) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_cli_determinism(capsys):
    run_cli("mean", "--kind", "fejer", "--m", "3", "--res", "3", "--max-n", "9", "--seed", "7")
    first = capsys.readouterr().out
    run_cli("mean", "--kind", "fejer", "--m", "3", "--res", "3", "--max-n", "9", "--seed", "7")
    second = capsys.readouterr().out
    assert first == second


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "vilenkin.cli", "group", "--m", "2", "--levels", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,m_k")


@pytest.mark.parametrize("m,levels", [("2", 12), ("3", 9), ("2,3,4", 9)])
def test_verify_json_independent_of_blas_threads(m, levels):
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = src + (os.pathsep + base["PYTHONPATH"] if base.get("PYTHONPATH") else "")
    argv = [sys.executable, "-m", "vilenkin.cli", "verify", "--suite", "all",
            "--format", "json", "--m", m, "--levels", str(levels), "--seed", "11"]
    outs = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, {}):
        proc = subprocess.run(argv, env={**base, **threads}, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag,value,least", [
    ("--levels", "3", "8"),
    ("--levels", "7", "8"),
    ("--max-n", "7", "8"),
    ("--max-n", "2", "8"),
    ("--max-n", "-1", "8"),
    ("--samples", "0", "1"),
])
def test_cli_verify_refuses_small_sizes(capsys, flag, value, least):
    assert run_cli("verify", "--m", "2", "--suite", "identities", flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and f">= {least}" in err


def test_cli_verify_runs_every_suite_at_the_least_sizes(capsys):
    assert run_cli("verify", "--m", "3", "--levels", "8", "--max-n", "8", "--samples", "1") == 0


@pytest.mark.parametrize("m,max_n", [("5", 16), ("7", 16), ("7", 32)])
def test_cli_verify_kernel_lemmas_probe_orders_within_max_n(capsys, m, max_n):
    assert run_cli("verify", "--suite", "kernel-lemmas", "--m", m, "--max-n", str(max_n)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("m", ["13", "13,2"])
def test_cli_verify_kernel_lemmas_refuse_max_n_below_m0(capsys, m):
    assert run_cli("verify", "--suite", "kernel-lemmas", "--m", m, "--levels", "8",
                   "--max-n", "8") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the kernel-lemma suite needs n_max >= m_0 = 13, got 8\n"


_GRID = {"m": [2, 2], "resolution": 2, "values": [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 0.0]]}


@pytest.mark.parametrize("text", [
    '{"m": [2, 2], "resolution": 2, "values": [[1, 0]',
    json.dumps({k: v for k, v in _GRID.items() if k != "resolution"}),
    json.dumps({**_GRID, "resolution": "two"}),
    json.dumps({**_GRID, "values": [[1.0, 0.0, 0.0]] * 4}),
    json.dumps([_GRID]),
], ids=["invalid-json", "no-resolution", "non-integer-resolution", "not-pairs", "top-level-list"])
def test_malformed_grid_file(tmp_path, capsys, text):
    src = tmp_path / "f.json"
    src.write_text(text)
    with pytest.raises(InvalidParamsError):
        vio.load_grid(src)
    assert run_cli("transform", "--m", "2", "--res", "2", "--input", str(src)) == 2
    assert capsys.readouterr().err.startswith("error:")


def _martingale_obj(walsh) -> dict:
    return vio.martingale_to_dict(counterexample(walsh, "strong-partial-sums", [1, 2], rank=4))


@pytest.mark.parametrize("mangle", [
    lambda obj: json.dumps(obj)[:-7],
    lambda obj: json.dumps({k: v for k, v in obj.items() if k != "entries"}),
    lambda obj: json.dumps({**obj, "entries": [{"m": [2], "resolution": 1}] * 4}),
    lambda obj: json.dumps({**obj, "entries": "grids"}),
    lambda obj: json.dumps({**obj, "levels": [1, "two", 3, 4]}),
    lambda obj: json.dumps({**obj, "levels": [1, 2, 3]}),
    lambda obj: json.dumps([obj]),
], ids=["invalid-json", "no-entries", "entry-without-values", "entries-not-a-list",
        "non-integer-level", "levels-entries-misaligned", "top-level-list"])
def test_malformed_martingale_file(tmp_path, walsh, mangle):
    src = tmp_path / "mart.json"
    src.write_text(mangle(_martingale_obj(walsh)))
    with pytest.raises(InvalidParamsError, match="mart.json"):
        vio.load_martingale(src)


# radices and levels are JSON integers and values JSON numbers: nothing is
# rounded, parsed from a string or read from a bool
@pytest.mark.parametrize("change", [
    {"m": [2.7, 2]},
    {"m": [2.0, 2]},
    {"m": ["2", "2"]},
    {"m": [True, 2]},
    {"m": 2},
    {"values": [[True, False]] + _GRID["values"][1:]},
    {"values": [["1", 0]] + _GRID["values"][1:]},
    {"values": [[None, 0]] + _GRID["values"][1:]},
    {"values": [[1.0]] * 4},
    {"values": [[10 ** 400, 0]] + _GRID["values"][1:]},
], ids=["float-radix", "integral-float-radix", "string-radices", "bool-radix",
        "radices-not-a-list", "bool-values", "string-value", "null-value", "short-pair",
        "value-past-float"])
def test_grid_file_takes_only_json_numbers(tmp_path, capsys, change):
    src = tmp_path / "f.json"
    src.write_text(json.dumps({**_GRID, **change}))
    with pytest.raises(InvalidParamsError):
        vio.load_grid(src)
    assert run_cli("transform", "--m", "2", "--levels", "2", "--res", "2",
                   "--input", str(src)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("change", [
    lambda obj: {**obj, "levels": [1.9] + obj["levels"][1:]},
    lambda obj: {**obj, "levels": [True] + obj["levels"][1:]},
    lambda obj: {**obj, "levels": "1234"},
    lambda obj: {**obj, "m": [2.0] + obj["m"][1:]},
    lambda obj: {**obj, "m": ["2"] + obj["m"][1:]},
    lambda obj: {**obj, "entries": [{**obj["entries"][0], "values": [[True, False]] * 2}]
                 + obj["entries"][1:]},
], ids=["float-level", "bool-level", "levels-not-a-list", "float-radix", "string-radix",
        "bool-values"])
def test_martingale_file_takes_only_json_numbers(tmp_path, walsh, change):
    src = tmp_path / "mart.json"
    src.write_text(json.dumps(change(_martingale_obj(walsh))))
    with pytest.raises(InvalidParamsError, match="mart.json"):
        vio.load_martingale(src)


def test_missing_martingale_file(tmp_path):
    with pytest.raises(InvalidParamsError, match="absent.json"):
        vio.load_martingale(tmp_path / "absent.json")


def test_grid_cap_admits_the_largest_suite_grid():
    assert check_grid_points(make_group([7], 8), 8) == 7 ** 8 <= MAX_GRID_POINTS


@pytest.mark.parametrize("build", [
    lambda g: random_grid_function(g, 8, seed=0),
    lambda g: constant(g, 8),
    lambda g: delta(g, 8),
    lambda g: counterexample(g, "hp-blocks", [1, 2, 3], rank=8, p=0.4),
    lambda g: verify.run_divergence_suite(g),
    lambda g: kernels.dirichlet(g, 5, 8),
    lambda g: kernels.fejer(g, 5, 8),
    lambda g: kernels.mean_kernel(g, "fejer", 5, 8),
    lambda g: kernels.lebesgue_batch(g, g.M[7]),
    lambda g: kernels.fejer_l1_batch(g, g.M[7]),
], ids=["random", "constant", "delta", "counterexample", "divergence-suite", "dirichlet",
        "fejer", "mean-kernel", "lebesgue-batch", "fejer-l1-batch"])
def test_oversized_grids_are_refused_before_allocation(build):
    with pytest.raises(RangeError, match="points"):
        build(make_group([17], 8))


def test_grids_and_spectra_built_from_values_are_refused_past_the_cap(monkeypatch):
    g = make_group([2], 4)
    monkeypatch.setattr(group, "MAX_GRID_POINTS", 8)
    assert GridFunction(g, 3, np.zeros(8)).values.shape == (8,)
    for cls in (GridFunction, Spectrum):
        with pytest.raises(RangeError, match="points"):
            cls(g, 4, np.zeros(16))


def test_cli_transform_refuses_a_grid_file_past_the_cap(tmp_path, monkeypatch, capsys):
    src = tmp_path / "f.json"
    src.write_text(json.dumps(vio.grid_to_dict(random_grid_function(make_group([2], 4), 4, seed=1))))
    monkeypatch.setattr(group, "MAX_GRID_POINTS", 8)
    assert run_cli("transform", "--m", "2", "--res", "4", "--input", str(src)) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error:") and "16 points" in err


def run_cli_process(*argv):
    """Run the CLI in a child process that is killed after 20 s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-m", "vilenkin.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=20)


def test_cli_verify_refuses_an_oversized_grid_at_once():
    # the divergence suite would build 17^8 (about 7e9) points
    proc = run_cli_process("verify", "--m", "17")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "points" in proc.stderr


def test_cli_verify_refuses_an_oversized_kernel_table_at_once():
    # D_0..D_20001 on 2^15 points would take 9.77 GiB
    proc = run_cli_process("verify", "--suite", "identities", "--m", "2", "--levels", "20",
                           "--max-n", "20000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1
    assert "655425536 entries" in proc.stderr


def test_cli_mean_refuses_an_order_past_M_N_at_once():
    # the sweep of orders 1..16384 on 2^14 points would come before the refusal
    t0 = time.perf_counter()
    proc = run_cli_process("mean", "--m", "2", "--levels", "14", "--res", "14",
                           "--max-n", "20000")
    elapsed = time.perf_counter() - t0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: fejer mean order 16385 outside 1..16384\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("argv,message", [
    (("kernel", "--kind", "tmean", "--n", "16777216", "--m", "2"),
     "error: a rank-25 grid on radices [2"),
    (("kernel", "--kind", "riesz-log", "--n", "16777216", "--m", "2"),
     "error: a rank-25 grid on radices [2"),
    (("mean", "--kind", "tmean", "--max-n", "16777216", "--m", "2", "--levels", "4",
      "--res", "4"), "error: tmean mean order 17 outside 1..16\n"),
    (("mean", "--kind", "riesz_log", "--max-n", "16777216", "--m", "2", "--levels", "4",
      "--res", "0"), "error: riesz_log mean order 2 outside 2..1\n"),
], ids=["tmean-kernel", "riesz-log-kernel", "tmean-mean", "riesz-log-mean-on-one-point"])
def test_cli_huge_orders_are_refused_before_weights_are_built(monkeypatch, capsys, argv,
                                                               message):
    # at n = 2^24 the weights and order lists alone would take about 1 GB
    sizes = []
    ones = weights.ones

    def counted(n):
        sizes.append(n)
        return ones(n)

    monkeypatch.setattr(weights, "ones", counted)
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and len(err.splitlines()) == 1
    assert all(n <= 18 for n in sizes)


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "identities", "--m", "2", "--levels", "8", "--tol", "nan"),
    ("verify", "--suite", "inequalities", "--m", "2", "--levels", "8", "--tol", "-1"),
    ("lebesgue", "--m", "2", "--max-n", "8", "--tol", "nan"),
    ("lebesgue", "--m", "2", "--max-n", "8", "--tol", "inf"),
    ("lebesgue", "--m", "2", "--max-n", "8", "--tol", "-0.5"),
], ids=["verify-nan", "verify-negative", "lebesgue-nan", "lebesgue-inf", "lebesgue-negative"])
def test_cli_refuses_a_tol_that_is_not_finite_and_nonnegative(tmp_path, capsys, argv):
    out = tmp_path / "report.csv"
    assert run_cli(*argv, "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"error: --tol must be a finite number >= 0, got {float(argv[-1])}\n"


@pytest.mark.parametrize("argv,message", [
    (("lebesgue", "--m", "1"), "radix 1 < 2"),
    (("lebesgue", "--m", "0", "--max-n", "4"), "radix 0 < 2"),
    (("lebesgue", "--m", "2,1,3"), "radix 1 < 2"),
    (("lebesgue", "--max-n", "-1"), "nonnegative"),
    (("lebesgue", "--max-n", "5000000000"), "points"),        # 2^33 points, 128 GiB
    (("kernel", "--kind", "dirichlet", "--n", "5", "--res", "40"), "points"),   # 16 TiB
], ids=["radix-1", "radix-0", "radix-1-in-pattern", "negative-max-n", "max-n-past-memory",
        "res-past-memory"])
def test_cli_bad_sizes_exit_2_at_once(argv, message):
    # in a child process, so that a hang fails the test instead of the run
    proc = run_cli_process(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and message in proc.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_exits_quietly_when_the_reader_closes_the_pipe(fmt):
    # about 200 kB of output: more than the pipe holds, so the writer meets
    # the closed pipe after the reader takes one line
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, "-m", "vilenkin.cli", "transform", "--format", fmt,
            "--m", "2", "--levels", "12", "--res", "12"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=20) == 1
    assert err == b""


@pytest.mark.parametrize("argv", [
    ("group", "--m", "2", "--levels", "3"),
    ("verify", "--suite", "identities", "--m", "2", "--levels", "8", "--max-n", "8"),
    ("counterexample", "--kind", "hp-blocks", "--alpha", "1,2", "--m", "5", "--rank", "4"),
], ids=lambda argv: argv[0])
def test_cli_unwritable_out_is_an_error_line(tmp_path, capsys, argv):
    out = tmp_path / "nodir" / "x"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: cannot write") and str(out) in err
    assert not (tmp_path / "nodir").exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("the work ran before its output was opened")


@pytest.mark.parametrize("argv,module,name", [
    (("verify", "--m", "2", "--levels", "12"), verify, "run_suite"),
    (("counterexample", "--kind", "hp-blocks", "--m", "5", "--rank", "4"), hardy, "counterexample"),
], ids=["verify", "counterexample"])
def test_cli_unwritable_out_fails_before_the_work(monkeypatch, tmp_path, capsys, argv, module, name):
    monkeypatch.setattr(module, name, _must_not_run)
    out = tmp_path / "nodir" / "x.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: cannot write")


@pytest.mark.parametrize("argv,module,name", [
    (("verify", "--m", "2", "--levels", "8"), verify, "run_suite"),
    (("counterexample", "--kind", "hp-blocks", "--m", "5", "--rank", "4"), hardy, "counterexample"),
], ids=["verify", "counterexample"])
def test_cli_run_that_fails_after_opening_leaves_no_file(monkeypatch, tmp_path, capsys, argv,
                                                        module, name):
    def fail(*args, **kwargs):
        raise InvalidParamsError("refused")

    monkeypatch.setattr(module, name, fail)
    assert run_cli(*argv, "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: refused"
    assert not list(tmp_path.iterdir())


def test_every_cli_option_has_help():
    sub, = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [f"{name} {action.option_strings[-1]}" for name, parser in sub.choices.items()
               for action in parser._actions if action.option_strings and not action.help]
    assert missing == []
