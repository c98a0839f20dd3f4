"""Sweep engine, surface diagnostics, CSV determinism, and the CLI."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gicbounds.sweep import (
    CSV_COLUMNS,
    LOWER_BOUNDS,
    SurfaceSpec,
    SweepSpec,
    _torus_extrema,
    reproduce,
    rows_to_csv,
    run_surface,
    run_sweep,
    write_csv,
)
from gicbounds.cli import main as cli_main, parse_complex


def test_empty_bound_list_gives_empty_table():
    spec = SweepSpec("g2", 0.2, 0.6, 0.2, bounds=())
    rows = run_sweep(spec)
    assert rows == []
    assert rows_to_csv(rows) == ",".join(CSV_COLUMNS) + "\n"


def test_unknown_bound_rejected():
    with pytest.raises(ValueError):
        run_sweep(SweepSpec("g2", 0.2, 0.6, 0.2, bounds=("nope",)))
    with pytest.raises(ValueError):
        SweepSpec("bogus_axis", 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        SweepSpec("g2", 0.0, 1.0, -0.1)


def test_row_order_and_schema():
    spec = SweepSpec("g2", 0.2, 0.6, 0.2,
                     bounds=("tdm", "kramer2", "etw2"))
    rows = run_sweep(spec)
    assert len(rows) == 3 * 3
    # grid-major, bound-name-minor
    assert [r["bound"] for r in rows[:3]] == ["etw2", "kramer2", "tdm"]
    assert rows[0]["axis_value"] == pytest.approx(0.2)
    assert rows[3]["axis_value"] == pytest.approx(0.4)
    for r in rows:
        assert set(r) == set(CSV_COLUMNS)


def test_determinism_and_threads():
    spec = SweepSpec("alpha", 0.2, 0.6, 0.2,
                     bounds=("gen_kramer3", "zchain3", "lower_best", "tdm"))
    a = rows_to_csv(run_sweep(spec, threads=1))
    b = rows_to_csv(run_sweep(spec, threads=1))
    c = rows_to_csv(run_sweep(spec, threads=3))
    assert a == b == c


def test_nine_significant_digits():
    spec = SweepSpec("g2", 0.5, 0.5, 1.0, bounds=("tdm",))
    text = rows_to_csv(run_sweep(spec))
    line = text.splitlines()[1]
    # normalized tdm at P=10: 0.825699385...
    assert "0.825699385" in line


def test_upper_at_least_lower_rows():
    spec = SweepSpec("alpha", -0.5, 1.0, 0.25,
                     bounds=("best_upper", "lower_best"))
    rows = run_sweep(spec)
    by_x = {}
    for r in rows:
        by_x.setdefault(r["axis_value"], {})[r["bound"]] = r
    for x, d in by_x.items():
        assert d["best_upper"]["normalized"] >= \
            d["lower_best"]["normalized"] - 1e-9


def test_phase_sweep_peaks_at_quadrature():
    # |g|^2 = 1, K = 3, P = 10: the combined upper bound peaks where the
    # cross gain is +-i
    spec = SweepSpec("phase", 0.0, 2 * math.pi, math.pi / 8,
                     k=3, p=10.0, g=1.0, field="complex",
                     bounds=("best_upper",))
    rows = run_sweep(spec)
    vals = np.array([r["normalized"] for r in rows])
    phases = np.array([r["axis_value"] for r in rows])
    top = set(np.round(phases[vals >= vals.max() - 1e-9], 6))
    assert np.round(math.pi / 2, 6) in top
    assert np.round(3 * math.pi / 2, 6) in top
    i_half = int(np.argmin(np.abs(phases - math.pi / 2)))
    assert vals[i_half] == pytest.approx(0.25 * math.log2(21.0), abs=0.01)


def test_surface_swap_symmetry_and_tdm():
    spec = SurfaceSpec(0.3, 0.3, p=10.0, grid_n=8)
    phis, vals, rows, rep = run_surface(spec)
    assert np.max(np.abs(vals - vals.T)) < 1e-9
    assert rep.tdm_normalized == pytest.approx(0.8257, abs=1e-4)
    assert len(rows) == 64
    for r in rows:
        assert r["normalized"] >= rep.tdm_normalized - 1e-9
    # extrema diagnostics populated with torus distances
    assert all(0 <= e["dist_max_lines"] <= math.pi for e in rep.extrema)


def test_surface_unequal_mags_has_extrema_report():
    # etkin3 alone: with the default zchain3 the surface's top is a flat,
    # phase-independent plateau, which holds no strict maximum
    spec = SurfaceSpec(0.3, 0.7, p=10.0, grid_n=8, bounds=("etkin3",))
    _, vals, rows, rep = run_surface(spec)
    kinds = {e["kind"] for e in rep.extrema}
    assert "max" in kinds and "min" in kinds
    assert np.isfinite(vals).all()


def test_surface_extrema_are_strict_not_plateau_edges():
    values = np.full((6, 6), 2.0)
    values[0:2, 0:2] = 1.0      # plateau: equal cells, higher cells around
    values[3, 3] = 0.5          # strict minimum
    values[4, 0] = 3.0          # strict maximum
    is_max, is_min = _torus_extrema(values)
    assert list(zip(*np.nonzero(is_max))) == [(4, 0)]
    assert list(zip(*np.nonzero(is_min))) == [(3, 3)]


def test_surface_grid_validation():
    with pytest.raises(ValueError):
        SurfaceSpec(0.3, 0.3, grid_n=4)


def test_surface_accepts_only_upper_bounds_of_any_three_user_channel():
    for name in ("etkin3", "coi3", "hybrid3", "zchain3", "new_min",
                 "best_upper"):
        SurfaceSpec(0.3, 0.7, grid_n=8, bounds=(name,))
    # a lower bound, symmetric-only bounds and K-user bounds would be
    # evaluated for a channel that is not the surface's
    for name in ("lower_best", "tdm", "kramer2", "gen_kramer3",
                 "hybrid3_sym", "cf_best", "kuser_weak", "nope"):
        with pytest.raises(ValueError):
            SurfaceSpec(0.3, 0.7, grid_n=8, bounds=("etkin3", name))
    code, _, err = run_cli("surface", "--g", "0.5477", "--grid", "8",
                           "--bounds", "etkin3,lower_best")
    assert code == 2
    assert "lower_best" in err


def test_reproduce_unknown_id():
    with pytest.raises(ValueError):
        reproduce("fig99", ".")


def test_reproduce_fig4_writes_csv(tmp_path):
    paths = reproduce("fig4", str(tmp_path))
    assert len(paths) == 1
    text = open(paths[0]).read()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    # 41 grid points x 6 bounds
    assert len(lines) == 1 + 41 * 6


# CLI -------------------------------------------------------------------------

def test_parse_complex():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.3i") == -0.3j
    assert parse_complex("i") == 1j
    assert parse_complex("1-0.5j") == 1 - 0.5j
    with pytest.raises(ValueError):
        parse_complex("zzz")


def run_cli(*argv):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_eval_ok():
    code, out, _ = run_cli("eval", "--k", "3", "--p", "10", "--g", "1",
                           "--bounds", "tdm,etkin3")
    assert code == 0
    assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert "0.825699385" in out


def test_cli_eval_p_db():
    code, out, _ = run_cli("eval", "--k", "3", "--p-db", "10", "--g", "0.5",
                           "--bounds", "tdm")
    assert code == 0
    assert ",10," in out


def test_cli_bad_config_exit_2():
    code, _, err = run_cli("eval", "--bounds", "not_a_bound")
    assert code == 2
    code, _, _ = run_cli("sweep", "--axis", "alpha")  # missing range
    assert code == 2
    code, _, _ = run_cli("sweep", "--axis", "bogus", "--start", "0",
                         "--stop", "1", "--step", "0.5")
    assert code == 2
    code, _, _ = run_cli("eval", "--p", "10", "--p-db", "10")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("eval", "--g2", "0.3"),
    ("eval", "--grid", "5"),
    ("sweep", "--axis", "g2", "--start", "0.2", "--stop", "0.4",
     "--step", "0.2", "--alpha", "0.5"),
    ("surface", "--k", "4", "--grid", "8"),
    ("surface", "--field", "real", "--grid", "8"),
    ("largek", "--bounds", "tdm"),
    ("largek", "--grid", "8"),
    ("largek", "--threads", "2"),
    ("reproduce", "fig1", "--g", "0.5"),
    ("surface", "--grid", "8", "--threads", "2"),
])
def test_cli_rejects_flags_the_verb_does_not_read(argv):
    code, out, _ = run_cli(*argv)
    assert code == 2
    assert out == ""


def test_cli_rejects_config_keys_the_verb_does_not_read(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"g": 0.5, "g2": 0.3, "bounds": "tdm"}))
    code, out, err = run_cli("eval", "--config", str(cfg_path))
    assert code == 2
    assert out == "" and "g2" in err
    cfg_path.write_text(json.dumps([1]))
    code, out, _ = run_cli("eval", "--config", str(cfg_path))
    assert code == 2 and out == ""
    cfg_path.write_text(json.dumps({"g": 0.5, "bounds": "tdm"}))
    code, _, _ = run_cli("eval", "--config", str(cfg_path))
    assert code == 0


def test_cli_infeasible_everywhere_exit_3():
    # strong symmetric gain: the chain bound has no admissible ordering
    code, out, _ = run_cli("eval", "--k", "3", "--p", "10",
                           "--g", "1.5", "--bounds", "zchain3")
    assert code == 3
    assert ",false" in out


def test_cli_sweep_and_out_file(tmp_path):
    out = tmp_path / "sweep.csv"
    code, _, _ = run_cli("sweep", "--axis", "g2", "--start", "0.2",
                         "--stop", "0.6", "--step", "0.2", "--p", "10",
                         "--bounds", "kramer2,tdm", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 3 * 2
    # byte-identical on re-run
    first = out.read_text()
    run_cli("sweep", "--axis", "g2", "--start", "0.2", "--stop", "0.6",
            "--step", "0.2", "--p", "10", "--bounds", "kramer2,tdm",
            "--out", str(out), "--threads", "2")
    assert out.read_text() == first


def test_cli_config_json(tmp_path):
    cfg = {"axis": "g2", "start": 0.2, "stop": 0.4, "step": 0.2,
           "p": 10.0, "bounds": "kramer2,tdm"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o.csv"
    code, _, _ = run_cli("sweep", "--config", str(cfg_path),
                         "--out", str(out))
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 2 * 2
    # explicit flag overrides the config file
    code, _, _ = run_cli("sweep", "--config", str(cfg_path), "--stop", "0.6",
                         "--out", str(out))
    assert len(out.read_text().strip().split("\n")) == 1 + 3 * 2


def test_cli_largek():
    code, out, _ = run_cli("largek", "--k", "100000", "--g", "0.94868",
                           "--p", "5")
    assert code == 0
    assert "closed_form_best_normalized=0.017" in out
    assert "eta=0" in out


def test_cli_surface(tmp_path):
    out = tmp_path / "surf.csv"
    code, _, err = run_cli("surface", "--g", "0.5477", "--p", "10",
                           "--grid", "8", "--out", str(out))
    assert code == 0
    assert "tdm_normalized=0.825699385" in err
    assert len(out.read_text().strip().split("\n")) == 1 + 64


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "gicbounds.cli", "eval", "--k", "3",
         "--p", "10", "--g", "1", "--bounds", "tdm"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "tdm" in proc.stdout
