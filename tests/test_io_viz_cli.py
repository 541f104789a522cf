"""Serialization, rendering, and CLI tests."""

import json

import numpy as np
import pytest

from repro.core import theorem2_mesh_dynamo, verify_dynamo
from repro.engine import run_synchronous
from repro.io import load_configuration, save_configuration
from repro.rules import SMPRule
from repro.topology import ToroidalMesh
from repro.viz import color_glyphs, render_grid, render_run, render_time_matrix


# ----------------------------------------------------------------------
# io
# ----------------------------------------------------------------------
def test_configuration_roundtrip(tmp_path):
    con = theorem2_mesh_dynamo(5, 6)
    path = tmp_path / "conf.json"
    save_configuration(path, con.topo, con.colors, con.k, name=con.name)
    topo, colors, k = load_configuration(path)
    assert isinstance(topo, ToroidalMesh)
    assert (topo.m, topo.n) == (5, 6)
    assert np.array_equal(colors, con.colors)
    assert k == con.k
    # the reloaded configuration still verifies
    assert verify_dynamo(topo, colors, k).is_monotone_dynamo


def test_configuration_json_is_plain(tmp_path):
    con = theorem2_mesh_dynamo(3, 3)
    path = tmp_path / "conf.json"
    save_configuration(path, con.topo, con.colors, con.k)
    payload = json.loads(path.read_text())
    assert payload["kind"] == "mesh"
    assert len(payload["colors"]) == 9


def test_load_rejects_inconsistent_file(tmp_path, capsys):
    from repro.cli import main

    good = {"kind": "mesh", "m": 3, "n": 3, "k": 1, "colors": [1, 0, 2] * 3}
    bad_payloads = [
        {**good, "colors": [1, 2]},  # length disagrees with the torus
        {**good, "colors": [1.9, 0, 2] * 3},  # would truncate to color 1
        {**good, "colors": [True, 0, 2] * 3},
        {**good, "colors": [-1, 0, 2] * 3},
        {**good, "colors": [2**31, 0, 2] * 3},  # does not fit int32
        {**good, "colors": "102102102"},
        {**good, "k": 1.5},
        {**good, "k": -1},
        {**good, "m": 3.7},
        {**good, "kind": 3},
        {key: v for key, v in good.items() if key != "colors"},
        [good],
    ]
    path = tmp_path / "bad.json"
    for payload in bad_payloads:
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_configuration(path)
        for command in ("simulate", "verify"):
            assert main([command, "mesh", "3", "3", "--load", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_configuration(path)
    missing = str(tmp_path / "missing.json")
    assert main(["verify", "mesh", "3", "3", "--load", missing]) == 2


def test_load_refuses_a_torus_other_than_the_one_named(tmp_path, capsys):
    from repro.cli import main

    con = theorem2_mesh_dynamo(5, 5)
    path = tmp_path / "mesh55.json"
    save_configuration(path, con.topo, con.colors, con.k)
    for command in ("simulate", "verify"):
        for torus in (["mesh", "3", "3"], ["cordalis", "5", "5"], ["mesh", "5", "6"]):
            assert main([command, *torus, "--load", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {path}: holds a mesh 5x5 configuration, not the "
                f"{torus[0]} {torus[1]}x{torus[2]} asked for\n"
            )
        assert main([command, "mesh", "5", "5", "--load", str(path)]) == 0
        capsys.readouterr()


# ----------------------------------------------------------------------
# viz
# ----------------------------------------------------------------------
def test_render_grid_shape_and_target_glyph():
    con = theorem2_mesh_dynamo(4, 5)
    text = render_grid(con.topo, con.colors, con.k, seed=con.seed)
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(len(line.split()) == 5 for line in lines)
    assert "B" in text  # target color rendered as B
    # seed vertices uppercase, the recolorable gap lowercase
    assert lines[0].split()[0] == "B"


def test_render_time_matrix_alignment():
    m = np.array([[0, 10], [3, 2]])
    out = render_time_matrix(m)
    assert out.splitlines() == [" 0 10", " 3  2"]


def test_render_run_frames():
    con = theorem2_mesh_dynamo(4, 4)
    res = run_synchronous(con.topo, con.colors, SMPRule(), record=True)
    text = render_run(con.topo, res.trajectory, con.k)
    assert text.count("round ") == len(res.trajectory)


def test_color_glyphs_unique():
    glyphs = color_glyphs([0, 1, 2, 5], k=1)
    assert glyphs[1] == "B"
    assert len(set(glyphs.values())) == 4


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------
def _run_cli(args, capsys):
    from repro.cli import main

    code = main(args)
    return code, capsys.readouterr().out


def test_cli_construct(capsys):
    code, out = _run_cli(["construct", "mesh", "5", "5"], capsys)
    assert code == 0
    assert "|S_k| = 8" in out
    assert "B" in out


def test_cli_construct_save_and_simulate(tmp_path, capsys):
    conf = tmp_path / "c.json"
    code, _ = _run_cli(["construct", "cordalis", "5", "5", "--save", str(conf)], capsys)
    assert code == 0 and conf.exists()
    code, out = _run_cli(
        ["simulate", "cordalis", "5", "5", "--load", str(conf), "--render"], capsys
    )
    assert code == 0
    assert "monochromatic(1)" in out


def test_cli_verify(capsys):
    code, out = _run_cli(["verify", "serpentinus", "5", "5"], capsys)
    assert code == 0
    assert "is_dynamo=True" in out


def test_cli_matrix_matches_figure6(capsys):
    code, out = _run_cli(["matrix", "cordalis", "5", "5"], capsys)
    assert code == 0
    assert out.splitlines()[1].split() == ["0", "1", "2", "3", "4"]


def test_cli_sweep(capsys):
    code, out = _run_cli(["sweep", "mesh", "4", "5"], capsys)
    assert code == 0
    assert "4x4" in out and "5x5" in out


def test_cli_sweep_convergence_with_processes(capsys):
    # --processes now shards --convergence instead of being rejected
    code, out = _run_cli(
        ["sweep", "mesh", "4", "--convergence", "--replicas", "16",
         "--processes", "2", "--shard-size", "8"], capsys
    )
    assert code == 0
    assert "4x4" in out and "smp" in out


def test_cli_census_with_processes(capsys):
    code, out = _run_cli(
        ["census", "--kinds", "mesh", "--sizes", "3", "--processes", "2"],
        capsys,
    )
    assert code == 0
    assert "exhaustive" in out


def test_cli_rejects_negative_processes(capsys):
    with pytest.raises(SystemExit):
        _run_cli(["sweep", "mesh", "4", "--processes", "-2"], capsys)
    capsys.readouterr()  # drain the usage message


def test_cli_simulate_nonconvergent_exit_code(tmp_path, capsys):
    # a frozen non-dynamo still converges (fixed point) -> exit 0; but a
    # capped run that never settles exits 1
    code, _ = _run_cli(
        ["simulate", "cordalis", "8", "8", "--max-rounds", "2"], capsys
    )
    assert code == 1


def test_cli_diagonal(capsys):
    code, out = _run_cli(["diagonal", "mesh", "4"], capsys)
    assert code == 0
    assert "size 4 vs paper bound 6" in out
    assert "monotone dynamo: True" in out


def test_cli_figures(capsys):
    code, out = _run_cli(["figures"], capsys)
    assert code == 0
    assert out.count("MATCH") == 6
    assert "MISMATCH" not in out


def test_cli_theorems(capsys):
    code, out = _run_cli(["theorems"], capsys)
    assert code == 0
    assert "Theorem 1" in out and "REFUTED" in out
    assert "Proposition 2" in out and "MATCH" in out
