import json
from itertools import takewhile

import pytest

from triple_lab.cli import main


def test_usage_errors_exit_2(capsys):
    assert main(["axioms", "--model", "wedge"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["weights", "--weight", "power:-1"]) == 2
    assert main(["compop", "--map", "mobius:1.5"]) == 2


def test_argparse_rejects_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--frobnicate"])
    assert exc.value.code == 2


def test_axioms_pass_small(capsys):
    rc = main(["axioms", "--model", "disc", "--model", "hilbert:2",
               "--trials", "40"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "jordan-identity" in out and "FAIL" not in out


def test_eq1_small(capsys):
    rc = main(["eq1", "--model", "hilbert:2", "--centers", "5",
               "--samples", "500"])
    assert rc == 0
    assert "exact" in capsys.readouterr().out


def test_csv_output_is_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["lemma-sup", "--model", "matrix:2x2", "--center-norms", "0.4",
            "--radii", "0.3,0.7", "--samples", "300", "--format", "csv"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("# triple-lab")
    assert "# command:" in text
    # every data row parses as csv floats after the status column strip
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert any("," in ln for ln in rows)


def test_csv_seed_changes_output(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["eq1", "--model", "matrix:2x2", "--centers", "2",
            "--samples", "300", "--format", "csv"]
    assert main(base + ["--seed", "1", "--out", str(f1)]) == 0
    assert main(base + ["--seed", "2", "--out", str(f2)]) == 0
    assert f1.read_bytes() != f2.read_bytes()


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 25, "model": ["disc"]}))
    rc = main(["axioms", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trials=25" in out
    # explicit flags beat the config file
    rc = main(["axioms", "--config", str(cfg), "--trials", "30"])
    assert "trials=30" in capsys.readouterr().out
    assert rc == 0


def test_config_file_errors(tmp_path):
    missing = tmp_path / "none.json"
    assert main(["axioms", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["axioms", "--config", str(bad)]) == 2


def test_weights_command_csv(tmp_path):
    out = tmp_path / "w.csv"
    rc = main(["weights", "--weight", "power:0.5", "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "# table: associated-envelope power:0.5" in text
    assert "# doubling verdict: bounded" in text


def test_compop_command_human(capsys):
    rc = main(["compop", "--map", "pow:2", "--weight-x", "power:1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "criterion verdict: continuous" in out
    assert "theorem verdict: all continuous" in out


def test_compop_command_nested_compose(capsys):
    assert main(["compop", "--map", "compose:[compose:[pow:2;mobius:0.4];identity]"]) == 0
    assert "criterion verdict:" in capsys.readouterr().out


def test_schwarz_command(capsys):
    rc = main(["schwarz", "--model", "disc", "--samples", "400"])
    assert rc == 0
    assert "schwarz: pass" in capsys.readouterr().out


def test_unreadable_map_and_config_files_exit_2(tmp_path, capsys):
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"0.5,\xff\xfe\n0,0.5\n")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0.5,0\n0\n")
    assert main(["compop", "--model", "hilbert:2", "--map", f"linear:{binary}"]) == 2
    assert "cannot read matrix" in capsys.readouterr().err
    assert main(["compop", "--model", "hilbert:2", "--map", f"linear:{ragged}"]) == 2
    assert "row lengths [2, 1]" in capsys.readouterr().err
    assert main(["compop", "--config", str(binary)]) == 2
    assert "cannot read config" in capsys.readouterr().err
    assert main(["compop", "--model", "hilbert:2", "--map", "linear:a\0b"]) == 2
    assert main(["compop", "--config", "a\0b"]) == 2


def test_weights_command_table_with_knot_on_estimate_radius(tmp_path):
    # the knot at 0.9 is a default estimate radius; a moment that trails the
    # sup there put the envelope below v and the command exited 3
    table, out = tmp_path / "w.csv", tmp_path / "out.csv"
    table.write_text("r,v\n0,1\n0.5,0.6\n0.9,0.2\n0.99,0.01\n")
    assert main(["weights", "--weight", f"table:{table}", "--format", "csv",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    start = lines.index("radius,weight,upper_mono,upper_lp,chosen") + 1
    envelope = takewhile(lambda line: not line.startswith("#"), lines[start:])
    at_knot = [row.split(",") for row in envelope if float(row.split(",")[0]) == 0.9]
    assert len(at_knot) == 1
    weight, chosen = float(at_knot[0][1]), float(at_knot[0][4])
    assert chosen >= weight * (1 - 1e-9)
