"""Command-line behavior: reports, RESULT lines, exit codes, determinism."""

import hashlib
import importlib.resources
import math
import shlex
from pathlib import Path

import pytest

from coxvol.cli import main
from coxvol.lobachevsky import lob


@pytest.fixture(scope="session")
def data_dir():
    return importlib.resources.files("coxvol.data")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def result_line(out):
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert lines[-1].startswith("RESULT ")
    return lines[-1]


def test_validate_ok(capsys, data_dir):
    code, out = run(capsys, "validate", str(data_dir / "lambert_cube.apoly"))
    assert code == 0
    assert result_line(out) == "RESULT validate ok violations=0"


def test_check_lambert(capsys, data_dir):
    code, out = run(capsys, "check", str(data_dir / "lambert_cube.apoly"))
    assert code == 0
    assert "conditions=1:pass,2:pass,3:vacuous,4:pass,5:informational" in result_line(out)
    assert "verdict: realizable-compact" in out


def test_check_tetrahedron_rejected(capsys, data_dir):
    code, out = run(capsys, "check", str(data_dir / "tetrahedron.apoly"))
    assert code == 1
    assert "reason=FaceCountTooSmall" in result_line(out)


def test_check_pyramid_regimes(capsys, data_dir):
    path = str(data_dir / "pyramid.apoly")
    code, _ = run(capsys, "check", path)
    assert code == 1
    code, out = run(capsys, "check", path, "--regime", "ideal")
    assert code == 0
    assert "realizable-with-ideal-vertices" in result_line(out)


def test_circuits_output(capsys, data_dir):
    code, out = run(capsys, "circuits", str(data_dir / "cube_all2.apoly"), "--k", "4")
    assert code == 0
    lines = out.strip().splitlines()
    circuit_lines = [ln for ln in lines if ln.startswith("circuit ")]
    assert len(circuit_lines) == 15
    assert sum("prismatic=True" in ln for ln in circuit_lines) == 3
    assert "count=15 prismatic=3" in result_line(out)
    # without --k, every circuit up to the cap: the 8 triangles and the 15 4-circuits
    code, out = run(capsys, "circuits", str(data_dir / "cube_all2.apoly"), "--cap", "4")
    assert code == 0
    assert result_line(out) == "RESULT circuits ok count=23 prismatic=3"


def test_classify_exit_codes(capsys, data_dir):
    code, out = run(capsys, "classify", str(data_dir / "cube_all2.apoly"))
    assert code == 0
    assert "RESULT classify Large" in result_line(out)
    code, out = run(capsys, "classify", str(data_dir / "triangular_prism.apoly"))
    assert code == 3
    assert "witness_kind=separating-triangle" in result_line(out)


def test_classify_reports_circuits_scanned(capsys):
    # the eight vertex links, then the second 4-circuit is the band
    code, out = run(capsys, "classify", "cube_all2")
    assert code == 0
    assert result_line(out) == ("RESULT classify Large witness_kind=incompressible-orbifold "
                                "cap=12 circuits=10")


def test_realize_report(capsys, data_dir):
    code, out = run(capsys, "realize", str(data_dir / "lambert_cube.apoly"))
    assert code == 0
    assert sum(ln.startswith("normal ") for ln in out.splitlines()) == 6
    assert sum(ln.startswith("vertex ") for ln in out.splitlines()) == 8
    assert "dof audit: unknowns=24 constraints=18 gauge=6 dof=0" in out
    assert "dof=0" in result_line(out)
    assert int(result_line(out).split("iters=")[1].split()[0]) > 0


def test_realize_all_ideal_cube(capsys, tmp_path):
    # the cube with every edge labeled 3 has no finite vertex; its frame
    # comes from the normals alone, and every vertex is reported ideal
    from coxvol.corpus import load
    from coxvol.poly_model import LabeledPolyhedron, serialize_polyhedron

    cube = load("cube_all2").base
    path = tmp_path / "cube_all3.apoly"
    path.write_text(serialize_polyhedron(
        LabeledPolyhedron(base=cube, labels=dict.fromkeys(cube.edges, 3))))
    code, out = run(capsys, "realize", str(path), "--regime", "ideal")
    assert code == 0
    vertex_lines = [ln for ln in out.splitlines() if ln.startswith("vertex ")]
    assert len(vertex_lines) == 8
    assert all(ln.split()[2] == "ideal" for ln in vertex_lines)
    assert result_line(out).startswith("RESULT realize ok")


def test_realize_rejected(capsys, data_dir):
    # the reason is the rejection report's, as on the volume's line
    code, out = run(capsys, "realize", str(data_dir / "cube_all2.apoly"))
    assert code == 1
    assert result_line(out) == "RESULT realize rejected reason=condition-4"
    code, out = run(capsys, "realize", "pyramid", "--regime", "strict")
    assert code == 1
    assert result_line(out) == "RESULT realize rejected reason=condition-2"


def test_volume_lambert_doubled(capsys, data_dir):
    code, out = run(capsys, "volume", str(data_dir / "lambert_cube.apoly"), "--doubled")
    assert code == 0
    line = result_line(out)
    assert "doubled=true" in line
    # the stacked-pass count follows the per-row iteration count
    assert " newton_iters=" in line and line.index("newton_iters=") < line.index(" passes=")
    vol = float(line.split("volume=")[1].split()[0])
    assert abs(vol - 0.648847) < 2e-3


def test_volume_rejected_labeling(capsys, data_dir):
    code, out = run(capsys, "volume", str(data_dir / "cube_all2.apoly"))
    assert code == 1
    assert result_line(out) == "RESULT volume rejected reason=condition-4"


def test_volume_checks_the_labeling_once(capsys, monkeypatch):
    from coxvol import andreev

    calls = []
    check = andreev.check

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(andreev, "check", counted)
    code, _ = run(capsys, "volume", "lambert_cube")
    assert code == 0
    assert len(calls) == 1


def test_census_over_budget_is_input_error(capsys):
    code, out = run(capsys, "census", "cube_all2", "--max-label", "6")
    assert code == 2
    assert result_line(out) == "RESULT census input-error"


@pytest.fixture
def realize_fails_on_label_4(monkeypatch):
    """The command line's ``realize`` raising NonConvergence for every
    labeling with a label 4, and realizing every other one."""
    from coxvol import cli
    from coxvol.realization import NonConvergence

    realize = cli.realize

    def fail_on_4(lp, regime=None):
        if 4 in lp.labels.values():
            raise NonConvergence("Newton step stagnated", 1e-3)
        return realize(lp, regime)

    monkeypatch.setattr(cli, "realize", fail_on_4)


def test_census_volume_failure_is_numerical(capsys, realize_fails_on_label_4):
    # 12 of the 15 ideal-regime pyramid rows at max-label 4 have a label 4
    code, out = run(capsys, "census", "pyramid", "--max-label", "4",
                    "--regime", "ideal", "--volumes")
    assert code == 4
    assert "error: Newton step stagnated" in out
    assert result_line(out) == ("RESULT census failed rows=15 max_label=4 "
                                "regime=allow-ideal volume_failures=12")


def test_census_tsv_marks_failed_volumes(capsys, realize_fails_on_label_4):
    code, out = run(capsys, "census", "pyramid", "--max-label", "4",
                    "--regime", "ideal", "--volumes", "--format", "tsv")
    assert code == 4
    rows = [ln.split("\t") for ln in out.splitlines()[1:-1]]
    assert len(rows) == 15
    for labels, *_, vol in rows:
        if "4" in labels.split(","):
            assert vol == "error:NonConvergence"
        else:
            assert float(vol) > 0


@pytest.mark.parametrize("argv,rows", [
    (("pyramid", "--max-label", "4", "--regime", "ideal"), 15),
    (("cube_all2", "--max-label", "3", "--regime", "ideal"), 111),
    (("triangular_prism", "--max-label", "5"), 93),
])
def test_census_volumes_in_the_census_regime(capsys, argv, rows):
    # every row is realized in the census's own regime and gets a volume;
    # the rows' lines are those of the census without volumes
    _, plain = run(capsys, "census", *argv)
    code, out = run(capsys, "census", *argv, "--volumes")
    assert code == 0
    assert result_line(out) == result_line(plain) + " volume_failures=0"
    lines = [ln for ln in out.splitlines() if ln.startswith("labels=")]
    assert len(lines) == rows
    assert all(float(ln.split(" volume=")[1]) > 0 for ln in lines)
    assert [ln.split(" volume")[0] for ln in lines] == \
        [ln for ln in plain.splitlines() if ln.startswith("labels=")]


def test_census_volume_failures_keep_the_other_rows(capsys, realize_fails_on_label_4):
    argv = ("census", "cube_all2", "--max-label", "4")
    _, plain = run(capsys, *argv)
    code, out = run(capsys, *argv, "--volumes")
    assert code == 4
    rows = [ln for ln in out.splitlines() if ln.startswith("labels=")]
    failed = [ln for ln in rows if ln.endswith(" volume_error=NonConvergence")]
    assert len(rows) == 436 and len(failed) == 436 - 34
    assert result_line(out) == ("RESULT census failed rows=436 max_label=4 "
                                "regime=strict-compact volume_failures=402")
    assert sum(" volume=" in ln for ln in rows) == 34
    assert [ln.split(" volume")[0] for ln in rows] == \
        [ln for ln in plain.splitlines() if ln.startswith("labels=")]


def test_volume_realization_failure_is_numerical(capsys, monkeypatch):
    from coxvol import cli
    from coxvol.realization import NonConvergence

    def fail(*args, **kwargs):
        raise NonConvergence("Newton step stagnated", 1e-3)

    monkeypatch.setattr(cli, "realize", fail)
    code, out = run(capsys, "volume", "lambert_cube")
    assert code == 4
    assert "error: Newton step stagnated" in out
    assert result_line(out) == "RESULT volume failed"


def test_realize_solver_failure_is_numerical(capsys, monkeypatch):
    # a solver message that happens to say "rejected" is still a failure
    from coxvol import realization
    from coxvol.realization import NonConvergence

    def fail(*args, **kwargs):
        raise NonConvergence("step rejected", 1.0)

    monkeypatch.setattr(realization, "solve_at", fail)
    code, out = run(capsys, "realize", "lambert_cube")
    assert code == 4
    assert "error: step rejected" in out
    assert result_line(out) == "RESULT realize failed"


def test_census_tsv(capsys, data_dir):
    code, out = run(capsys, "census", str(data_dir / "cube_all2.apoly"),
                    "--max-label", "3", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "labels\toutcome\tvertex_summary\thaken\tvolume"
    assert "rows=34" in result_line(out)


def test_census_tetrahedron_has_no_rows(capsys):
    # four faces: every labeling is rejected, by the screen as by check
    code, out = run(capsys, "census", "tetrahedron", "--max-label", "3")
    assert code == 0
    assert result_line(out) == "RESULT census ok rows=0 max_label=3 regime=strict-compact"


# sha256 of the census report, recorded while orbits were still
# canonicalized row by row and sorted afterwards
CENSUS_TEXT_SHA256 = [
    (("cube_all2", "--max-label", "4"), 436,
     "3cd9e8dfa5b6d557a580bcbed8e33338a81da92c3e0aa2fdfe189b92b4432307"),
    (("cube_all2", "--max-label", "3", "--regime", "ideal", "--format", "tsv"), 111,
     "969d6e0f67fcd97926efeae43ec2597487ac78c376dfbce8a3ae2117e498395a"),
    (("triangular_prism", "--max-label", "5"), 93,
     "26d691bdc7e9fe9895d80dced4edff3041d6588a7273ad4742646dd1fbd070ee"),
]


@pytest.mark.parametrize("argv, rows, digest", CENSUS_TEXT_SHA256)
def test_census_text_pinned(capsys, argv, rows, digest):
    code, out = run(capsys, "census", *argv)
    assert code == 0
    assert f" rows={rows} " in result_line(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pyramid_table(capsys):
    code, out = run(capsys, "pyramid-table", "--convention", "listed",
                    "--regime", "ideal")
    assert code == 0
    assert "matched=17 rows=17" in result_line(out)
    code, out = run(capsys, "pyramid-table", "--max-label", "3")
    assert code == 0
    assert "no extra admissible rows" in out
    assert " extra=0 " in result_line(out)


def test_lob_and_idealtet(capsys):
    code, out = run(capsys, "lob", "pi/6")
    assert code == 0
    assert out.splitlines()[0] == "0.507470803204827"
    # the "n*pi/d" and plain-float forms of an angle, and a signed pi
    # expression, which follows -- so that argparse does not read it as an option
    for args, theta in ((["2*pi/7"], 2 * math.pi / 7), (["0.5"], 0.5),
                        (["--", "-pi/3"], -math.pi / 3), (["--", "+pi/3"], math.pi / 3)):
        code, out = run(capsys, "lob", *args)
        assert code == 0
        assert out.splitlines()[0] == f"{lob(theta):.15g}"
        assert result_line(out) == f"RESULT lob ok theta={theta:.15g} value={lob(theta):.15g}"
    code, out = run(capsys, "lob", "--", "-pi/3")
    assert out.splitlines()[0] == "-0.338313868803218"
    code, out = run(capsys, "idealtet", "pi/3", "pi/3", "pi/3")
    assert code == 0
    assert out.splitlines()[0] == "1.01494160640965"


@pytest.mark.parametrize("argv", [("lob", "pi/0"), ("idealtet", "pi/3", "pi/3", "pi/0")])
def test_zero_angle_denominator_is_input_error(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert result_line(out) == f"RESULT {argv[0]} input-error"


def test_missing_file_is_input_error(capsys):
    code, out = run(capsys, "check", "no_such_file.apoly")
    assert code == 2


def test_byte_identical_reruns(capsys, data_dir):
    outputs = []
    for _ in range(2):
        _, out = run(capsys, "check", str(data_dir / "lambert_cube.apoly"))
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        _, out = run(capsys, "census", str(data_dir / "cube_all2.apoly"),
                     "--max-label", "3", "--format", "tsv")
        outputs.append(out)
    assert outputs[2] == outputs[3]


def test_corpus_name_fallback(capsys):
    code, out = run(capsys, "check", "lambert_cube")
    assert code == 0
    assert "realizable-compact" in result_line(out)


DIHEDRON = "polyhedron dihedron\nface 0: 0 1 2\nface 1: 0 2 1\n"


@pytest.mark.parametrize("argv", [
    ("check",), ("circuits",), ("classify",), ("realize",), ("volume",),
    ("census", "--max-label", "3")])
def test_every_subcommand_refuses_an_invalid_polyhedron(capsys, tmp_path, argv):
    path = tmp_path / "dihedron.apoly"
    path.write_text(DIHEDRON)
    code = main([argv[0], str(path), *argv[1:]])
    out, err = capsys.readouterr()
    assert code == 2
    assert result_line(out) == f"RESULT {argv[0]} input-error"
    assert "violation face-count: only 2 faces, need more than 3" in err


def test_validate_lists_every_violation(capsys, tmp_path):
    path = tmp_path / "dihedron.apoly"
    path.write_text(DIHEDRON)
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert out.count("violation ") == 5
    assert result_line(out) == "RESULT validate invalid violations=5"


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The ``coxvol ...`` lines of README's ``## Command line`` block, as
    (arguments, comment) pairs."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [ln.partition("#") for ln in block.splitlines() if ln.startswith("coxvol ")]
    return [(shlex.split(cmd)[1:], comment.strip()) for cmd, _, comment in lines]


@pytest.mark.skipif(not README.exists(), reason="no README.md in this checkout")
def test_readme_command_lines_run(capsys):
    commands = readme_commands()
    assert len(commands) == 11
    for argv, comment in commands:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        if argv == ["volume", "lambert_cube", "--doubled"]:
            vol = float(result_line(out).split("volume=")[1].split()[0])
            assert comment.startswith("~")
            assert abs(vol - float(comment[1:])) <= 5e-7
