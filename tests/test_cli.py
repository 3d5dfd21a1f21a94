"""End-to-end CLI flows: every subcommand, deterministic outputs, exit codes."""

import json
import warnings
from pathlib import Path

import pytest

from latnorm.catalog import chain
from latnorm.cli import _alpha_selection, main
from latnorm.errors import AmbiguousAlpha
from latnorm.lattice import lattice_from_covers, load_lattice

from conftest import golden


@pytest.fixture()
def fig_file(tmp_path, fig_lattice):
    path = tmp_path / "fig.json"
    path.write_text(fig_lattice.to_json(), encoding="utf-8")
    return path


@pytest.fixture()
def ext_file(tmp_path, fig_file):
    assert main(["extend", str(fig_file), "--out", str(tmp_path)]) == 0
    return tmp_path / "fig_ext.json"


def test_info_text(fig_file, capsys):
    assert main(["info", str(fig_file)]) == 0
    out = capsys.readouterr().out
    assert "atoms: b" in out
    assert "atomistic: false" in out
    assert "non-atom join-irreducibles: d, c" in out


def test_info_json(fig_file, capsys):
    assert main(["info", str(fig_file), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["atoms"] == ["b"]
    assert obj["join_irreducibles"] == ["b", "d", "c"]
    assert obj["non_atom_join_irreducibles"] == ["d", "c"]
    assert obj["length"] == 3
    assert obj["atomistic"] is False


def test_info_two_chain_note(tmp_path, two_chain, capsys):
    path = tmp_path / "two.json"
    path.write_text(two_chain.to_json(), encoding="utf-8")
    assert main(["info", str(path)]) == 0
    assert "unique" in capsys.readouterr().out


def test_info_cube_boolean(tmp_path, p3, capsys):
    path = tmp_path / "cube.json"
    path.write_text(p3.to_json(), encoding="utf-8")
    assert main(["info", str(path), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["boolean_atomistic"] is True and obj["atomistic"] is True


def test_extend_outputs(tmp_path, fig_file, capsys):
    assert main(["extend", str(fig_file), "--out", str(tmp_path)]) == 0
    ext_obj = json.loads((tmp_path / "fig_ext.json").read_text())
    assert ext_obj["elements"] == ["0", "b", "d", "c", "1", "w_d", "w_c"]
    side = json.loads((tmp_path / "fig_ext_map.json").read_text())
    assert side == {"w_d": "d", "w_c": "c"}


def test_extend_deterministic(tmp_path, fig_file):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    main(["extend", str(fig_file), "--out", str(out1)])
    main(["extend", str(fig_file), "--out", str(out2)])
    assert (out1 / "fig_ext.json").read_bytes() == (out2 / "fig_ext.json").read_bytes()
    assert (out1 / "fig_ext_map.json").read_bytes() == (out2 / "fig_ext_map.json").read_bytes()


def test_generate_golden_tables(tmp_path, ext_file):
    out = tmp_path / "gen"
    assert main(["generate", str(ext_file), "--alpha", "b,w_d", "--out", str(out)]) == 0
    assert (out / "c_alpha_b_w_d.csv").read_text() == golden("table1_skeleton.csv")
    assert (out / "alpha_b_w_d.csv").read_text() == golden("table2_lifted.csv")


def test_generate_all_family(tmp_path, ext_file):
    out = tmp_path / "family"
    assert main(["generate", str(ext_file), "--all", "--out", str(out)]) == 0
    index = json.loads((out / "index.json").read_text())
    assert len(index["alphas"]) == 8
    files = {entry["file"] for entry in index["alphas"]}
    assert "alpha_empty.csv" in files
    assert "alpha_b_w_d_w_c.csv" in files
    for entry in index["alphas"]:
        assert (out / entry["file"]).exists()


@pytest.mark.parametrize("command, prefix", [("generate", "alpha_"), ("restrict", "restricted_alpha_")])
def test_all_export_rejects_file_name_collision(tmp_path, capsys, command, prefix):
    """Atoms a, b and a_b: the selections {a, b} and {a_b} share one label."""
    names = ["0", "a", "b", "a_b", "1"]
    lat = lattice_from_covers(names, [("0", x) for x in names[1:4]] + [(x, "1") for x in names[1:4]])
    path = tmp_path / "m3.json"
    path.write_text(lat.to_json(), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(path), "--all", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {{a, b}} and {{a_b}} would both be written to '{prefix}a_b.csv'\n"
    assert not out.exists()


@pytest.mark.parametrize("atom", ["x/y", "../../escaped"])
@pytest.mark.parametrize("command", ["generate", "restrict"])
@pytest.mark.parametrize("mode", ["--all", "--alpha"])
def test_export_rejects_file_name_with_path_separator(tmp_path, capsys, atom, command, mode):
    """A selection's file name must be one path component: nothing lands below or beside --out."""
    lat = lattice_from_covers(["0", atom, "b", "1"], [("0", atom), ("0", "b"), (atom, "1"), ("b", "1")])
    path = tmp_path / "lat.json"
    path.write_text(lat.to_json(), encoding="utf-8")
    out = tmp_path / "out" / "sub"
    selection = ["--all"] if mode == "--all" else ["--alpha", atom]
    assert main([command, str(path), *selection, "--out", str(out)]) == 1
    prefix = "alpha_" if command == "generate" else "restricted_alpha_"
    assert capsys.readouterr().err == (
        f"error: {{{atom}}} would be written to '{prefix}{atom}.csv', which is not a plain file name\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["lat.json"]


@pytest.mark.parametrize("command", ["generate", "restrict"])
@pytest.mark.parametrize("alpha", ["a,b", "a", ""])
def test_alpha_refuses_atom_name_with_comma(tmp_path, capsys, command, alpha):
    """Atoms a, b and a,b: "--alpha a,b" could mean {a, b} or {a,b}, so any
    --alpha is refused before a file is written; --all still works."""
    names = ["0", "a", "b", "a,b", "1"]
    lat = lattice_from_covers(names, [("0", x) for x in names[1:4]] + [(x, "1") for x in names[1:4]])
    path = tmp_path / "m3.json"
    path.write_text(lat.to_json(), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, str(path), "--alpha", alpha, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: atom 'a,b' contains ',', so --alpha cannot name it; use --all\n"
    assert not out.exists()
    with pytest.raises(AmbiguousAlpha):
        _alpha_selection(lat, alpha)
    assert main([command, str(path), "--all", "--out", str(out)]) == 0


def test_generate_requires_atomistic(fig_file, tmp_path, capsys):
    assert main(["generate", str(fig_file), "--alpha", "b", "--out", str(tmp_path)]) == 1
    assert "--extend" in capsys.readouterr().err


def test_generate_with_extend_flag(tmp_path, fig_file):
    out = tmp_path / "gen2"
    assert main(["generate", str(fig_file), "--alpha", "b,w_d", "--extend", "--out", str(out)]) == 0
    assert (out / "alpha_b_w_d.csv").read_text() == golden("table2_lifted.csv")
    assert (out / "fig_ext.json").exists()


def test_generate_empty_alpha(tmp_path, ext_file):
    out = tmp_path / "empty"
    assert main(["generate", str(ext_file), "--alpha", "", "--out", str(out)]) == 0
    text = (out / "alpha_empty.csv").read_text()
    # drastic: every row except top's collapses to bottom off the top column
    assert "d,0,0,0,0,d,0,0" in text


def test_restrict_golden(tmp_path, fig_file, capsys):
    out = tmp_path / "res"
    assert main(["restrict", str(fig_file), "--alpha", "b,w_d", "--out", str(out)]) == 0
    assert (out / "restricted_alpha_b_w_d.csv").read_text() == golden("table3_restricted.csv")
    assert "condition_c: pass" in capsys.readouterr().out


def test_restrict_violation(tmp_path, fig_file, capsys):
    assert main(["restrict", str(fig_file), "--alpha", "w_c", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "c" in out


def test_restrict_violation_json(tmp_path, fig_file, capsys):
    rc = main(["restrict", str(fig_file), "--alpha", "w_c", "--out", str(tmp_path), "--format", "json"])
    assert rc == 1
    obj = json.loads(capsys.readouterr().out)
    assert obj["condition_c"] == "fail"
    assert obj["witness"]["join_irreducible"] == "c"
    assert obj["witness"]["pair"] == ["c", "c"]


def test_restrict_all(tmp_path, fig_file, capsys):
    out = tmp_path / "fam"
    assert main(["restrict", str(fig_file), "--all", "--out", str(out)]) == 0
    index = json.loads((out / "index.json").read_text())
    verdicts = {e["label"]: e["condition_c"] for e in index["alphas"]}
    assert sum(1 for v in verdicts.values() if v == "pass") == 5
    assert verdicts["w_d"] == "fail" and verdicts["w_c"] == "fail" and verdicts["w_d_w_c"] == "fail"
    assert (out / "restricted_alpha_b_w_d.csv").read_text() == golden("table3_restricted.csv")
    for e in index["alphas"]:
        assert (e["file"] is None) == (e["condition_c"] == "fail")


def test_restrict_csv_stdout(tmp_path, fig_file, capsys):
    rc = main(["restrict", str(fig_file), "--alpha", "b,w_d", "--out", str(tmp_path), "--format", "csv"])
    assert rc == 0
    assert capsys.readouterr().out == golden("table3_restricted.csv")


W_C_SKELETON = (
    ",0,b,1,w_d,w_c\n"
    "0,0,0,0,0,0\n"
    "b,0,0,b,0,0\n"
    "1,0,b,1,w_d,w_c\n"
    "w_d,0,0,w_d,0,0\n"
    "w_c,0,0,w_c,0,w_c\n"
)
W_C_LIFTED = (
    ",0,b,d,c,1,w_d,w_c\n"
    "0,0,0,0,0,0,0,0\n"
    "b,0,0,0,0,b,0,0\n"
    "d,0,0,0,0,d,0,0\n"
    "c,0,0,0,w_c,c,0,w_c\n"
    "1,0,b,d,c,1,w_d,w_c\n"
    "w_d,0,0,0,0,w_d,0,0\n"
    "w_c,0,0,0,w_c,w_c,0,w_c\n"
)
W_C_FAIL = "condition_c: fail at c (lift lands outside the lattice at ('c', 'c'))\n"
FAMILY_LABELS = ["empty", "b", "w_d", "b_w_d", "w_c", "b_w_c", "w_d_w_c", "b_w_d_w_c"]
GATED_LABELS = ["empty", "b", "b_w_d", "b_w_c", "b_w_d_w_c"]


def _pinned_stdout(case: str, ext_file: Path, out: Path):
    """argv, exit code and the whole stdout per format for one pinned run."""
    lattice = str(DATA / "stemmed_diamond.json")
    ext = [str(out / "stemmed_diamond_ext.json"), str(out / "stemmed_diamond_ext_map.json")]

    def wrote(paths):
        return "".join(f"wrote {p}\n" for p in paths)

    def as_json(obj):
        return json.dumps(obj, indent=2) + "\n"

    if case == "generate-all":
        files = [str(out / f"alpha_{label}.csv") for label in FAMILY_LABELS] + [str(out / "index.json")]
        text = f"wrote 8 lifted tables to {out}\n"
        return ["generate", str(ext_file), "--all"], 0, {
            "text": text, "json": as_json({"count": 8, "files": files}), "csv": text}
    if case == "generate-alpha":
        files = [str(out / "c_alpha_b_w_d.csv"), str(out / "alpha_b_w_d.csv")]
        return ["generate", str(ext_file), "--alpha", "b,w_d"], 0, {
            "text": wrote(files),
            "json": as_json({"alpha": ["b", "w_d"], "files": files}),
            "csv": golden("table1_skeleton.csv") + golden("table2_lifted.csv"),
        }
    if case == "generate-extend-alpha":
        files = ext + [str(out / "c_alpha_w_c.csv"), str(out / "alpha_w_c.csv")]
        return ["generate", lattice, "--extend", "--alpha", "w_c"], 0, {
            "text": wrote(files),
            "json": as_json({"alpha": ["w_c"], "files": files}),
            "csv": W_C_SKELETON + W_C_LIFTED,
        }
    if case == "restrict-all":
        files = ext + [str(out / f"restricted_alpha_{label}.csv") for label in GATED_LABELS]
        text = f"5 of 8 selections pass the restriction gate; wrote {out}\n"
        return ["restrict", lattice, "--all"], 0, {
            "text": text,
            "json": as_json({"total": 8, "passing": 5, "files": files + [str(out / "index.json")]}),
            "csv": text,
        }
    if case == "restrict-alpha":
        files = ext + [str(out / "restricted_alpha_b_w_d.csv")]
        return ["restrict", lattice, "--alpha", "b,w_d"], 0, {
            "text": "condition_c: pass\n" + wrote(files),
            "json": as_json({"alpha": ["b", "w_d"], "condition_c": "pass", "files": files}),
            "csv": golden("table3_restricted.csv"),
        }
    assert case == "restrict-fail"
    return ["restrict", lattice, "--alpha", "w_c"], 1, {
        "text": W_C_FAIL,
        "json": as_json({"alpha": ["w_c"], "condition_c": "fail",
                         "witness": {"join_irreducible": "c", "pair": ["c", "c"]}}),
        "csv": W_C_FAIL,
    }


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize(
    "case",
    ["generate-all", "generate-alpha", "generate-extend-alpha", "restrict-all", "restrict-alpha", "restrict-fail"],
)
def test_generate_and_restrict_pinned_stdout(tmp_path, capsys, case, fmt):
    """The whole stdout of generate and restrict on the stemmed diamond and its
    extension; ``--format csv`` prints text where the command has no table."""
    assert main(["extend", str(DATA / "stemmed_diamond.json"), "--out", str(tmp_path / "ext")]) == 0
    ext_file = tmp_path / "ext" / "stemmed_diamond_ext.json"
    out = tmp_path / "out"
    capsys.readouterr()
    argv, rc, stdout = _pinned_stdout(case, ext_file, out)
    assert main([*argv, "--out", str(out), "--format", fmt]) == rc
    assert capsys.readouterr() == (stdout[fmt], "")
    # a failed gate writes nothing, not even the extension
    assert out.exists() == (rc == 0)


CHAIN4_W_2_FAIL = {
    "text": "condition_c: fail at 2 (lift lands outside the lattice at ('2', '2'))\n",
    "json": json.dumps(
        {"alpha": ["w_2"], "condition_c": "fail", "witness": {"join_irreducible": "2", "pair": ["2", "2"]}}, indent=2
    ) + "\n",
}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_restrict_gate_failure_leaves_out_empty(tmp_path, capsys, fmt):
    """``restrict --alpha`` with a selection that fails the gate exits 1,
    prints the witness and writes no file, the extension included."""
    out = tmp_path / "out"
    out.mkdir()
    assert main(["restrict", str(DATA / "chain4.json"), "--alpha", "w_2", "--out", str(out), "--format", fmt]) == 1
    assert capsys.readouterr() == (CHAIN4_W_2_FAIL["json" if fmt == "json" else "text"], "")
    assert list(out.iterdir()) == []


def test_restrict_full_selection_is_meet(tmp_path, fig_file, fig_lattice):
    from latnorm.tnorm import t_min, table_to_csv

    out = tmp_path / "full"
    assert main(["restrict", str(fig_file), "--alpha", "b,w_d,w_c", "--out", str(out)]) == 0
    text = (out / "restricted_alpha_b_w_d_w_c.csv").read_text()
    assert text == table_to_csv(t_min(fig_lattice))


def test_census_json(tmp_path, capsys, lat_m3):
    path = tmp_path / "m3.json"
    path.write_text(lat_m3.to_json(), encoding="utf-8")
    assert main(["census", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["total"] == 8
    assert obj["classes"]["left_continuous"] == 0
    assert obj["classes"]["generated"] == 8
    assert obj["lattice_hash"] == lat_m3.fingerprint()


def test_census_to_file(tmp_path, capsys, two_chain):
    path = tmp_path / "two.json"
    path.write_text(two_chain.to_json(), encoding="utf-8")
    dest = tmp_path / "census.json"
    assert main(["census", str(path), "--out", str(dest)]) == 0
    obj = json.loads(dest.read_text())
    assert obj["total"] == 1


def test_census_oracle_cap(tmp_path, capsys):
    from latnorm.catalog import diamond

    path = tmp_path / "big.json"
    path.write_text(diamond(7).to_json(), encoding="utf-8")
    assert main(["census", str(path)]) == 1
    assert "cap" in capsys.readouterr().err
    assert main(["census", str(path), "--oracle-cap", "9"]) == 0


def test_census_text_prints_null_where_json_does(capsys):
    """N5 is not atomistic, so its ``generated`` count is null in both formats."""
    path = DATA / "n5.json"
    assert main(["census", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["classes"]["generated"] is None
    assert main(["census", str(path), "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "total t-norms: 12\n"
        "  left_semicontinuous: 12\n"
        "  left_continuous: 0\n"
        "  right_continuous: 12\n"
        "  continuous: 0\n"
        "  generated: null\n"
    )


def test_census_ignores_a_report_in_the_former_cache_dir(tmp_path, monkeypatch, capsys):
    """``census`` once printed the report filed under the lattice's
    fingerprint in LATNORM_CACHE_DIR; a well-formed one with a wrong total
    is neither read nor rewritten now."""
    path = DATA / "m3.json"
    assert main(["census", str(path)]) == 0
    expected = capsys.readouterr().out
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / f"census_{load_lattice(path).fingerprint()}.json"
    stale.write_text(json.dumps({**json.loads(expected), "total": 12345}), encoding="utf-8")
    before = stale.read_bytes()
    monkeypatch.setenv("LATNORM_CACHE_DIR", str(cache))
    assert main(["census", str(path)]) == 0
    assert capsys.readouterr().out == expected
    assert [p.name for p in cache.iterdir()] == [stale.name]
    assert stale.read_bytes() == before


def test_check_passes(fig_file, capsys):
    assert main(["check", str(fig_file)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_check_json(fig_file, capsys):
    assert main(["check", str(fig_file), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True
    assert len(obj["checks"]) == 5


DATA = Path(__file__).resolve().parent.parent / "data"

CAP2_CHECKS = {
    "stemmed_diamond": [
        ("lift-restriction round-trip (on the atomistic extension)", False, "3 atoms exceeds the enumeration cap 2"),
        ("left-semicontinuity criterion vs table scan (on the atomistic extension)", False, "3 atoms exceeds the enumeration cap 2"),
        ("family vs atom-powerset isomorphism (on the atomistic extension)", False, "3 atoms exceeds the enumeration cap 2"),
        ("extension restriction gate (both directions)", False, "3 atoms exceeds the enumeration cap 2"),
        ("restriction family joins", False, "3 atoms exceeds the enumeration cap 2"),
    ],
    "m3": [
        ("lift-restriction round-trip", False, "3 atoms exceeds the enumeration cap 2"),
        ("left-semicontinuity criterion vs table scan", False, "3 atoms exceeds the enumeration cap 2"),
        ("family vs atom-powerset isomorphism", False, "3 atoms exceeds the enumeration cap 2"),
        ("extension restriction gate (both directions)", False, "3 atoms exceeds the enumeration cap 2"),
        ("restriction family joins", False, "3 atoms exceeds the enumeration cap 2"),
    ],
}

CAP2_TEXT = {
    "stemmed_diamond": (
        "FAIL  lift-restriction round-trip (on the atomistic extension)  (3 atoms exceeds the enumeration cap 2)\n"
        "FAIL  left-semicontinuity criterion vs table scan (on the atomistic extension)  (3 atoms exceeds the enumeration cap 2)\n"
        "FAIL  family vs atom-powerset isomorphism (on the atomistic extension)  (3 atoms exceeds the enumeration cap 2)\n"
        "FAIL  extension restriction gate (both directions)  (3 atoms exceeds the enumeration cap 2)\n"
        "FAIL  restriction family joins  (3 atoms exceeds the enumeration cap 2)\n"
    ),
    "m3": (
        "FAIL  lift-restriction round-trip  (3 atoms exceeds the enumeration cap 2)\n"
        "FAIL  left-semicontinuity criterion vs table scan  (3 atoms exceeds the enumeration cap 2)\n"
        "FAIL  family vs atom-powerset isomorphism  (3 atoms exceeds the enumeration cap 2)\n"
        "FAIL  extension restriction gate (both directions)  (3 atoms exceeds the enumeration cap 2)\n"
        "FAIL  restriction family joins  (3 atoms exceeds the enumeration cap 2)\n"
    ),
}


@pytest.mark.parametrize("stem", ["stemmed_diamond", "m3"])
def test_check_reports_exceeded_atom_cap(stem, capsys):
    """Every check, the isomorphism check included, reads the one family;
    over ``--atom-cap`` each fails under its display name."""
    path = str(DATA / f"{stem}.json")
    assert main(["check", path, "--atom-cap", "2"]) == 1
    assert capsys.readouterr().out == CAP2_TEXT[stem]
    assert main(["check", path, "--atom-cap", "2", "--format", "json"]) == 1
    checks = [{"name": n, "passed": ok, "detail": d} for n, ok, d in CAP2_CHECKS[stem]]
    assert capsys.readouterr().out == json.dumps({"checks": checks, "passed": False}, indent=2) + "\n"


def test_check_passes_on_chain8(tmp_path, capsys):
    """The extensions of chain(8) and chain(9) have 7 and 8 atoms; the
    isomorphism check runs on whatever family ``--atom-cap`` admits."""
    for n in (8, 9):
        path = tmp_path / f"chain{n}.json"
        path.write_text(chain(n).to_json(), encoding="utf-8")
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().out == (
            "PASS  lift-restriction round-trip (on the atomistic extension)\n"
            "PASS  left-semicontinuity criterion vs table scan (on the atomistic extension)\n"
            "PASS  family vs atom-powerset isomorphism (on the atomistic extension)\n"
            "PASS  extension restriction gate (both directions)\n"
            "PASS  restriction family joins\n"
        )


CHECKS_ALL_PASS_DEGENERATE = (
    "PASS  lift-restriction round-trip\n"
    "PASS  left-semicontinuity criterion vs table scan\n"
    "PASS  family vs atom-powerset isomorphism  (degenerate length; unique t-norm)\n"
    "PASS  extension restriction gate (both directions)\n"
    "PASS  restriction family joins\n"
)


@pytest.mark.parametrize(
    "command, n",
    [
        pytest.param(command, n, id=command if n == 2 else f"{command}-chain1")
        for n in (2, 1)
        for command in ("check", "check-cap0", "generate", "restrict", "census")
    ],
)
def test_degenerate_length_warning_is_one_plain_stderr_line(tmp_path, capsys, command, n):
    """Lattices of length at most 1 have the single empty selection, whatever the cap.

    The warning carries no source path or line, so stderr is the same in every checkout.
    """
    path = tmp_path / "chain.json"
    path.write_text(chain(n).to_json(), encoding="utf-8")
    out = tmp_path / "out"
    argv, stdout, exported = {
        "check": (["check", str(path)], CHECKS_ALL_PASS_DEGENERATE, None),
        "check-cap0": (["check", str(path), "--atom-cap", "0"], CHECKS_ALL_PASS_DEGENERATE, None),
        "generate": (
            ["generate", str(path), "--all", "--out", str(out)],
            f"wrote 1 lifted tables to {out}\n",
            ["alpha_empty.csv"],
        ),
        "restrict": (
            ["restrict", str(path), "--all", "--out", str(out)],
            f"1 of 1 selections pass the restriction gate; wrote {out}\n",
            ["restricted_alpha_empty.csv"],
        ),
        "census": (
            ["census", str(path), "--format", "text"],
            "total t-norms: 1\n"
            "  left_semicontinuous: 1\n"
            "  left_continuous: 1\n"
            "  right_continuous: 1\n"
            "  continuous: 1\n"
            "  generated: 1\n",
            None,
        ),
    }[command]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == stdout
    assert captured.err == (
        f"warning: lattice has length {n - 1}; the skeleton equals the lattice and "
        "the generated family collapses to the unique t-norm\n"
    )
    if exported is not None:
        assert sorted(p.name for p in out.glob("*alpha_*.csv")) == exported


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_warning_lines_do_not_depend_on_the_warning_filters(tmp_path, capsys, action):
    """Under ``python -W error`` or ``-W ignore`` the warning still prints as
    one stderr line, and the checks still pass."""
    path = tmp_path / "chain.json"
    path.write_text(chain(2).to_json(), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert main(["check", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == CHECKS_ALL_PASS_DEGENERATE
    assert captured.err == (
        "warning: lattice has length 1; the skeleton equals the lattice and "
        "the generated family collapses to the unique t-norm\n"
    )


def test_export_dot(fig_file, capsys, tmp_path, fig_lattice):
    assert main(["export-dot", str(fig_file)]) == 0
    assert capsys.readouterr().out == fig_lattice.to_dot()
    dest = tmp_path / "fig.dot"
    assert main(["export-dot", str(fig_file), "--out", str(dest)]) == 0
    assert dest.read_text() == fig_lattice.to_dot()


def test_missing_file(capsys):
    assert main(["info", "/nonexistent/lattice.json"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "{dir}"],
        ["generate", "{data}/m3.json", "--all", "--out", "{file}"],
        ["export-dot", "{data}/m3.json", "--out", "{file}/x.dot"],
    ],
    ids=["read a directory", "write into a file", "write below a file"],
)
def test_os_errors_are_one_error_line(tmp_path, capsys, argv):
    """An input or output path the system refuses exits 1 with one plain
    error line, not a traceback."""
    (tmp_path / "file").write_text("")
    data = Path(__file__).resolve().parent.parent / "data"
    paths = {"dir": tmp_path, "data": data, "file": tmp_path / "file"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["info", str(path)]) == 1


ELEMENTS_NOT_STR = 'error: invalid input: lattice JSON "elements" must be a list of strings\n'
COVERS_NOT_PAIRS = 'error: invalid input: lattice JSON "covers" must be a list of pairs of strings\n'


@pytest.mark.parametrize(
    "obj, err",
    [
        ({"elements": [0, 1, 2], "covers": [[0, 1], [1, 2]]}, ELEMENTS_NOT_STR),
        ({"elements": "abc", "covers": []}, ELEMENTS_NOT_STR),
        ({"elements": ["0", "1"], "covers": [["0", "1", "1"]]}, COVERS_NOT_PAIRS),
        ({"elements": ["0", "1"], "covers": [["0", 1]]}, COVERS_NOT_PAIRS),
        ({"elements": ["0", "1"], "covers": "01"}, COVERS_NOT_PAIRS),
    ],
)
@pytest.mark.parametrize("command", ["info", "check", "export-dot"])
def test_malformed_labels(tmp_path, capsys, obj, err, command):
    """Malformed labels exit 1 with one named error line, not a traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr() == ("", err)


def test_invalid_lattice(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["0", "a", "b", "1"], "covers": [["0", "a"], ["0", "b"], ["a", "1"]]}))
    assert main(["info", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_generate_byte_identical_runs(tmp_path, ext_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        main(["generate", str(ext_file), "--alpha", "b,w_c", "--out", str(out)])
    assert (out1 / "alpha_b_w_c.csv").read_bytes() == (out2 / "alpha_b_w_c.csv").read_bytes()
