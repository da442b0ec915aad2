import json

import pytest

from gonal.atlas import read_fixture
from gonal.cli import ReportEnvelope, jsonify, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_worked_example(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--p", "5", "--q", "2", "--r", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["payload"]["t"] == "3"
    assert data["payload"]["g_t"] == "3"
    assert data["payload"]["prym_dim"] == "1"
    assert all(c["status"] == "pass" for c in data["checks"])


def test_invariants_large_example(capsys):
    code, out, _ = run_cli(capsys, "invariants", "--p", "13", "--q", "3", "--r", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["payload"]["g_tilde"] == "2657206"
    assert data["payload"]["g_y"] == "16"


def test_invalid_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "invariants", "--p", "4", "--q", "2", "--r", "3")
    assert code == 2
    assert "prime" in err


def test_atlas_small(capsys):
    code, out, _ = run_cli(capsys, "atlas", "--p", "3", "--q", "2", "--r", "4", "--cores", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["payload"]["class_count"] == "5"
    assert data["payload"]["core_dim_histogram"] == {"2": "5"}
    rows = {c["name"]: c for c in data["checks"]}
    assert rows["cores-invariant-and-quantized"] == {
        "name": "cores-invariant-and-quantized",
        "status": "pass",
        "detail": "core-dim histogram {2: 5} equals the closed form",
    }
    assert all(row["core_dim"] == "2" for row in data["payload"]["classes"])
    assert all(
        row["galois_group"] == "Z_2^2 ⋊ Z_3" for row in data["payload"]["classes"]
    )


def test_atlas_cores_row_fails_on_a_corrupted_histogram(capsys, monkeypatch):
    monkeypatch.setattr("gonal.cli.core_histogram", lambda params: {2: 4, 0: 1})
    code, out, _ = run_cli(capsys, "atlas", "--p", "3", "--q", "2", "--r", "4", "--json")
    assert code == 1
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    row = rows["cores-invariant-and-quantized"]
    assert row["status"] == "fail"
    assert row["detail"] == "core-dim histogram {2: 5} != closed form {2: 4, 0: 1}"


def test_atlas_orbits_flag_lists_members(capsys):
    code, out, _ = run_cli(
        capsys, "atlas", "--p", "3", "--q", "2", "--r", "4", "--orbits", "--json"
    )
    assert code == 0
    data = json.loads(out)
    for row in data["payload"]["classes"]:
        assert len(row["members"]) == 3
        assert row["members"][0] == row["representative"]


def test_atlas_limit(capsys):
    code, out, _ = run_cli(
        capsys, "atlas", "--p", "5", "--q", "2", "--r", "3", "--limit", "2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["payload"]["classes"]) == 2
    assert data["payload"]["class_count"] == "3"


def test_atlas_cap_exit_3(capsys):
    code, _, err = run_cli(
        capsys, "atlas", "--p", "13", "--q", "3", "--r", "3", "--cap", "100"
    )
    assert code == 3
    assert "cap" in err
    assert str(3**12) in err


def test_atlas_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("GONAL_ATLAS_CAP", "10")
    code, _, err = run_cli(capsys, "atlas", "--p", "3", "--q", "2", "--r", "4")
    assert code == 3
    assert "GONAL_ATLAS_CAP" in err


def test_atlas_env_cap_not_an_integer_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("GONAL_ATLAS_CAP", "abc")
    code, _, err = run_cli(capsys, "atlas", "--p", "3", "--q", "2", "--r", "4")
    assert code == 2
    assert "GONAL_ATLAS_CAP" in err and "abc" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_atlas_nonpositive_cap_exit_2(capsys, cap):
    code, _, err = run_cli(capsys, "atlas", "--p", "3", "--q", "2", "--r", "4", "--cap", cap)
    assert code == 2
    assert "positive integer" in err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_verify_nonpositive_cap_exit_2(capsys, cap):
    code, out, err = run_cli(capsys, "verify", "--suite", "groupring", "--cap", cap)
    assert code == 2
    assert out == ""
    assert "positive integer" in err


def test_atlas_negative_limit_exit_2(capsys):
    code, out, err = run_cli(capsys, "atlas", "--p", "3", "--q", "2", "--r", "4", "--limit", "-1")
    assert code == 2
    assert out == ""
    assert "--limit" in err


def test_galois_fixture(tmp_path, capsys):
    path = tmp_path / "L3.gens"
    path.write_text(read_fixture("L3.gens"))
    code, out, _ = run_cli(
        capsys,
        "galois", "--p", "13", "--q", "3", "--r", "3", "--subgroup", str(path), "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["payload"]["core_size"] == "729"
    assert data["payload"]["galois_group"] == "Z_3^6 ⋊ Z_13"
    assert data["payload"]["quotient_genus"] == "3646"
    assert data["payload"]["is_composite_galois"] is False
    assert data["checks"] == [
        {"name": "closure-order-condition", "status": "pass", "detail": "q^6 = 1 mod 13"}
    ]


def test_galois_row_fails_when_core_dim_disagrees_with_the_elimination(tmp_path, capsys, monkeypatch):
    from gonal import atlas

    real = atlas.core_dim
    # Off by s0 keeps q^k = 1 mod p, so only the elimination can catch it.
    monkeypatch.setattr(atlas, "core_dim", lambda h, action: real(h, action) + action.params.s0)
    path = tmp_path / "L3.gens"
    path.write_text(read_fixture("L3.gens"))
    code, out, _ = run_cli(
        capsys,
        "galois", "--p", "13", "--q", "3", "--r", "3", "--subgroup", str(path), "--json",
    )
    assert code == 1
    (row,) = json.loads(out)["checks"]
    assert row["name"] == "closure-order-condition" and row["status"] == "fail"
    assert "core dim 6" in row["detail"] and "primary decomposition 9" in row["detail"]


def test_galois_not_a_hyperplane_exit_2(tmp_path, capsys):
    path = tmp_path / "K2.gens"
    path.write_text(read_fixture("K2.gens"))
    code, _, err = run_cli(
        capsys, "galois", "--p", "13", "--q", "3", "--r", "3", "--subgroup", str(path)
    )
    assert code == 2
    assert "maximal" in err


def test_galois_missing_file_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "galois", "--p", "13", "--q", "3", "--r", "3", "--subgroup", "/nonexistent.gens"
    )
    assert code == 2


def test_galois_directory_exit_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "galois", "--p", "13", "--q", "3", "--r", "3", "--subgroup", str(tmp_path)
    )
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: cannot read {tmp_path}: ")


def test_galois_non_utf8_file_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.gens"
    path.write_bytes("a_1 # généré\n".encode("latin-1"))
    code, out, err = run_cli(
        capsys, "galois", "--p", "13", "--q", "3", "--r", "3", "--subgroup", str(path)
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {path} is not UTF-8 text"]


def test_galois_malformed_word_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.gens"
    path.write_text("a_1\nb_9\n")
    code, _, err = run_cli(
        capsys, "galois", "--p", "13", "--q", "3", "--r", "3", "--subgroup", str(path)
    )
    assert code == 2
    assert "malformed" in err


def test_reps_command(capsys):
    code, out, _ = run_cli(capsys, "reps", "--p", "3", "--q", "2", "--r", "4", "--json")
    assert code == 0
    data = json.loads(out)
    complexes = {row["label"]: row for row in data["payload"]["complex"]}
    assert complexes["V_j"]["count"] == "5"
    assert complexes["V_j"]["degree"] == "3"
    assert any(c["name"] == "sum-of-squares" and c["status"] == "pass" for c in data["checks"])


def test_verify_suites_pass(capsys):
    for suite in ("fixtures", "identities", "groupring", "counts"):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--json")
        assert code == 0, suite
        data = json.loads(out)
        assert data["payload"]["failures"] == "0"


def test_verify_suite_all_aggregates(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--json")
    assert code == 0
    data = json.loads(out)
    names = {c["name"] for c in data["checks"]}
    # One representative check from each constituent suite.
    assert "counts-q2-n6" in names
    assert "identities-sweep" in names
    assert "groupring-5-2-3-scalar" in names
    assert "fixture-core-generators" in names


def test_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "atlas", "--p", "5", "--q", "2", "--r", "3", "--json")
    assert code == 0
    data = json.loads(out)
    envelope = ReportEnvelope(**data)
    assert envelope.to_dict() == data
    assert json.loads(envelope.to_json()) == data


def test_json_and_text_share_one_envelope(capsys):
    args = ["invariants", "--p", "5", "--q", "2", "--r", "3"]
    _, text_out, _ = run_cli(capsys, *args)
    _, json_out, _ = run_cli(capsys, *(args + ["--json"]))
    data = json.loads(json_out)
    # Every payload scalar and check name of the JSON form appears verbatim
    # in the human rendering.
    for key, value in data["payload"].items():
        if isinstance(value, str):
            assert f"{key}: {value}" in text_out
    for check in data["checks"]:
        assert f"check {check['name']}: {check['status']}" in text_out


def test_big_integers_serialized_as_strings(capsys):
    _, out, _ = run_cli(capsys, "invariants", "--p", "13", "--q", "3", "--r", "3", "--json")
    data = json.loads(out)

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert not isinstance(node, int) or isinstance(node, bool)

    walk(data["payload"])
    walk(data["params"])


def test_jsonify_rejects_unknown():
    with pytest.raises(TypeError):
        jsonify(object())


def test_verify_failure_exits_1(capsys, monkeypatch):
    from gonal.verify import CheckResult

    def fake_suite(suite, cap=None):
        return [
            CheckResult("good", True, ""),
            CheckResult("bad", False, "witness detail"),
        ]

    monkeypatch.setattr("gonal.cli.run_suite", fake_suite)
    code, out, _ = run_cli(capsys, "verify", "--suite", "counts", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["payload"]["failures"] == "1"
    assert data["payload"]["first_witness"] == "bad: witness detail"
    statuses = {c["name"]: c["status"] for c in data["checks"]}
    assert statuses == {"good": "pass", "bad": "fail"}
