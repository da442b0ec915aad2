import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gonal
from gonal.action import CoverParams, build_action
from gonal.atlas import conjugate_hyperplane, orbit_classes, read_fixture
from gonal.cli import ReportEnvelope, _write_json, build_parser, cmd_atlas, jsonify, main
from gonal.errors import InvalidParamsError


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
    assert list(rows) == ["orbit-count-equals-t", "cores-invariant-and-quantized"]
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


def test_atlas_count_row_fails_on_a_lost_class(capsys, monkeypatch):
    real = gonal.cli.orbit_classes
    monkeypatch.setattr("gonal.cli.orbit_classes", lambda *args, **kw: real(*args, **kw)[:-1])
    code, out, _ = run_cli(capsys, "atlas", "--p", "3", "--q", "2", "--r", "4", "--json")
    assert code == 1
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    assert rows["orbit-count-equals-t"] == {
        "name": "orbit-count-equals-t", "status": "fail", "detail": "4 classes, not t = 5"
    }


def test_atlas_exits_1_on_a_class_that_is_not_an_orbit(capsys, monkeypatch):
    # orbit_classes runs OrbitClass.verify on every class, which raises on an
    # orbit of the wrong size, so no row of its own is needed for it.  The
    # first orbit repeats its representative in place of its last member; the
    # members it keeps span the same core, so only verify can tell.
    real = gonal.atlas._orbit_codes

    def short_orbit(params, action):
        codes = real(params, action)
        codes[0, -1] = codes[0, 0]
        return codes

    monkeypatch.setattr("gonal.atlas._orbit_codes", short_orbit)
    code, out, err = run_cli(capsys, "atlas", "--p", "3", "--q", "2", "--r", "4", "--json")
    assert (code, out) == (1, "")
    assert err == "identity check failed: orbit with codes [1, 2, 1] has size != 3\n"



@pytest.mark.parametrize("limit", [[], ["--limit", "0"], ["--limit", "5"]])
def test_atlas_exits_1_on_the_first_broken_class_past_the_first(capsys, monkeypatch, limit):
    # orbit_classes verifies every class in order before it returns any, so a
    # broken class in the middle is named, whether or not its row would be
    # shown, and a later broken class is not reached.
    real = gonal.atlas._orbit_codes
    witnesses = []

    def broken(params, action):
        codes = real(params, action)
        for i in (len(codes) // 2, len(codes) - 1):
            codes[i, -1] = codes[i, 0]
            witnesses.append(f"orbit with codes {codes[i].tolist()} has size != 7")
        return codes

    monkeypatch.setattr("gonal.atlas._orbit_codes", broken)
    code, out, err = run_cli(capsys, "atlas", "--p", "7", "--q", "2", "--r", "4", "--json", *limit)
    assert (code, out) == (1, "")
    assert err == f"identity check failed: {witnesses[0]}\n"


@pytest.mark.parametrize("limit", ["0", "5"])
def test_atlas_limit_shows_fewer_rows_but_checks_every_class(capsys, limit):
    argv = ["atlas", "--p", "7", "--q", "2", "--r", "4", "--json"]
    _, out, _ = run_cli(capsys, *argv)
    full = json.loads(out)
    code, out, _ = run_cli(capsys, *argv, "--limit", limit)
    limited = json.loads(out)
    assert code == 0
    assert limited["checks"] == full["checks"]
    assert limited["payload"]["core_dim_histogram"] == full["payload"]["core_dim_histogram"] == {
        "9": "18", "6": "567"
    }
    assert limited["payload"]["classes_shown"] == limit
    assert limited["payload"]["classes"] == full["payload"]["classes"][: int(limit)]


def test_atlas_rows_share_one_galois_group_string_per_core_dim():
    args = build_parser().parse_args(["atlas", "--p", "7", "--q", "2", "--r", "4"])
    _, payload = cmd_atlas(args, CoverParams(7, 2, 4))
    strings = {}
    for row in payload["classes"]:
        strings.setdefault(row["core_dim"], set()).add(id(row["galois_group"]))
    assert {dim: len(ids) for dim, ids in strings.items()} == {9: 1, 6: 1}


def test_jsonify_shares_the_decimals_of_small_ints():
    # Past the int-to-str limit jsonify still refuses: see
    # test_jsonify_names_the_exact_digit_count.
    out = jsonify([12, 12, 255, 256, -1, 0, True, False, {7: 7}])
    assert out == ["12", "12", "255", "256", "-1", "0", True, False, {"7": "7"}]
    assert out[0] is out[1] is jsonify(12)
    assert out[2] is jsonify(255)
    assert out[6] is True and out[7] is False

def test_atlas_json_peak_memory_at_7_2_4():
    # Each class keeps its p normal codes, not p Hyperplanes, and the envelope
    # is streamed to stdout rather than joined into one string first: the
    # traced peak of a second run was 2.22 MB with both and is 1.75 MB without.
    # The first run fills the caches (action, factorization, imports), so the
    # traced run measures the same work wherever the test runs in the suite.
    argv = ["atlas", "--p", "7", "--q", "2", "--r", "4", "--json"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2.0e6
    # The members decoded from the codes are the representative's conjugation chain.
    params = CoverParams(7, 2, 4)
    action = build_action(params)
    for cls in orbit_classes(params):
        chain = [cls.representative]
        for _ in range(params.p - 1):
            chain.append(conjugate_hyperplane(chain[-1], action))
        assert cls.members == tuple(chain)


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
    assert err.splitlines()[-1] == f"hint: re-run with --cap {3**12}"


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


def test_verify_group_cap_refusal_exits_3_and_names_only_the_flag(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "groupring", "--cap", "50")
    assert code == 3
    assert out == ""
    assert "group of order 80 exceeds the regular-representation cap" in err
    assert err.splitlines()[-1] == "hint: re-run with --cap 80"


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
    assert "exceeds_complement_range" not in data["payload"]
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


def test_galois_exponent_past_int64_is_read_mod_q(tmp_path, capsys):
    # The extra word is a_1^(10^20) = a_1 mod 3, already in L3; it used to raise OverflowError.
    path = tmp_path / "big.gens"
    path.write_text(read_fixture("L3.gens") + "a_1^100000000000000000000\n")
    code, out, _ = run_cli(
        capsys, "galois", "--p", "13", "--q", "3", "--r", "3", "--subgroup", str(path), "--json"
    )
    assert code == 0
    assert json.loads(out)["payload"]["galois_group"] == "Z_3^6 ⋊ Z_13"


def test_galois_too_few_words_for_a_hyperplane_exit_2_before_parsing(tmp_path, capsys):
    # n = 2 * 10^12 - 4: each parsed word would take a length-n row (14.6 TiB for five).
    path = tmp_path / "short.gens"
    path.write_text("a_1\na_2\na_3\na_4\na_5\n")
    code, out, err = run_cli(
        capsys, "galois", "--p", "3", "--q", "5", "--r", "1000000000000", "--subgroup", str(path)
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: {path} has 5 words and spans dimension at most 5, "
        "not a maximal subgroup of Z_5^1999999999996"
    ]


def test_galois_index_past_the_int_to_str_limit_exit_2(tmp_path, capsys):
    path = tmp_path / "long.gens"
    path.write_text(read_fixture("L3.gens") + "a_" + "1" * 5000 + "\n")
    code, out, err = run_cli(
        capsys, "galois", "--p", "13", "--q", "3", "--r", "3", "--subgroup", str(path)
    )
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: generator index of 5000 digits out of range 1..13"]


def test_galois_modulus_past_int64_products_exit_2(tmp_path, capsys):
    # q = 4294967311 is prime, and (q - 1)^2 > 2^63: the action's order check failed (exit 1).
    path = tmp_path / "five.gens"
    path.write_text("a_1\na_2\na_3\na_4\na_5\n")
    code, out, err = run_cli(
        capsys, "galois", "--p", "7", "--q", "4294967311", "--r", "3", "--subgroup", str(path)
    )
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert "4294967311" in line and "2^63" in line


needs_int_str_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit here"
)


def mpmath_power_digits(base, exp, factor=1):
    """Digits of factor * base**exp from mpmath's logarithms, an oracle that builds no power."""
    import mpmath

    with mpmath.workdps(len(str(exp)) + 30):
        return int(mpmath.floor(mpmath.log10(factor) + exp * mpmath.log10(base))) + 1


@pytest.fixture
def int_str_limit_4300():
    """The interpreter default, whatever PYTHONINTMAXSTRDIGITS says."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@needs_int_str_limit
@pytest.mark.parametrize(
    "command, triple, digits",
    [
        # n = 6396 at (3, 5, 3200): q^n alone has 4,471 digits; g~ has 4,475 and
        # |G| = p q^n, the sum-of-squares row, 4,472.
        pytest.param("invariants", (3, 5, 3200), 4475, id="invariants"),
        pytest.param("reps", (3, 5, 3200), 4472, id="reps"),
        # n = 131070: the report would build 7,711 genus values of about 39,460 digits.
        pytest.param("invariants", (131071, 2, 3), 39461, id="invariants-131071-2-3"),
        # n = 3,999,996: building q^n alone takes seconds; the count is read off log10.
        pytest.param("invariants", (3, 5, 2000000), 2795884, id="invariants-3-5-2000000"),
        pytest.param("reps", (3, 5, 2000000), 2795878, id="reps-3-5-2000000"),
        # n = 2 * 10^14 - 4: a float logarithm this size used to send every count
        # to building 5^n; at r = 10^300 the count itself has 301 digits.
        pytest.param("invariants", (3, 5, 10**14), 139794000867215, id="invariants-3-5-1e14"),
        pytest.param("reps", (3, 5, 10**14), 139794000867202, id="reps-3-5-1e14"),
        pytest.param(
            "invariants", (3, 5, 10**300), mpmath_power_digits(5, 2 * 10**300 - 4, 10**300 - 3),
            id="invariants-3-5-1e300",
        ),
        pytest.param(
            "reps", (3, 5, 10**300), mpmath_power_digits(5, 2 * 10**300 - 4, 3), id="reps-3-5-1e300"
        ),
    ],
)
def test_results_past_the_int_to_str_limit_exit_2(
    capsys, monkeypatch, int_str_limit_4300, command, triple, digits
):
    def unbounded(*args, **kwargs):
        pytest.fail("the report was built before the oversized result was refused")

    for builder in ("genus_quotient_by_core", "decomposition_report", "rep_table"):
        monkeypatch.setattr(f"gonal.cli.{builder}", unbounded)
    p, q, r = (str(x) for x in triple)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--p", p, "--q", q, "--r", r, "--json")
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: a result has {digits} decimal digits")
    assert "limit of 4300" in line
    assert elapsed < 1.0


@needs_int_str_limit
def test_jsonify_names_the_exact_digit_count(int_str_limit_4300):
    for value, digits in [(10**4300, 4301), (10**4301 - 1, 4301), (-(10**5000), 5001), (2**20000, 6021)]:
        with pytest.raises(InvalidParamsError, match=f"has {digits} decimal digits.*limit of 4300"):
            jsonify({"x": [value]})
    assert jsonify([10**4300 - 1]) == ["9" * 4300]


def test_atlas_past_the_cap_exits_3_before_building_the_action(capsys, monkeypatch):
    def unbounded(params):
        pytest.fail("build_action ran before the cap refused the run")

    monkeypatch.setattr("gonal.atlas.build_action", unbounded)
    monkeypatch.setattr("gonal.cli.build_action", unbounded)
    code, out, err = run_cli(capsys, "atlas", "--p", "3", "--q", "5", "--r", "2000")
    assert (code, out) == (3, "")
    assert str(5**3996) in err


@needs_int_str_limit
def test_atlas_cap_refusal_past_the_int_to_str_limit_exit_3(capsys, int_str_limit_4300):
    # n = 6396: the required cap 5^n has 4,471 digits, too many to print.
    code, out, err = run_cli(capsys, "atlas", "--p", "3", "--q", "5", "--r", "3200")
    assert (code, out) == (3, "")
    error, hint = err.splitlines()
    assert error.startswith("error: orbit classification needs ambient size <4471 digits>")
    assert hint == "hint: re-run with --cap <4471 digits>"


@needs_int_str_limit
def test_atlas_cap_refusal_builds_no_power(capsys, int_str_limit_4300):
    # n = 3,999,996: building 5^n and counting its digits exactly took about 6 s;
    # at r = 10^14 and past it, a float logarithm sent the count to building 5^n.
    for r, digits in [
        (2000000, 2795878),
        (10**14, 139794000867201),
        (10**300, mpmath_power_digits(5, 2 * 10**300 - 4)),
    ]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "atlas", "--p", "3", "--q", "5", "--r", str(r))
        elapsed = time.perf_counter() - start
        assert (code, out) == (3, "")
        error, hint = err.splitlines()
        assert error == (
            f"error: orbit classification needs ambient size <{digits} digits> "
            f"(required cap <{digits} digits>, current cap 1594323)"
        )
        assert hint == f"hint: re-run with --cap <{digits} digits>"
        assert elapsed < 1.0


@needs_int_str_limit
@pytest.mark.parametrize("r", [10**400, 10**308, 2**1023], ids=["1e400", "1e308", "2^1023"])
@pytest.mark.parametrize("command", ["invariants", "reps", "atlas", "galois"])
def test_an_r_of_any_size_is_refused_exactly_within_a_second(
    capsys, tmp_path, int_str_limit_4300, command, r
):
    # No float bound on n: each command sizes q^n where it uses it, exactly.
    n = 2 * r - 4
    path = tmp_path / "one.gens"
    path.write_text("a_1\n")
    extra = ["--subgroup", str(path)] if command == "galois" else []
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--p", "3", "--q", "5", "--r", str(r), *extra)
    elapsed = time.perf_counter() - start
    assert out == "" and elapsed < 1.0
    if command == "atlas":
        digits = mpmath_power_digits(5, n)
        assert code == 3
        assert err.splitlines() == [
            f"error: orbit classification needs ambient size <{digits} digits> "
            f"(required cap <{digits} digits>, current cap 1594323)",
            f"hint: re-run with --cap <{digits} digits>",
        ]
    elif command == "galois":
        assert code == 2
        assert err == (
            f"error: {path} has 1 words and spans dimension at most 1, "
            f"not a maximal subgroup of Z_5^{n}\n"
        )
    else:
        factor = r - 3 if command == "invariants" else 3
        digits = mpmath_power_digits(5, n, factor)
        assert code == 2
        (line,) = err.splitlines()
        assert line.startswith(f"error: a result has {digits} decimal digits")


@pytest.mark.parametrize("command", ["invariants", "reps", "atlas"])
def test_with_the_int_to_str_limit_off_q_to_the_n_is_sized_by_the_default_limit(command):
    # PYTHONINTMAXSTRDIGITS=0 switches the limit off; sizes are then checked against
    # Python's default, 4,300 digits, where nothing used to size 5^(2 * 10^12 - 4).
    # The child's address space is bounded: a run that builds that power ends in a
    # timeout or a MemoryError, not by exhausting the machine's memory.
    r = 10**12
    n = 2 * r - 4
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(gonal.__file__).parents[1]),
        "PYTHONINTMAXSTRDIGITS": "0",
    }

    def bounded_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "gonal.cli", command, "--p", "3", "--q", "5", "--r", str(r)],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=bounded_memory,
    )
    assert time.perf_counter() - start < 10
    assert done.stdout == ""
    if command == "atlas":
        digits = mpmath_power_digits(5, n)
        assert done.returncode == 3, done.stderr
        assert done.stderr.splitlines() == [
            f"error: orbit classification needs ambient size <{digits} digits> "
            f"(required cap <{digits} digits>, current cap 1594323)",
            f"hint: re-run with --cap <{digits} digits>",
        ]
    else:
        digits = mpmath_power_digits(5, n, r - 3 if command == "invariants" else 3)
        assert done.returncode == 2, done.stderr
        assert done.stderr.splitlines() == [
            f"error: a result has {digits} decimal digits, over the int-to-str limit of 4300 "
            "(PYTHONINTMAXSTRDIGITS raises it)"
        ]


def test_reps_command(capsys):
    code, out, _ = run_cli(capsys, "reps", "--p", "3", "--q", "2", "--r", "4", "--json")
    assert code == 0
    data = json.loads(out)
    complexes = {row["label"]: row for row in data["payload"]["complex"]}
    assert complexes["V_j"]["count"] == "5"
    assert complexes["V_j"]["degree"] == "3"
    assert any(c["name"] == "sum-of-squares" and c["status"] == "pass" for c in data["checks"])
    assert list(data["payload"]) == ["complex", "rational", "isotypical_factors"]


@pytest.mark.parametrize(
    "command, corrupt, row, detail, example",
    [
        # For invariants, `corrupt(n, w, twisted)` picks the genera of X~/H put off by one.
        ("invariants", lambda n, w, twisted: w == 0 and not twisted, "jacobian-dimension-identity",
         "g~ = g + m * prym: 18 vs 17", None),
        ("invariants", lambda n, w, twisted: twisted, "prym-sum-equals-quotient-jacobian",
         "t * prym = g_T: 5 vs 6", "expected (t, prym, g_T) = (3, 1, 3), got (3, 1, 4)"),
        ("invariants", lambda n, w, twisted: w == n and not twisted, "riemann-hurwitz-endpoints",
         "(g(X~/N), g(X~/G)) = (g, 0): (3, 0) vs (2, 0)", None),
        ("reps", "complex_table", "sum-of-squares",
         "sum of count * degree^2 = |G|: 57 vs 48", None),
        ("reps", "complex_table", "rational-grouping",
         "1 + (p-1) + t(q-1) = complex irreducibles: 8 vs 9", None),
    ],
    ids=["jacobian", "prym-sum", "riemann-hurwitz", "sum-of-squares", "rational-grouping"],
)
def test_each_identity_row_can_fail(capsys, monkeypatch, command, corrupt, row, detail, example):
    # One closed form off by one at (3, 2, 4), the first triple of the sweep; for
    # complex_table, the V_j count.  `example` is the witness of the identities
    # suite's worked example at (5, 2, 3) where the corruption reaches it.
    from gonal import calculus, reps, verify
    from gonal.action import CoverParams

    if corrupt == "complex_table":
        real = reps.complex_table

        def wrong(params):
            return tuple(
                reps.RepEntry(e.label, e.degree, e.count + (e.label == "V_j")) for e in real(params)
            )
        monkeypatch.setattr(reps, "complex_table", wrong)
    else:
        real_genus = calculus.genus_quotient_by_core

        def wrong_genus(params, w, *, twisted=False):
            return real_genus(params, w, twisted=twisted) + corrupt(params.n, w, twisted)
        for module in (calculus, verify):
            monkeypatch.setattr(module, "genus_quotient_by_core", wrong_genus)

    code, out, _ = run_cli(capsys, command, "--p", "3", "--q", "2", "--r", "4", "--json")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert {"name": row, "status": "fail", "detail": detail} in checks
    first = next(c for c in checks if c["status"] == "fail")
    # The identities suite builds the same rows over the sweep, so it reports the same witness.
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["payload"]["first_witness"] == (
        f"identities-sweep: {first['name']} for {CoverParams(3, 2, 4)}: {first['detail']}"
    )
    worked = {c["name"]: c for c in data["checks"]}["identities-worked-example-p5-q2"]
    if example is None:
        assert worked["status"] == "pass"
    else:
        assert (worked["status"], worked["detail"]) == ("fail", example)


def test_verify_suites_pass(capsys):
    for suite in ("fixtures", "identities", "groupring"):
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
    assert "identities-sweep" in names
    assert "groupring-5-2-3-scalar" in names
    assert "fixture-core-generators" in names
    assert "histogram-13-3-3" in names
    # identities 2, groupring 8, fixtures 5, histogram 25.
    assert len(data["checks"]) == len(names) == 40


def test_verify_suite_counts_is_gone(capsys):
    # The brute-force check of gaussian_count moved into the tests.
    code, _, err = run_cli(capsys, "verify", "--suite", "counts")
    assert code == 2
    assert "invalid choice: 'counts'" in err


def test_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "atlas", "--p", "5", "--q", "2", "--r", "3", "--json")
    assert code == 0
    data = json.loads(out)
    envelope = ReportEnvelope(**data)
    assert envelope.to_dict() == data
    out = io.StringIO()
    envelope.to_json(out)
    assert out.getvalue() == json.dumps(data, indent=2) + "\n"


_FIXTURES = Path(gonal.__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--p", "13", "--q", "3", "--r", "3"],
        ["atlas", "--p", "7", "--q", "2", "--r", "4", "--orbits", "--cores"],
        ["atlas", "--p", "7", "--q", "2", "--r", "4", "--limit", "0"],
        ["galois", "--p", "13", "--q", "3", "--r", "3", "--subgroup", str(_FIXTURES / "L1.gens")],
        ["reps", "--p", "5", "--q", "2", "--r", "3"],
        ["verify", "--suite", "groupring"],
    ],
    ids=["invariants", "atlas-orbits-cores", "atlas-limit-0", "galois-L1", "reps", "verify-groupring"],
)
def test_every_json_envelope_is_the_indent_2_rendering_of_its_content(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# The values the writer meets: what `jsonify` makes of ints (negative and past
# 255 included), the envelope's None and float, and strings that json escapes:
# quotes, backslashes, control characters, DEL, and non-ASCII text such as the
# semidirect-product sign of every Galois group.
_JSON_TEXT = st.text(st.one_of(st.sampled_from('⋊"\\/\x00\x1f\n\t\r\x7fé\u2028'), st.characters()))
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**30), 10**30).map(jsonify),
    _JSON_TEXT,
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(
            st.one_of(_JSON_TEXT, st.integers(-300, 300).map(jsonify)), children, max_size=6
        ),
    ),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None)
@given(_JSON_VALUES)
@example({"a": [], "b": {}, "c": [[], {}, [["⋊"]]], "d": (1.5, float("nan"), -float("inf"))})
@example(jsonify([256, -1, 0, 255, True, -0.0, "\\\"\x00"]) + [None, ()])
def test_json_writer_matches_json_dumps_byte_for_byte(value):
    out = io.StringIO()
    _write_json(value, out.write)
    assert out.getvalue() == json.dumps(value, indent=2)


def test_json_writer_refuses_what_jsonify_never_returns():
    # An int would break the envelope's promise that every integer is a decimal string.
    for value in (7, [7], {"x": 7}, object()):
        with pytest.raises(TypeError):
            _write_json(value, io.StringIO().write)


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
    code, out, _ = run_cli(capsys, "verify", "--suite", "fixtures", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["payload"]["failures"] == "1"
    assert data["payload"]["first_witness"] == "bad: witness detail"
    statuses = {c["name"]: c["status"] for c in data["checks"]}
    assert statuses == {"good": "pass", "bad": "fail"}


def test_a_mersenne_prime_p_is_answered_at_once():
    # p = 2^61 - 1: trial division to sqrt(p) ran for minutes inside CoverParams;
    # Miller-Rabin decides it in microseconds, and the oversized result is refused.
    env = {**os.environ, "PYTHONPATH": str(Path(gonal.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "gonal.cli", "invariants", "--p", str(2**61 - 1), "--q", "2", "--r", "3"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ")


def test_console_entry_point_under_python_O():
    # `python -O` strips asserts; the rows, the exit code and the error line must not
    # depend on them.
    env = {**os.environ, "PYTHONPATH": str(Path(gonal.__file__).parents[1])}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-m", "gonal.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    done = run("verify", "--suite", "fixtures", "--json")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["payload"]["failures"] == "0"
    done = run("invariants", "--p", "4", "--q", "2", "--r", "3")
    assert (done.returncode, done.stdout) == (2, "")
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: ")
