"""End-to-end tests of the command-line front end.

Everything drives census.cli.main() in-process (capsys catches the
streams); one subprocess smoke test runs the `census` target declared in
this checkout's pyproject.toml [project.scripts] in a fresh interpreter,
and the installed `census` script as well when one is on PATH.
"""

import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import census.cli as cli
import census.pipeline as pipeline
import census.zeta as zeta
from census.cli import main
from census.pipeline import ENGINE_VERSION, KacResult
from fractions import Fraction

from builders import const, quotient_ring_value

REPO = Path(__file__).resolve().parent.parent


def script_target(name):
    """(module, attr) of console script `name` in [project.scripts]."""
    # a regex, not tomllib: Python 3.10, which requires-python allows, has
    # no TOML parser in the standard library
    text = (REPO / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\][^\n]*\n(.*?)(?=^\[|\Z)",
                      text, re.M | re.S)
    assert table, "pyproject.toml has no [project.scripts] table"
    line = re.search(r"^%s\s*=\s*[\"']([^\"']*)[\"']" % re.escape(name),
                     table.group(1), re.M)
    assert line, "[project.scripts] declares no %r" % name
    target = line.group(1)
    module, attr = target.split(":")
    return module.strip(), attr.strip()


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    # the suite must not pick up a developer's cache via the environment
    monkeypatch.delenv("CENSUS_CACHE", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# nested past any parser's recursion limit
DEEP_JSON = "[" * 200000 + "]" * 200000


def write_curve(tmp_path, name="curve.json",
                blob={"q": 2, "genus": 1, "point_counts": [3]}):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


class TestGoldens:
    def test_rank1_latex(self, capsys):
        code, out, err = run_cli(capsys, "--format", "latex", "kac",
                                 "--genus", "1", "--rank", "1",
                                 "--degree", "0")
        assert code == 0
        assert out == "(1-\\alpha_1)(1-\\alpha_2)\n"
        assert err == ""

    def test_constant_term_value(self, capsys):
        code, out, _ = run_cli(capsys, "constant-term", "--genus", "3",
                               "--rank", "3", "--degree", "1")
        assert code == 0
        assert out == "15\n"

    def test_count_elliptic(self, capsys, tmp_path):
        path = write_curve(tmp_path)
        code, out, _ = run_cli(capsys, "count", "--rank", "1",
                               "--degree", "0", "--curve", path)
        assert code == 0
        assert out == "indecomposables 3\nhiggs_points 6\n"

    def test_count_fermat_quartic(self, capsys, tmp_path):
        # x^4 + y^4 + z^4 = 0 over F_3: P(T) = (1 + 3T²)³, a triple root
        path = write_curve(tmp_path, blob={"q": 3, "genus": 3,
                                           "point_counts": [4, 28, 28]})
        code, out, err = run_cli(capsys, "count", "--rank", "1",
                                 "--degree", "0", "--curve", path)
        assert (code, out, err) == (0, "indecomposables 64\n"
                                       "higgs_points 1728\n", "")

    def test_entry_point(self, tmp_path):
        # the declared target, run as its console script would run it, from
        # this checkout's src/ and in an empty cwd that cannot shadow the
        # package; an installed `census` script is run too, but it may belong
        # to another checkout or site-packages than this one
        module, attr = script_target("census")
        launcher = "import sys; from %s import %s; sys.exit(%s())" % (
            module, attr, attr)
        pythonpath = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
        argv = ["--format", "latex", "kac", "-g", "1", "-r", "1"]
        runs = [dict(args=[sys.executable, "-c", launcher] + argv, env=env,
                     cwd=tmp_path)]
        installed = shutil.which("census")
        if installed:
            runs.append(dict(args=[installed] + argv, cwd=tmp_path))
        for run in runs:
            proc = subprocess.run(capture_output=True, text=True, timeout=120,
                                  **run)
            assert proc.returncode == 0, (run["args"], proc.stderr)
            assert proc.stdout == "(1-\\alpha_1)(1-\\alpha_2)\n"
            assert proc.stderr == ""

    def test_jobs_is_accepted_and_ignored(self, capsys):
        args = ("kac", "-g", "2", "-r", "2", "-d", "1")
        plain = run_cli(capsys, *args)
        assert plain[0] == 0
        assert plain[1].startswith("A(genus=2, rank=2, degree class=1)\n")
        assert run_cli(capsys, "--jobs", "3", *args) == plain


class TestJson:
    def test_kac_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "kac",
                               "-g", "1", "-r", "2", "-d", "1")
        assert code == 0
        blob = json.loads(out)
        assert blob["provenance"]["engine"] == ENGINE_VERSION
        res = KacResult.from_json(blob)
        assert res.to_json() == blob
        direct = pipeline.kac_polynomial(1, 2, 1)
        assert res.value == direct.value
        assert res.lifted == direct.lifted
        assert res.is_d_independent == direct.is_d_independent

    def test_degree_reduced_mod_rank(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "kac",
                               "-g", "1", "-r", "2", "-d", "5")
        assert code == 0
        assert json.loads(out)["degree_class"] == 1

    def test_constant_term_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "constant-term",
                               "-g", "2", "-r", "2", "-d", "0")
        assert code == 0
        blob = json.loads(out)
        assert Fraction(blob["constant_term"]) == pipeline.constant_term(2, 2, 0)

    def test_betti_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "betti",
                               "-g", "1", "-r", "1", "-d", "0")
        assert code == 0
        blob = json.loads(out)
        assert blob["polynomial"]["kind"] == "polynomial"
        p = pipeline.poly_from_json(blob["polynomial"])
        assert p == pipeline.betti_polynomial(1, 1, 0)

    def test_count_json(self, capsys, tmp_path):
        path = write_curve(tmp_path)
        code, out, _ = run_cli(capsys, "--format", "json", "count",
                               "-r", "1", "-d", "0", "--curve", path)
        assert code == 0
        blob = json.loads(out)
        assert blob["indecomposables"] == 3
        assert blob["higgs_points"] == 6

    def test_count_json_omits_higgs_when_not_coprime(self, capsys, tmp_path):
        path = write_curve(tmp_path)
        code, out, _ = run_cli(capsys, "--format", "json", "count",
                               "-r", "2", "-d", "0", "--curve", path)
        assert code == 0
        assert "higgs_points" not in json.loads(out)


class TestFractionKind:
    """Byte pins of the three formats of a fraction-kind result: the
    normal form kac_rational(1, 2), served as if it were A(1,2,0), once
    as computed and once parsed back from its JSON, as a cache hit is."""

    JSON = (
        '{"degree_class": 0, "flags": {"is_d_independent": false, '
        '"is_polynomial": false}, "genus": 1, "polynomial": {"denominator": '
        '[["1/1", [0, 0, 2]]], "kind": "fraction", "numerator": '
        '[[[2, 0, 1], "-1/1"], [[1, 1, 1], "1/1"], [[0, 1, 1], "-1/1"], '
        '[[2, 0, 0], "-1/1"], [[1, 0, 1], "1/1"], [[1, 1, 0], "1/1"], '
        '[[0, 1, 0], "-1/1"], [[1, 0, 0], "1/1"]], "prefactor": [-1, 0, 0], '
        '"variables": ["a1", "q", "z"]}, "provenance": {"engine": "1.0", '
        '"orders": {"T": 2}, "route": "log-extraction"}, "rank": 2}\n')
    TEXT = (
        "A(genus=1, rank=2, degree class=0)\n"
        "polynomial: no\n"
        "degree-class independent: no\n"
        "value: a1^-1*(-1*a1^2*z + 1*a1*q*z + -1*q*z + -1*a1^2 + 1*a1*z"
        " + 1*a1*q + -1*q + 1*a1) / [(1-z^2)]\n")
    LATEX = ("(1-\\alpha_1)(1-\\alpha_2)\\cdot"
             "\\left[\\frac{z+1}{-z^2+1}\\right]\n")

    @pytest.mark.parametrize("parsed", [False, True])
    @pytest.mark.parametrize("fmt", ["json", "text", "latex"])
    def test_bytes(self, capsys, monkeypatch, fmt, parsed):
        res = KacResult(genus=1, rank=2, degree_class=0,
                        value=pipeline.kac_rational(1, 2), lifted=None,
                        is_d_independent=False, route="log-extraction",
                        orders={"T": 2})
        blob = res.to_json()
        monkeypatch.setattr(cli, "_kac_result", lambda args: (
            blob, None if parsed else res))
        want = {"json": self.JSON, "text": self.TEXT, "latex": self.LATEX}
        assert run_cli(capsys, "--format", fmt, "kac", "-g", "1",
                       "-r", "2") == (0, want[fmt], "")


# the keys of a kac(1,2,0) entry; the malformed entries replace one field
_G1R2D0 = {"genus": 1, "rank": 2, "degree_class": 0,
           "polynomial": {"kind": "polynomial", "variables": [],
                          "terms": []},
           "flags": {"is_polynomial": True, "is_d_independent": True},
           "provenance": {}}


def _g1r2d0_poly(variables=("a1", "a2", "q"), q_term=(0, 0, 1),
                 one_term=(0, 0, 0)):
    """The stored polynomial of kac(1,2,0), q + -a2 + -a1 + 1, with its
    variables or the exponent vector of its q or constant term replaced."""
    terms = [[list(q_term), "1/1"], [[0, 1, 0], "-1/1"],
             [[1, 0, 0], "-1/1"], [list(one_term), "1/1"]]
    return {"engine": ENGINE_VERSION, "result": dict(_G1R2D0, polynomial={
        "kind": "polynomial", "variables": list(variables), "terms": terms})}


class TestWrittenBytes:
    """sha256 pins of the text and LaTeX output of kac at genus 2 and 3,
    rank 2, both degree classes, as computed and as a warm cache hit;
    recorded at commit 1f2874a, before these writers read ring._rows'
    columns."""

    SHA256 = {
        (2, 0, "text"): "b55369f8a8021d7da23812698dee744299df53be092a951127c8e4bf42b4cd8e",
        (2, 1, "text"): "0a37d4446418c5bf8a4a7912ea868206b9b53357d578ec296e90c3d7d353928f",
        (3, 0, "text"): "0b401d10cbf4ddd090ef1c1c3712fe8656a9d60d1d479e589145b8815328ce6c",
        (3, 1, "text"): "121e4ea980b52d872ba9b609fabdde837ae51d063e28276c93760c8df49ef1c9",
        (2, 0, "latex"): "c593b26c0b0cadeac538649e96ab081943a7b45893250e9bfe92449193ebf62d",
        (2, 1, "latex"): "c593b26c0b0cadeac538649e96ab081943a7b45893250e9bfe92449193ebf62d",
        (3, 0, "latex"): "8ea6f53289731dabcd95bc118e5156b5069e0321de0863850bc982ada5b8e7ba",
        (3, 1, "latex"): "8ea6f53289731dabcd95bc118e5156b5069e0321de0863850bc982ada5b8e7ba",
    }

    @pytest.mark.parametrize("g,d,fmt", sorted(SHA256))
    def test_cold_and_warm_bytes(self, capsys, tmp_path, monkeypatch,
                                 g, d, fmt):
        args = ("--format", fmt, "--cache-dir", str(tmp_path),
                "kac", "-g", str(g), "-r", "2", "-d", str(d))
        code, cold, _ = run_cli(capsys, *args)
        assert code == 0
        monkeypatch.setattr(pipeline, "kac_polynomial",
                            lambda *a: pytest.fail("recomputed"))
        code, warm, _ = run_cli(capsys, *args)
        assert code == 0
        for out in (cold, warm):
            assert (hashlib.sha256(out.encode()).hexdigest()
                    == self.SHA256[g, d, fmt])


class TestCache:
    def test_warm_run_byte_identical(self, capsys, tmp_path, monkeypatch):
        args = ("--format", "json", "--cache-dir", str(tmp_path),
                "kac", "-g", "1", "-r", "1", "-d", "0")
        code, cold, _ = run_cli(capsys, *args)
        assert code == 0
        assert (tmp_path / "kac_g1_r1_d0.json").exists()

        def bomb(*a, **k):
            raise AssertionError("cache miss on a warm run")

        monkeypatch.setattr(pipeline, "kac_polynomial", bomb)
        code, warm, _ = run_cli(capsys, *args)
        assert code == 0
        assert warm == cold

    def test_warm_run_byte_identical_text(self, capsys, tmp_path, monkeypatch):
        args = ("--cache-dir", str(tmp_path),
                "kac", "-g", "0", "-r", "1", "-d", "0")
        code, cold, _ = run_cli(capsys, *args)
        assert code == 0
        monkeypatch.setattr(pipeline, "kac_polynomial",
                            lambda *a: pytest.fail("recomputed"))
        code, warm, _ = run_cli(capsys, *args)
        assert code == 0
        assert warm == cold

    def test_env_var_overrides_flag(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        env_dir.mkdir()
        flag_dir.mkdir()
        monkeypatch.setenv("CENSUS_CACHE", str(env_dir))
        code, _, _ = run_cli(capsys, "--cache-dir", str(flag_dir),
                             "kac", "-g", "1", "-r", "1")
        assert code == 0
        assert (env_dir / "kac_g1_r1_d0.json").exists()
        assert not list(flag_dir.iterdir())

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_cache_dir_that_is_a_file_still_answers(self, capsys, tmp_path,
                                                    monkeypatch, via):
        args = ("kac", "-g", "1", "-r", "2", "-d", "1")
        code, want, _ = run_cli(capsys, *args)
        assert code == 0
        blocked = tmp_path / "cache"
        blocked.write_text("not a directory")
        cache = ("--cache-dir", str(blocked))
        if via == "env":
            monkeypatch.setenv("CENSUS_CACHE", str(blocked))
            cache = ()
        code, out, err = run_cli(capsys, *cache, *args)
        assert (code, out, err) == (0, want, "")
        assert blocked.read_text() == "not a directory"

    def test_stale_engine_stamp_forces_recompute(self, capsys, tmp_path):
        path = tmp_path / "kac_g1_r1_d0.json"
        path.write_text(json.dumps({"engine": "0.0",
                                    "result": {"genus": 99}}))
        code, out, _ = run_cli(capsys, "--format", "json",
                               "--cache-dir", str(tmp_path),
                               "kac", "-g", "1", "-r", "1")
        assert code == 0
        assert json.loads(out)["genus"] == 1
        assert json.loads(path.read_text())["engine"] == ENGINE_VERSION

    def test_deeply_nested_cache_entry_recomputes(self, capsys, tmp_path):
        args = ("--format", "json", "kac", "-g", "1", "-r", "2")
        code, want, _ = run_cli(capsys, *args)
        assert code == 0
        path = tmp_path / "kac_g1_r2_d0.json"
        path.write_text(DEEP_JSON)
        code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
        assert (code, out, err) == (0, want, "")
        assert json.loads(path.read_text())["engine"] == ENGINE_VERSION

    def test_corrupt_cache_file_recomputes(self, capsys, tmp_path):
        path = tmp_path / "kac_g1_r1_d0.json"
        path.write_text("{not json")
        code, out, _ = run_cli(capsys, "--format", "json",
                               "--cache-dir", str(tmp_path),
                               "kac", "-g", "1", "-r", "1")
        assert code == 0
        assert json.loads(out)["genus"] == 1

    @pytest.mark.parametrize("entry", [
        {"engine": ENGINE_VERSION, "result": {}},
        [1],
        {"engine": ENGINE_VERSION, "result": [1]},
        {"engine": ENGINE_VERSION, "result": dict(
            _G1R2D0, polynomial=5)},
        {"engine": ENGINE_VERSION, "result": dict(
            _G1R2D0, flags=[True, True])},
        {"engine": ENGINE_VERSION, "result": dict(
            _G1R2D0, polynomial={"kind": "polynomial", "variables": ["q"]})},
        # a short vector, a repeated name, a repeated vector; the first two
        # are chosen so that no other check rejects them
        _g1r2d0_poly(q_term=(1, 1)),
        _g1r2d0_poly(variables=("a1", "a2", "a2"), q_term=(0, 1, 1)),
        _g1r2d0_poly(one_term=(0, 0, 1)),
        _g1r2d0_poly(q_term=(0, 0, 2 ** 25)),
        _g1r2d0_poly(q_term=(0, 0, 1.5)),
        # a long vector, a string exponent, the first exponent out of range
        _g1r2d0_poly(q_term=(0, 0, 1, 0)),
        _g1r2d0_poly(q_term=(0, 0, "1")),
        _g1r2d0_poly(q_term=(0, 0, -2 ** 22)),
    ])
    def test_malformed_entry_is_a_miss(self, capsys, tmp_path, entry):
        args = ("kac", "-g", "1", "-r", "2", "-d", "0")
        _, want, _ = run_cli(capsys, *args)
        path = tmp_path / "kac_g1_r2_d0.json"
        path.write_text(json.dumps(entry))
        code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
        assert (code, out, err) == (0, want, "")
        assert json.loads(path.read_text())["result"]["genus"] == 1

    @pytest.mark.parametrize("field,bad", [
        ("prefactor", [0, 0]), ("prefactor", [0, 2 ** 22, 0]),
        ("prefactor", [0, 0, None]), ("shape", [0, 1, 0, 0]),
        ("shape", [0, 0, 2 ** 25]), ("shape", [0.5, 0, 1])])
    def test_malformed_fraction_entry_is_a_miss(self, capsys, tmp_path,
                                                field, bad):
        # kac(1,2,0) stored as the fraction (q + 1 - a1 - a2)/(1 - q): a
        # hit as written, a miss once one exponent vector is broken
        args = ("kac", "-g", "1", "-r", "2", "-d", "0")
        _, want, _ = run_cli(capsys, *args)
        entry = _g1r2d0_poly()
        poly = entry["result"]["polynomial"]
        poly.update(kind="fraction", prefactor=[0, 0, 0],
                    numerator=poly.pop("terms"),
                    denominator=[["1/1", [0, 0, 1]]])
        path = tmp_path / "kac_g1_r2_d0.json"
        path.write_text(json.dumps(entry))
        assert cli._cache_load(str(path)) is not None
        if field == "prefactor":
            poly["prefactor"] = bad
        else:
            poly["denominator"][0][1] = bad
        path.write_text(json.dumps(entry))
        code, out, err = run_cli(capsys, "--cache-dir", str(tmp_path), *args)
        assert (code, out, err) == (0, want, "")
        assert json.loads(path.read_text())["result"]["polynomial"][
            "kind"] == "polynomial"

    @pytest.mark.parametrize("field,value", [
        ("genus", 2), ("rank", 3), ("degree_class", 1), ("genus", "1")])
    def test_entry_for_another_key_is_a_miss(self, capsys, tmp_path,
                                             field, value):
        args = ("--format", "json", "--cache-dir", str(tmp_path),
                "kac", "-g", "1", "-r", "2", "-d", "0")
        code, cold, _ = run_cli(capsys, *args)
        assert code == 0
        path = tmp_path / "kac_g1_r2_d0.json"
        blob = json.loads(path.read_text())
        blob["result"][field] = value
        path.write_text(json.dumps(blob))
        code, warm, _ = run_cli(capsys, *args)
        assert (code, warm) == (0, cold)
        assert json.loads(path.read_text())["result"][field] != value

    def test_cache_keyed_by_degree_class(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "--cache-dir", str(tmp_path),
                             "kac", "-g", "1", "-r", "2", "-d", "3")
        assert code == 0
        assert (tmp_path / "kac_g1_r2_d1.json").exists()


class TestReports:
    def test_check_text(self, capsys):
        code, out, _ = run_cli(capsys, "check", "-g", "1", "-r", "2")
        assert code == 0
        assert out.strip()

    def test_check_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json",
                               "check", "-g", "1", "-r", "2")
        assert code == 0
        blob = json.loads(out)
        assert blob["clears_power"] is True
        assert blob["is_d_independent"] is True

    def test_identities_pass(self, capsys):
        code, out, _ = run_cli(capsys, "identities", "-g", "0", "-L", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("pass ") for line in lines)

    def test_identities_fault_injection(self, capsys, monkeypatch):
        real = zeta.zeta_lift

        def corrupted(g, monomial):
            return real(g, monomial) * const(Fraction(101, 100))

        monkeypatch.setattr(zeta, "zeta_lift", corrupted)
        code, out, err = run_cli(capsys, "identities", "-g", "1", "-L", "4")
        assert code == 1
        assert "FAIL" in out
        assert "IdentityViolation" in err

    def test_identities_json(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json",
                               "identities", "-g", "1", "-L", "3")
        assert code == 0
        blob = json.loads(out)
        assert all(blob["identities"].values())

    def test_betti_warning_is_one_line_on_every_call(self, capsys):
        # gcd(2, 0) > 1: outside the coprime range the value is printed
        # with one warning line, in a second call of the same process too
        want = ("warning: betti_polynomial(1, 2, 0): gcd(r, d) > 1 is "
                "outside the guaranteed range\n")
        for _ in range(2):
            code, out, err = run_cli(capsys, "betti", "-g", "1", "-r", "2",
                                     "-d", "0")
            assert (code, err) == (0, want)
            assert out.strip()


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage error" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "kac", "-r", "1")
        assert code == 2
        assert "usage error" in err

    def test_bad_format_choice(self, capsys):
        code, _, err = run_cli(capsys, "--format", "yaml",
                               "kac", "-g", "1", "-r", "1")
        assert code == 2

    def test_domain_error_is_one(self, capsys):
        code, _, err = run_cli(capsys, "kac", "-g", "1", "-r", "0")
        assert code == 1
        assert "ValueError" in err

    def test_missing_curve_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "count", "-r", "1",
                               "--curve", str(tmp_path / "nope.json"))
        assert code == 1

    def test_count_past_float_precision(self, capsys, tmp_path):
        # past what float evaluation can round, the count is exact
        path = write_curve(tmp_path, blob={"q": 49, "genus": 2,
                                           "point_counts": [52, 2564]})
        code, out, err = run_cli(capsys, "count", "-r", "3", "-d", "1",
                                 "--curve", path)
        assert (code, err) == (0, "")
        assert out == ("indecomposables 87846568892661975\n"
                       "higgs_points 7009476818414802906414834596361975\n")

    def test_count_bound_beyond_float_range(self, capsys, tmp_path):
        # q = 2^200 is past any float bound; P(T) = 1 + qT² + q²T⁴, so
        # the real Weil polynomial is t² - q, with the roots ±2^100
        q = 2 ** 200
        path = write_curve(tmp_path, blob={"q": q, "genus": 2, "point_counts":
                                           [q + 1, q * q + 2 * q + 1]})
        code, out, err = run_cli(capsys, "count", "-r", "3", "-d", "1",
                                 "--curve", path)
        n = quotient_ring_value(pipeline.kac_polynomial(2, 3, 1).lifted, q,
                                (2 ** 100, -2 ** 100))
        assert (code, err) == (0, "")
        assert out == "indecomposables %d\nhiggs_points %d\n" % (
            n, q ** 10 * n)

    def test_deeply_nested_curve_file(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(DEEP_JSON)
        code, out, err = run_cli(capsys, "count", "-r", "1",
                                 "--curve", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("ValueError: ")

    def test_bad_curve_counts(self, capsys, tmp_path):
        path = write_curve(tmp_path, blob={"q": 2, "genus": 1,
                                           "point_counts": [-3]})
        code, _, err = run_cli(capsys, "count", "-r", "1", "--curve", path)
        assert code == 1

    @pytest.mark.parametrize("text,want", [
        ('{"q": 1e400, "genus": 1, "point_counts": [3]}', None),
        # t = 0: the rank-1 count is P(1) = 1 + q
        ('{"q": %d, "genus": 1, "point_counts": [%d]}' % (10 ** 400,
                                                           10 ** 400 + 1),
         10 ** 400 + 1),
    ], ids=["q-infinite", "q-beyond-float"])
    def test_curve_beyond_float_range(self, capsys, tmp_path, text, want):
        path = tmp_path / "curve.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "count", "-r", "1",
                                 "--curve", str(path))
        if want is None:
            assert (code, out) == (1, "")
            assert err.startswith("ValueError: ")
        else:
            assert (code, err) == (0, "")
            assert out == "indecomposables %d\nhiggs_points %d\n" % (
                want, 10 ** 400 * want)

    @pytest.mark.parametrize("blob,field", [
        ({"q": 2, "genus": 2, "point_counts": [3.5, 13]}, "point_counts"),
        ({"q": 2, "genus": 2, "point_counts": [True, 13]}, "point_counts"),
        ({"q": 2, "genus": 2, "point_counts": "3,13"}, "point_counts"),
        ({"q": "3", "genus": 1, "point_counts": [4]}, "q"),
        ({"q": 2, "genus": 2.0, "point_counts": [3, 13]}, "genus"),
        ({"q": 2, "genus": -1, "point_counts": []}, "genus"),
    ], ids=["count-float", "count-bool", "counts-string", "q-string",
            "genus-float", "genus-negative"])
    def test_curve_values_must_be_json_integers(self, capsys, tmp_path,
                                                blob, field):
        path = write_curve(tmp_path, blob=blob)
        code, out, err = run_cli(capsys, "count", "-r", "1", "--curve", path)
        assert (code, out) == (1, "")
        assert err.startswith("ValueError: curve %s " % field)

    def test_bad_jobs_value(self, capsys):
        code, _, err = run_cli(capsys, "--jobs", "x",
                               "kac", "-g", "1", "-r", "1")
        assert code == 2
        assert "usage error" in err

    def test_parser_is_shared_between_calls(self, capsys):
        # main builds its parser once; flags of one call, or a usage error,
        # must not carry into the next
        assert cli.build_parser() is cli.build_parser()
        text = run_cli(capsys, "kac", "-g", "1", "-r", "1")
        run_cli(capsys, "--format", "json", "kac", "-g", "1", "-r", "1")
        assert run_cli(capsys, "kac", "-g", "1")[0] == 2
        assert run_cli(capsys, "kac", "-g", "1", "-r", "1") == text

    @pytest.mark.parametrize("command", ["kac", "check", "betti"])
    def test_genus_above_the_ring_limit_fails_at_once(self, tmp_path,
                                                      command):
        # the product over the Weil numbers at genus 65 has 4^65 terms: the
        # limit must be met before it is formed
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        g = zeta.MAX_GENUS + 1
        proc = subprocess.run(
            [sys.executable, "-m", "census.cli", command, "-g", str(g),
             "-r", "1"], capture_output=True, text=True, timeout=5, env=env,
            cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == ("ValueError: genus %d is above the limit %d\n"
                               % (g, zeta.MAX_GENUS))

    def test_closed_stdout_exits_one_quietly(self, tmp_path):
        # kac(7,1) writes about 150 KB, more than a pipe holds, so the
        # writer is still writing when the reader closes the pipe after 80
        # bytes, as `census kac -g 7 -r 1 | head -c 80` does
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "census.cli", "kac", "-g", "7", "-r", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            cwd=tmp_path)
        head = proc.stdout.read(80)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert head.startswith(b"A(genus=7, rank=1, degree class=0)\n")
        assert (len(head), proc.returncode, err) == (80, 1, b"")

    def test_negative_genus(self, capsys):
        code, _, err = run_cli(capsys, "kac", "-g", "-1", "-r", "1")
        assert code == 1
        assert "ValueError" in err


def readme_examples():
    """(command, stdout) of each `$ ...` line in the examples of README
    "Command line", in order: the nonblank lines below a command up to the
    next one are its output."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("Examples:\n\n```\n", 1)[1].split("\n```", 1)[0]
    examples = []
    for line in filter(None, block.split("\n")):
        if line.startswith("$ "):
            examples.append([line[2:], ""])
        else:
            examples[-1][1] += line + "\n"
    return examples


def test_readme_examples_replay(tmp_path):
    # every example runs in sh, in one empty directory (the curve file one
    # example writes is read by the next), with `census` the command line
    # of this checkout
    examples = readme_examples()
    assert sum(cmd.startswith("census ") for cmd, _ in examples) == 7
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("CENSUS_CACHE", None)
    census = 'census() { %s -m census.cli "$@"; }\n' % shlex.quote(
        sys.executable)
    for command, out in examples:
        proc = subprocess.run(["sh", "-c", census + command], env=env,
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), command
        assert proc.stdout == out, command
