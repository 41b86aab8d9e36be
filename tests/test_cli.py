"""Integration tests for the command-line interface and its exit codes."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import lieschouten
from lieschouten.cli import main

DATA = pathlib.Path(__file__).parent / "data"

# The full `verify --seed 0 --format machine` stream: its summary line and
# the sha256 of the whole output.  Any change to a RESULT line moves them.
SEED0_SUMMARY = "SUMMARY\tpass=194\twarn=9\tskip=4\tfail=0"
SEED0_SHA256 = "c066eb2997606f0e2de257a1ba9a5e5787fec8cd17c61f6256588795cca7f77e"

# The sha256 of `verify --only case --seed S --format machine` for S = 1, 2
# and 3: the sampled ladder rung's draws past seed 0, which its
# counterexamples print.
CASE_SEED1_SHA256 = "d2c83437e82019234e16b4c8c1d7cd7bb9ef998bba633f0bf2eebf6c9d828caa"
CASE_SEED2_SHA256 = "8202e8ce0269d2a4a1c1ce64ab404c942a6b952ca1a2b00cb39b8ce6355953c7"
CASE_SEED3_SHA256 = "ad9091e588626731489619cb36fa50585c775d2acb2ae573ab711b3377c2bdb7"

# The sha256 of `verify --only scan --seed S --format machine` for S = 1, 2
# and 3: every branch sample past seed 0, through the solvable counts that
# its records print.
SCAN_SEED1_SHA256 = "89c5e0aabd47463dc2f6b15d920dec218a40df8bc2347290a6412ed5a047695b"
SCAN_SEED2_SHA256 = "bcbcc58f641539d37d7b6e3d402b7dcd51aa80b0289ac16cab6220549981b631"
SCAN_SEED3_SHA256 = "52cbdea0fbbdbed341921807e60b05ddc3869d0f5a60f8e6cde8133d383f9d25"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_usage_error_unknown_family(self, capsys):
        code, _, err = run(capsys, "ricci", "--family", "g9", "--kind", "lc")
        assert code == 2 and "unknown family" in err

    def test_usage_error_missing_eta(self, capsys):
        code, _, err = run(capsys, "system", "--family", "g4", "--kind", "kn")
        assert code == 2 and "eta" in err

    def test_usage_error_eta_on_wrong_family(self, capsys):
        code, _, err = run(capsys, "ricci", "--family", "g1", "--eta", "1", "--kind", "lc")
        assert code == 2

    def test_usage_error_bad_subcommand_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["ricci", "--family", "g1", "--kind", "weyl"])
        assert err.value.code == 2

    def test_data_error_missing_custom_file(self, capsys):
        code, _, err = run(capsys, "ricci", "--family", "custom:/does/not/exist.alg")
        assert code == 3 and "custom algebra" in err

    def test_data_error_invalid_custom_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("bracket.12 = alpha +, 0, 0\n", encoding="utf-8")
        code, _, err = run(capsys, "system", "--family", f"custom:{bad}")
        assert code == 3

    @pytest.mark.parametrize("command", ["system", "scan"])
    def test_data_error_reserved_name_in_custom_file(self, capsys, command):
        code, out, err = run(capsys, command, "--family", f"custom:{DATA / 'reserved.alg'}", "--format", "machine")
        assert (code, out) == (3, "")
        assert err == "data error: invalid custom algebra file: bracket.12: c is reserved for the soliton unknowns\n"

    def test_nonpositive_tolerance_rejected(self, capsys):
        # every decision is exact, so --tolerance is no option at all, whatever its value
        for command in (("scan", "--family", "g1", "--kind", "lc"), ("verify", "--only", "4.11.2")):
            for value in ("-1", "1e-9"):
                with pytest.raises(SystemExit) as exit_:
                    main([*command, "--tolerance", value])
                captured = capsys.readouterr()
                assert (exit_.value.code, captured.out) == (2, "")
                assert "unrecognized arguments: --tolerance" in captured.err, (command, value)

    SAMPLING_ERRORS = {
        "cubic": "constraint alpha^3 + beta^3 - 2 has degree above 2 in every variable it could be solved for",
        "unsatisfiable": "no draw of custom meets its side conditions: 0 of 100 points after 21000 draws",
    }

    @pytest.mark.parametrize("command", ["scan", "jacobi"])
    @pytest.mark.parametrize("name", list(SAMPLING_ERRORS))
    def test_data_error_when_the_sampler_cannot_meet_the_side_conditions(self, capsys, command, name):
        code, out, err = run(capsys, command, "--family", f"custom:{DATA / f'{name}.alg'}", "--format", "machine")
        assert (code, out, err) == (3, "", f"data error: {self.SAMPLING_ERRORS[name]}\n")

    @pytest.mark.parametrize("command", ["system", "ricci"])
    @pytest.mark.parametrize("name", ["cubic", "unsatisfiable"])
    def test_commands_that_do_not_sample_accept_such_files(self, capsys, command, name):
        code, out, _ = run(capsys, command, "--family", f"custom:{DATA / f'{name}.alg'}", "--format", "machine")
        assert code == 0 and out

    def test_lambda0_division_by_zero_is_usage_error(self, capsys):
        code, out, err = run(capsys, "scan", "--family", "g1", "--lambda0", "0,1/0")
        assert (code, out) == (2, "") and "bad lambda0 value '1/0'" in err


class TestRicci:
    def test_g1_lc_prints_reference_matrix_and_scalar(self, capsys):
        code, out, _ = run(capsys, "ricci", "--family", "g1", "--kind", "lc")
        assert code == 0
        assert "1/2*beta^2" in out and "2*alpha^2 + 1/2*beta^2" in out
        assert "scalar curvature: 3/2*beta^2" in out

    def test_g5_canonical_zero_matrix(self, capsys):
        code, out, _ = run(capsys, "ricci", "--family", "g5", "--kind", "canonical", "--format", "machine")
        assert code == 0
        assert "op\t1\t0\t0\t0" in out and "scalar\t0" in out

    def test_custom_abelian_zero_matrix(self, capsys):
        code, out, _ = run(
            capsys, "ricci", "--family", f"custom:{DATA / 'abelian.alg'}", "--kind", "lc"
        )
        assert code == 0
        assert "scalar curvature: 0" in out


class TestSystem:
    def test_g1_lc_system_contains_solution_defining_line(self, capsys):
        code, out, _ = run(capsys, "system", "--family", "g1", "--kind", "lc", "--format", "machine")
        assert code == 0
        assert out.count("residual\t") == 9
        # the (1,2) pair, e1 component, at beta=0 reduces to alpha*c
        assert "residual\t[e1,e2].e1\t" in out

    def test_g4_eta_substituted(self, capsys):
        code, out, _ = run(
            capsys, "system", "--family", "g4", "--eta", "-1", "--kind", "kn", "--format", "machine"
        )
        assert code == 0
        assert "eta\t-1" in out
        from lieschouten.poly import parse_polynomial
        for line in out.splitlines():
            if line.startswith("residual\t"):
                expr = parse_polynomial(line.split("\t")[2])
                assert "eta" not in expr.variables()

    def test_abelian_system_all_zero(self, capsys):
        code, out, _ = run(
            capsys, "system", "--family", f"custom:{DATA / 'abelian.alg'}", "--format", "machine"
        )
        assert code == 0
        for line in out.splitlines():
            if line.startswith("residual\t"):
                assert line.endswith("\t0")


class TestJacobi:
    def test_g7_identically_zero(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--family", "g7")
        assert code == 0 and "identically zero" in out

    def test_lie_custom_reports_identically_zero(self, capsys):
        code, out, _ = run(
            capsys, "jacobi", "--family", f"custom:{DATA / 'heisenberg.alg'}", "--format", "machine"
        )
        assert code == 0 and "identically_zero\tyes" in out

    def test_non_lie_custom_reports_nonzero(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--family", f"custom:{DATA / 'nonlie.alg'}", "--count", "20")
        assert code == 0
        assert "nonzero symbolically; max |residual| over 20 constrained samples: 9.500e+00" in out.splitlines()

    def test_nonlie_sampled_max_matches_golden_file(self, capsys):
        # a table that breaks the Jacobi identity, sampled on a circle:
        # its surd points reach the nonzero sampled_max
        code, out, _ = run(
            capsys, "jacobi", "--family", f"custom:{DATA / 'nonlie.alg'}", "--count", "20", "--format", "machine"
        )
        assert code == 0
        assert out == (DATA / "golden_nonlie_jacobi.txt").read_text(encoding="utf-8")
        assert "identically_zero\tno" in out


class TestScan:
    def test_g5_kn_all_solvable_with_zero(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--family", "g5", "--kind", "kn", "--count", "15", "--format", "machine"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("point\t")]
        assert lines and all(l.endswith("\tc=0") for l in lines)
        assert "summary\tsolvable=90\ttotal=90" in out

    def test_g4_kn_zero_solvable(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--family", "g4", "--eta", "1", "--kind", "kn", "--count", "40"
        )
        assert code == 0 and "0 solvable of 240" in out

    def test_circle_scan_matches_golden_file(self, capsys):
        # points with a quadratic root, printed exactly as surds, one ASCII form
        code, out, _ = run(
            capsys, "scan", "--family", f"custom:{DATA / 'circle.alg'}", "--kind", "canonical",
            "--count", "20", "--format", "machine",
        )
        assert code == 0
        assert out == (DATA / "golden_circle_scan.txt").read_text(encoding="utf-8")
        assert "*sqrt(" in out and "-0.0" not in out

    def test_text_scans_match_golden_file(self, capsys):
        # the text form: no parameters, c = any, the first ten solvable cells and the rest counted
        outs = []
        for argv in (
            ("--family", f"custom:{DATA / 'abelian.alg'}", "--count", "3"),
            ("--family", "g6", "--kind", "lc", "--count", "30"),
        ):
            code, out, _ = run(capsys, "scan", *argv)
            assert code == 0
            outs.append(out)
        assert "".join(outs) == (DATA / "golden_text_scans.txt").read_text(encoding="utf-8")

    def test_custom_lambda0_grid(self, capsys):
        code, out, _ = run(
            capsys,
            "scan", "--family", "g1", "--kind", "lc", "--count", "5",
            "--lambda0", "0,1/3", "--format", "machine",
        )
        assert code == 0
        assert "lambda0=1/3" in out and "lambda0=1/2" not in out


class TestVerify:
    def test_only_theorem_group_runs_all_its_cases(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "3.3", "--format", "machine")
        assert code == 0
        case_lines = [l for l in out.splitlines() if l.startswith("RESULT\tcase\t")]
        assert len(case_lines) == 12
        warn_labels = {l.split("\t")[2] for l in out.splitlines() if "\twarn\t" in l}
        assert {"3.3.8", "3.3.11", "3.3.12"} <= warn_labels

    def test_only_no_solutions_entry(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "4.8.1", "--count", "60", "--format", "machine")
        assert code == 0
        assert "RESULT\tcase\t4.8.1\tpass\tscan-empty" in out

    def test_only_matrix_label(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "3.9", "--format", "machine")
        assert code == 0
        assert "RESULT\tmatrix\t3.9\tpass" in out

    def test_unknown_only_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "nonsense")
        assert code == 2 and "no catalogued checks" in err

    def test_machine_output_byte_identical(self, capsys):
        args = ("verify", "--only", "g1-lc", "--seed", "0", "--count", "25", "--format", "machine")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed0_machine_output_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "0", "--format", "machine")
        assert code == 0
        assert SEED0_SUMMARY in out.splitlines()
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SEED0_SHA256

    @pytest.mark.parametrize(
        "seed, digest", [(1, CASE_SEED1_SHA256), (2, CASE_SEED2_SHA256), (3, CASE_SEED3_SHA256)]
    )
    def test_case_section_past_seed0_is_pinned(self, capsys, seed, digest):
        code, out, _ = run(capsys, "verify", "--only", "case", "--seed", str(seed), "--format", "machine")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize(
        "seed, digest", [(1, SCAN_SEED1_SHA256), (2, SCAN_SEED2_SHA256), (3, SCAN_SEED3_SHA256)]
    )
    def test_scan_section_past_seed0_is_pinned(self, capsys, seed, digest):
        code, out, _ = run(capsys, "verify", "--only", "scan", "--seed", str(seed), "--format", "machine")
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_runtime_imports_no_test_only_dependency():
    # sympy and hypothesis are test-only oracles; this process has imported
    # both, so the CLI runs in a fresh interpreter
    child = """
import json, sys
from lieschouten.cli import main
codes = [
    main(["verify", "--only", "g5", "--count", "20", "--format", "machine"]),
    main(["scan", "--family", "g6", "--kind", "lc", "--count", "10", "--format", "machine"]),
]
loaded = sorted({name.split(".")[0] for name in sys.modules} & {"sympy", "hypothesis"})
print(json.dumps({"codes": codes, "loaded": loaded}), file=sys.stderr)
"""
    src = str(pathlib.Path(lieschouten.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stderr.strip().splitlines()[-1])
    assert result == {"codes": [0, 0], "loaded": []}


def test_one_shot_ricci_loads_neither_soliton_nor_catalog():
    child = """
import json, sys
import lieschouten
from lieschouten.cli import main
code = main(["ricci", "--family", "g1", "--format", "machine"])
loaded = sorted(name for name in ("lieschouten.soliton", "lieschouten.catalog", "dataclasses", "inspect") if name in sys.modules)
missing = [name for name in lieschouten.__all__ if getattr(lieschouten, name, None) is None]
print(json.dumps({"code": code, "loaded": loaded, "missing": missing}), file=sys.stderr)
"""
    src = str(pathlib.Path(lieschouten.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stderr.strip().splitlines()[-1]) == {"code": 0, "loaded": [], "missing": []}


class TestVerifyFailurePath:
    def test_exit_code_1_on_nonsuspect_failure(self, capsys, monkeypatch):
        # corrupt one matrix fixture so the battery must report a real failure
        import importlib.resources

        import lieschouten.catalog as catalog_mod
        from lieschouten.catalog import load_catalog

        text = (
            importlib.resources.files("lieschouten")
            .joinpath("data/catalog.txt")
            .read_text(encoding="utf-8")
        )
        broken = text.replace(
            "row1 = 1/2*beta^2, alpha*beta, alpha*beta",
            "row1 = beta^2, alpha*beta, alpha*beta",
            1,
        )
        monkeypatch.setattr(catalog_mod, "load_catalog", lambda: load_catalog(text=broken))
        code, out, _ = run(capsys, "verify", "--only", "3.9", "--format", "machine")
        assert code == 1
        assert "RESULT\tmatrix\t3.9\tfail" in out

    def test_exit_code_3_on_catalog_parse_error(self, capsys, monkeypatch):
        import lieschouten.catalog as catalog_mod
        from lieschouten.catalog import CatalogError

        def boom():
            raise CatalogError("[matrix 3.9] cannot parse")

        monkeypatch.setattr(catalog_mod, "load_catalog", boom)
        code, _, err = run(capsys, "verify", "--only", "3.9")
        assert code == 3 and "catalog error" in err
