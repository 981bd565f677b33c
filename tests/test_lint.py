"""prismalint: every rule fires on its violating fixture, stays quiet on
the clean one, and the disable pragmas actually disable."""

from pathlib import Path

import pytest

from repro.lint import ALL_RULES, SourceFile, lint_paths
from repro.lint.cli import main
from repro.lint.framework import iter_python_files

FIXTURES = Path(__file__).parent / "lint_fixtures"

#: rule code -> (clean fixture, violating fixture, minimum violations)
CASES = {
    "PL001": ("pl001_clean.py", "pl001_violation.py", 3),
    "PL002": ("pl002_clean.py", "pl002_violation.py", 3),
    "PL003": ("pool/pl003_clean.py", "pool/pl003_violation.py", 3),
    "PL004": ("pool/pl004_clean.py", "pool/pl004_violation.py", 2),
    "PL005": ("pl005_clean.py", "pl005_violation.py", 2),
    "PL006": ("obs/pl006_clean.py", "obs/pl006_violation.py", 2),
    "PL101": ("exec/pl101_clean.py", "exec/pl101_violation.py", 6),
    "PL102": ("pl102_clean.py", "pl102_violation.py", 3),
}


def _rules(code):
    return [cls() for cls in ALL_RULES if cls.code == code]


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_fires_on_violating_fixture(code):
    clean, violating, minimum = CASES[code]
    violations, errors = lint_paths([FIXTURES / violating], _rules(code))
    assert not errors
    assert len(violations) >= minimum
    assert {v.code for v in violations} == {code}
    assert all(v.line > 0 for v in violations)
    assert all(str(FIXTURES / violating) == v.path for v in violations)


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_quiet_on_clean_fixture(code):
    clean, violating, _ = CASES[code]
    violations, errors = lint_paths([FIXTURES / clean], _rules(code))
    assert not errors
    assert violations == []


@pytest.mark.parametrize("code", sorted(CASES))
def test_cli_exit_codes_and_output(code, capsys):
    clean, violating, _ = CASES[code]
    assert main([str(FIXTURES / violating), "--select", code]) == 1
    out = capsys.readouterr().out
    assert code in out
    # every reported line carries file:line:col
    assert any(":" in line and code in line for line in out.splitlines())
    assert main([str(FIXTURES / clean), "--select", code]) == 0


def test_disable_pragmas_silence_violations():
    violations, errors = lint_paths(
        [FIXTURES / "disabled_violation.py"],
        [cls() for cls in ALL_RULES],
    )
    assert not errors
    assert violations == []


def test_fixture_dir_excluded_from_directory_walk():
    walked = list(iter_python_files([Path(__file__).parent]))
    assert not any("lint_fixtures" in p.parts for p in walked)


def test_repo_tree_is_clean():
    repo_root = Path(__file__).parent.parent
    rules = [cls() for cls in ALL_RULES]
    violations, errors = lint_paths(
        [repo_root / name for name in ("src", "benchmarks", "tests", "examples")],
        rules,
    )
    assert not errors
    assert violations == [], "\n".join(v.render() for v in violations)


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for cls in ALL_RULES:
        assert cls.code in out


def test_cli_rejects_unknown_rule(capsys):
    assert main(["--select", "PL999", str(FIXTURES / "pl001_clean.py")]) == 2


def test_json_output_is_parseable(capsys):
    import json

    assert main([str(FIXTURES / "pl001_violation.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"]
    assert all(v["code"] == "PL001" for v in payload["violations"])


def test_syntax_error_reported_not_crashed(tmp_path, capsys):
    bad = tmp_path / "broken.py"
    bad.write_text("def nope(:\n")
    assert main([str(bad)]) == 2
    assert "syntax error" in capsys.readouterr().out


def test_line_level_pragma_only_covers_its_line(tmp_path):
    src = tmp_path / "partial.py"
    src.write_text(
        "import time\n"
        "a = time.time()  # prismalint: disable=PL001 -- allowed here\n"
        "b = time.time()\n"
    )
    violations, _ = lint_paths([src], _rules("PL001"))
    assert [v.line for v in violations] == [3]


def test_sourcefile_records_file_and_line_disables(tmp_path):
    src = tmp_path / "pragmas.py"
    src.write_text(
        "# prismalint: disable=PL005\n"
        "x = 1  # prismalint: disable=PL001, PL002\n"
    )
    source = SourceFile.load(src)
    assert source.file_disables == {"PL005"}
    assert source.line_disables == {2: {"PL001", "PL002"}}
    assert source.is_disabled("PL005", 99)
    assert source.is_disabled("PL001", 2)
    assert not source.is_disabled("PL001", 3)


def test_file_level_pragma_covers_whole_file(tmp_path):
    src = tmp_path / "filewide.py"
    src.write_text(
        "# prismalint: disable=PL001 -- fixture exercises wall-clock calls\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.time()\n"
    )
    violations, _ = lint_paths([src], _rules("PL001"))
    assert violations == []


def test_disable_all_silences_every_rule(tmp_path):
    src = tmp_path / "allowlist.py"
    src.write_text(
        "# prismalint: disable=all -- generated file\n"
        "import time\n"
        "import random\n"
        "a = time.time()\n"
        "b = random.random()\n"
    )
    violations, errors = lint_paths([src], [cls() for cls in ALL_RULES])
    assert not errors
    assert violations == []


def test_pragma_with_multiple_codes_and_reason(tmp_path):
    src = tmp_path / "multi.py"
    src.write_text(
        "import time\n"
        "import random\n"
        "x = (time.time(), random.random())"
        "  # prismalint: disable=PL001, PL002 -- both justified here\n"
    )
    violations, _ = lint_paths([src], _rules("PL001") + _rules("PL002"))
    assert violations == []


def test_unknown_pragma_code_reported_as_pl000(tmp_path):
    src = tmp_path / "typo.py"
    # Concatenated so the repo-wide lint does not read this literal as a
    # real (typo'd) pragma on this line of the test file itself.
    src.write_text("x = 1  # prismalint: " + "disable=PL999 -- typo'd code\n")
    violations, errors = lint_paths([src], _rules("PL001"))
    assert not errors
    assert [(v.code, v.line) for v in violations] == [("PL000", 1)]
    assert "PL999" in violations[0].message


def test_pl000_itself_can_be_disabled(tmp_path):
    src = tmp_path / "meta.py"
    src.write_text(
        "x = 1  # prismalint: disable=PL999, PL000 -- transitional pragma\n"
    )
    violations, _ = lint_paths([src], _rules("PL001"))
    assert violations == []


def test_json_report_carries_counts(capsys):
    import json

    violating = str(FIXTURES / "pl001_violation.py")
    clean = str(FIXTURES / "pl001_clean.py")
    assert main([clean, "--select", "PL001", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []
    assert payload["counts"] == {}
    assert main([violating, "--select", "PL001", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"].get("PL001", 0) >= 3


def test_failing_summary_line_lists_per_rule_counts(capsys):
    assert main([str(FIXTURES / "pl001_violation.py"), "--select", "PL001"]) == 1
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("prismalint:")
    assert "PL001 x" in summary
