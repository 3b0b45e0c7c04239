"""Tests for the domain invariant linter (`repro.lint`).

Each rule gets a positive/negative fixture pair under
``tests/fixtures/lint/`` (linted by explicit path — the directory is
excluded from directory walks), plus the acceptance-level checks: the
shipped ``src/`` tree lints clean, suppressions must name their rule,
and RPR002 provably catches a config field that bypasses
``to_dict``/``digest``.
"""

import json
import os
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    META_RULE_ID,
    Finding,
    LintConfig,
    LintConfigError,
    Linter,
    all_rules,
    known_rule_ids,
    lint_paths,
)
from repro.lint.astutil import match_path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join("tests", "fixtures", "lint")

#: rule id -> (bad fixture, good fixture), relative to the repo root
FIXTURE_PAIRS = {
    "RPR001": (f"{FIXTURES}/rpr001_bad.py", f"{FIXTURES}/rpr001_good.py"),
    "RPR002": (f"{FIXTURES}/rpr002_bad.py", f"{FIXTURES}/rpr002_good.py"),
    "RPR003": (f"{FIXTURES}/rpr003_bad.py", f"{FIXTURES}/rpr003_good.py"),
    "RPR004": (f"{FIXTURES}/rpr004_bad/kernels/reference.py",
               f"{FIXTURES}/rpr004_good/kernels/reference.py"),
    "RPR005": (f"{FIXTURES}/rpr005_bad/explore/journal.py",
               f"{FIXTURES}/rpr005_good/explore/journal.py"),
    "RPR006": (f"{FIXTURES}/rpr006_bad.py", f"{FIXTURES}/rpr006_good.py"),
    "RPR007": (f"{FIXTURES}/rpr007_bad/repro/kernels/plans.py",
               f"{FIXTURES}/rpr007_good/repro/kernels/plans.py"),
}


def run_lint(paths, **kwargs):
    return lint_paths(paths, root=REPO_ROOT, **kwargs)


def rules_hit(result):
    return {f.rule for f in result.findings}


class TestRegistry:
    def test_builtin_rules_registered(self):
        rules = all_rules()
        assert sorted(rules) == ["RPR001", "RPR002", "RPR003",
                                 "RPR004", "RPR005", "RPR006", "RPR007"]
        for rule_id, rule in rules.items():
            assert rule.rule_id == rule_id
            assert rule.title
            assert rule.severity in ("error", "warning")

    def test_meta_rule_reserved(self):
        assert META_RULE_ID == "RPR000"
        assert META_RULE_ID in known_rule_ids()
        assert META_RULE_ID not in all_rules()


class TestFixturePairs:
    """One positive and one negative fixture per rule, exactly."""

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_PAIRS))
    def test_bad_fixture_triggers_rule(self, rule_id):
        bad, _ = FIXTURE_PAIRS[rule_id]
        result = run_lint([bad])
        errors = [f for f in result.findings
                  if f.rule == rule_id and f.severity == "error"]
        assert errors, f"{bad} should trigger {rule_id}"
        for finding in errors:
            assert finding.path == bad
            assert finding.line >= 1

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_PAIRS))
    def test_good_fixture_is_clean(self, rule_id):
        _, good = FIXTURE_PAIRS[rule_id]
        result = run_lint([good])
        assert rule_id not in rules_hit(result), \
            [f.render() for f in result.findings]

    def test_rpr001_counts(self):
        """Constructor, legacy numpy, stdlib random, call + reference."""
        bad, _ = FIXTURE_PAIRS["RPR001"]
        result = run_lint([bad], config=LintConfig(select=["RPR001"]))
        assert len(result.findings) == 5

    def test_rpr007_lines(self):
        """Same-tier, upward at module level, upward inside a function."""
        bad, _ = FIXTURE_PAIRS["RPR007"]
        result = run_lint([bad], config=LintConfig(select=["RPR007"]))
        assert [f.line for f in result.findings] == [3, 4, 8]

    def test_rpr006_split_schema_names_baseline(self):
        bad, _ = FIXTURE_PAIRS["RPR006"]
        result = run_lint([bad])
        split = [f for f in result.findings
                 if "one metric name, one label schema" in f.message]
        assert len(split) == 1
        assert bad in split[0].message  # points back at the baseline site


class TestShippedTreeIsClean:
    """Acceptance: `repro lint src/` exits 0 on the final tree."""

    def test_src_lints_clean(self):
        result = run_lint(["src"])
        assert result.findings == [], \
            [f.render() for f in result.findings]
        assert result.ok
        # the one reviewed suppression: the obs.span forwarding shim
        assert result.suppressed == 1
        assert len(result.checked_files) > 50

    def test_fixtures_excluded_from_directory_walks(self):
        result = run_lint(["tests"])
        assert not any(f.path.startswith(f"{FIXTURES}/")
                       for f in result.findings)
        assert not any(p.startswith(f"{FIXTURES}/")
                       for p in result.checked_files)

    def test_explicit_file_bypasses_exclude(self):
        bad, _ = FIXTURE_PAIRS["RPR001"]
        assert run_lint([bad]).findings  # excluded dir, explicit path


class TestLayering:
    """RPR007 on a synthetic ``repro`` tree: the root-module exemption
    and packages the order does not place (the fixture pair covers the
    import directions)."""

    def lint_tree(self, tmp_path, files):
        for rel, source in files.items():
            path = tmp_path / "repro" / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        result = lint_paths([str(tmp_path / "repro")], root=str(tmp_path),
                            config=LintConfig(select=["RPR007"]))
        return sorted((f.path, f.line) for f in result.findings)

    def test_root_modules_exempt(self, tmp_path):
        upward = "from repro.experiments import EXPERIMENTS\n"
        assert self.lint_tree(tmp_path, {
            "__init__.py": upward, "__main__.py": upward, "cli.py": upward,
        }) == []

    def test_package_outside_the_order(self, tmp_path):
        findings = self.lint_tree(tmp_path, {
            "mixed/neuron.py": "from repro.asm import ALPHA_1\n",
            "hardware/cost.py": "from repro.mixed import neuron\n",
        })
        assert findings == [("repro/hardware/cost.py", 1),
                            ("repro/mixed/neuron.py", 1)]


class TestCacheKeyOmission:
    """Acceptance: RPR002 catches a field invisible to to_dict/digest."""

    def test_synthetic_subclass_field_is_flagged(self, tmp_path):
        source = textwrap.dedent('''
            from dataclasses import dataclass

            from repro.pipeline.config import PipelineConfig


            @dataclass(frozen=True)
            class ExtendedConfig(PipelineConfig):
                novel_knob: int = 3
        ''')
        path = tmp_path / "extended.py"
        path.write_text(source)
        result = lint_paths([str(path)], root=str(tmp_path),
                            config=LintConfig())
        flagged = [f for f in result.findings if f.rule == "RPR002"]
        assert len(flagged) == 1
        assert "novel_knob" in flagged[0].message
        assert flagged[0].severity == "error"

    def test_subclass_with_overridden_to_dict_is_clean(self, tmp_path):
        source = textwrap.dedent('''
            from dataclasses import dataclass

            from repro.pipeline.config import PipelineConfig


            @dataclass(frozen=True)
            class ExtendedConfig(PipelineConfig):
                novel_knob: int = 3

                def to_dict(self):
                    data = super().to_dict()
                    data["novel_knob"] = self.novel_knob
                    return data
        ''')
        path = tmp_path / "extended.py"
        path.write_text(source)
        result = lint_paths([str(path)], root=str(tmp_path),
                            config=LintConfig())
        assert "RPR002" not in rules_hit(result)


class TestSuppressions:
    def test_scoped_noqa_suppresses(self):
        result = run_lint([f"{FIXTURES}/noqa_ok.py"])
        assert result.findings == []
        assert result.suppressed == 1

    def test_bare_and_unknown_noqa_are_findings(self):
        result = run_lint([f"{FIXTURES}/noqa_bad.py"])
        meta = [f for f in result.findings if f.rule == META_RULE_ID]
        assert len(meta) == 2
        assert "bare" in meta[0].message
        assert "RPR999" in meta[1].message
        # the malformed suppressions do NOT silence the violations
        assert len([f for f in result.findings
                    if f.rule == "RPR001"]) == 2
        assert result.suppressed == 0

    def test_noqa_in_strings_is_inert(self, tmp_path):
        path = tmp_path / "strings.py"
        path.write_text('MARKER = "# repro: noqa[RPR001]"\n')
        result = lint_paths([str(path)], root=str(tmp_path),
                            config=LintConfig())
        assert result.findings == []
        assert result.suppressed == 0

    def test_meta_rule_cannot_be_suppressed(self, tmp_path):
        path = tmp_path / "meta.py"
        path.write_text("x = (  # repro: noqa\n  1)\n")
        result = lint_paths([str(path)], root=str(tmp_path),
                            config=LintConfig())
        assert [f.rule for f in result.findings] == [META_RULE_ID]

    def test_parse_error_is_meta_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        result = lint_paths([str(path)], root=str(tmp_path),
                            config=LintConfig())
        assert [f.rule for f in result.findings] == [META_RULE_ID]
        assert not result.ok


class TestConfig:
    def test_from_dict_rule_tables(self):
        config = LintConfig.from_dict({
            "select": ["rpr001"],
            "exclude": ["generated/"],
            "RPR001": {"allow": ["a.py"], "severity": "warning"},
            "rpr004": {"carriers": ["real"]},
        })
        assert config.select == ["RPR001"]
        assert config.exclude == ["generated/"]
        assert config.options("RPR001", {"allow": []})["allow"] == ["a.py"]
        assert config.severity_override("RPR001") == "warning"
        assert config.options("RPR004", {"carriers": ["real", "scale"]}) \
            == {"carriers": ["real"]}

    def test_bad_shapes_rejected(self):
        with pytest.raises(LintConfigError, match="table"):
            LintConfig.from_dict({"RPR001": "nope"})
        with pytest.raises(LintConfigError, match="select"):
            LintConfig.from_dict({"select": "RPR001"})
        with pytest.raises(LintConfigError, match="exclude"):
            LintConfig.from_dict({"exclude": "generated/"})

    def test_pyproject_discovery_matches_defaults(self):
        """The checked-in table documents (and reproduces) the defaults:
        both configurations produce identical results on src/."""
        discovered = LintConfig.discover(root=REPO_ROOT)
        assert discovered.exclude == ["tests/fixtures/lint/"]
        with_table = Linter(config=discovered, root=REPO_ROOT).run(["src"])
        with_defaults = Linter(config=LintConfig(),
                               root=REPO_ROOT).run(["src"])
        assert with_table.findings == with_defaults.findings
        assert with_table.suppressed == with_defaults.suppressed

    def test_severity_override_downgrades(self):
        bad, _ = FIXTURE_PAIRS["RPR001"]
        config = LintConfig(rules={"RPR001": {"severity": "warning"}})
        result = run_lint([bad], config=config)
        rpr001 = [f for f in result.findings if f.rule == "RPR001"]
        assert rpr001 and all(f.severity == "warning" for f in rpr001)
        assert result.ok

    def test_enabled_false_drops_rule(self):
        bad, _ = FIXTURE_PAIRS["RPR001"]
        config = LintConfig(rules={"RPR001": {"enabled": False}})
        assert "RPR001" not in rules_hit(run_lint([bad], config=config))

    def test_select_unknown_rule_rejected(self):
        with pytest.raises(LintConfigError, match="RPR042"):
            Linter(config=LintConfig(select=["RPR042"]), root=REPO_ROOT)

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_lint(["no/such/path"])


class TestFindings:
    def test_render_and_to_dict(self):
        finding = Finding(path="a.py", line=3, col=4, rule="RPR001",
                          severity="error", message="boom")
        assert finding.render() == "a.py:3:4 RPR001 error: boom"
        assert finding.to_dict() == {"path": "a.py", "line": 3, "col": 4,
                                     "rule": "RPR001",
                                     "severity": "error",
                                     "message": "boom"}

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(path="a.py", line=1, col=0, rule="RPR001",
                    severity="fatal", message="boom")

    def test_findings_sort_by_location(self):
        bad, _ = FIXTURE_PAIRS["RPR001"]
        result = run_lint([bad])
        locations = [(f.path, f.line, f.col) for f in result.findings]
        assert locations == sorted(locations)


class TestMatchPath:
    def test_exact_prefix_and_glob(self):
        assert match_path("src/repro/kernels/reference.py",
                          ["*/kernels/reference.py"])
        assert match_path("tests/fixtures/lint/x.py",
                          ["tests/fixtures/lint/"])
        assert match_path("benchmarks/bench_kernels.py", ["benchmarks/"])
        assert not match_path("src/repro/kernels/fast.py",
                              ["*/kernels/reference.py"])


class TestCli:
    def lint(self, capsys, *argv):
        code = cli_main(["lint", "--root", REPO_ROOT, *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_clean_run_exits_zero(self, capsys):
        code, out, _ = self.lint(capsys, "src")
        assert code == 0
        assert "0 error(s)" in out and "1 suppressed" in out

    def test_findings_exit_one(self, capsys):
        bad, _ = FIXTURE_PAIRS["RPR001"]
        code, out, _ = self.lint(capsys, bad)
        assert code == 1
        assert "RPR001" in out

    def test_warn_only_exits_zero(self, capsys):
        bad, _ = FIXTURE_PAIRS["RPR001"]
        code, _, _ = self.lint(capsys, "--warn-only", bad)
        assert code == 0

    def test_json_payload(self, capsys):
        bad, _ = FIXTURE_PAIRS["RPR001"]
        code, out, _ = self.lint(capsys, "--json", "--select", "RPR001",
                                 bad)
        assert code == 1
        payload = json.loads(out)
        assert payload["format"] == "repro-lint/1"
        assert payload["files"] == 1
        assert payload["errors"] == 5
        assert payload["warnings"] == 0
        assert payload["suppressed"] == 0
        for row in payload["findings"]:
            assert set(row) == {"path", "line", "col", "rule",
                                "severity", "message"}
            assert row["rule"] == "RPR001"

    def test_select_narrows_rules(self, capsys):
        bad, _ = FIXTURE_PAIRS["RPR005"]  # trips RPR001 and RPR005
        code, out, _ = self.lint(capsys, "--json", "--select", "RPR005",
                                 bad)
        payload = json.loads(out)
        assert {row["rule"] for row in payload["findings"]} == {"RPR005"}

    def test_unknown_select_exits_two(self, capsys):
        code, _, err = self.lint(capsys, "--select", "RPR042", "src")
        assert code == 2
        assert "RPR042" in err

    def test_missing_path_exits_two(self, capsys):
        code, _, err = self.lint(capsys, "no/such/path")
        assert code == 2
        assert "no/such/path" in err

    def test_rules_listing(self, capsys):
        code, out, _ = self.lint(capsys, "--rules")
        assert code == 0
        for rule_id, rule in all_rules().items():
            assert rule_id in out
            assert rule.title in out
