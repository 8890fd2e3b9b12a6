"""repro-lint: rule checks, suppression semantics, CLI exit codes."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.sanitizer.lint import lint_paths, main
from repro.sanitizer.lintconfig import LintConfig, load_config
from repro.sanitizer.rules import lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]


def findings_for(source: str, path: str, config: LintConfig | None = None):
    """Lint a source snippet as if it lived at ``path``."""
    return lint_source(textwrap.dedent(source), Path(path),
                       config or LintConfig())


class TestR001:
    def test_wall_clock_flagged(self):
        found = findings_for("""
            import time
            def charge():
                return time.perf_counter()
            """, "src/repro/hw/fake.py")
        assert [f.rule for f in found] == ["R001"]
        assert "wall-clock" in found[0].message

    def test_global_random_flagged(self):
        found = findings_for("""
            import random
            def pick():
                return random.randrange(10)
            """, "src/repro/apps/fake.py")
        assert [f.rule for f in found] == ["R001"]

    def test_seeded_rng_allowed(self):
        found = findings_for("""
            import random
            def pick(seed):
                return random.Random(seed).randrange(10)
            """, "src/repro/apps/fake.py")
        assert found == []

    def test_unseeded_rng_flagged(self):
        found = findings_for("""
            import random
            def pick():
                return random.Random()
            """, "src/repro/apps/fake.py")
        assert [f.rule for f in found] == ["R001"]

    def test_config_exclude(self):
        config = LintConfig(rule_excludes={
            "R001": ("repro/telemetry/",)})
        found = findings_for("""
            import time
            def now():
                return time.time()
            """, "src/repro/telemetry/fake.py", config)
        assert found == []


class TestR002:
    SOURCE = """
        def leak(self, pa):
            return self.machine.phys.read(pa, 8)
        """

    def test_untrusted_layer_flagged(self):
        found = findings_for(self.SOURCE, "src/repro/osim/fake.py")
        assert [f.rule for f in found] == ["R002"]
        assert "memaccess" in found[0].message

    def test_hw_layer_exempt(self):
        assert findings_for(self.SOURCE, "src/repro/hw/fake.py") == []


class TestR004:
    def test_unclosed_span_flagged(self):
        found = findings_for("""
            def leak(tel):
                span = tel.span("oops")
                span.annotate(1)
            """, "src/repro/hw/fake.py")
        assert [f.rule for f in found] == ["R004"]

    def test_with_statement_allowed(self):
        found = findings_for("""
            def fine(tel):
                with tel.span("ok"):
                    pass
            """, "src/repro/hw/fake.py")
        assert found == []

    def test_returned_span_allowed(self):
        found = findings_for("""
            def handoff(tel):
                return tel.span("callers-problem")
            """, "src/repro/hw/fake.py")
        assert found == []


class TestR005:
    SOURCE = """
        def swallow():
            try:
                risky()
            except:
                pass
        """

    def test_bare_except_in_monitor_flagged(self):
        found = findings_for(self.SOURCE, "src/repro/monitor/fake.py")
        assert [f.rule for f in found] == ["R005"]

    def test_untrusted_layer_exempt(self):
        assert findings_for(self.SOURCE, "src/repro/apps/fake.py") == []


class TestSuppression:
    def test_justified_suppression(self):
        found = findings_for("""
            import time
            def now():
                return time.time()  # repro-lint: disable=R001 -- host-side only
            """, "src/repro/hw/fake.py")
        assert len(found) == 1
        assert found[0].suppressed
        assert found[0].justification == "host-side only"

    def test_directive_without_justification_does_not_suppress(self):
        found = findings_for("""
            import time
            def now():
                return time.time()  # repro-lint: disable=R001
            """, "src/repro/hw/fake.py")
        assert len(found) == 1
        assert not found[0].suppressed

    def test_comment_block_above_covers_next_code_line(self):
        found = findings_for("""
            import time
            # repro-lint: disable=R001 -- profiling shim, never cycle-charged
            # (continued rationale on a second comment line)
            def now():
                return 1

            def charged():
                return time.time()
            """, "src/repro/hw/fake.py")
        # The directive covers only its block and first code line, so the
        # later time.time() call is still reported.
        assert [f.suppressed for f in found] == [False]

    def test_inline_directive_covers_only_its_own_line(self):
        found = findings_for("""
            import time
            def pair():
                a = time.time()  # repro-lint: disable=R001 -- host-side only
                b = time.time()
                return a, b
            """, "src/repro/hw/fake.py")
        # An end-of-line directive must not bleed onto the next line.
        assert [f.suppressed for f in found] == [True, False]


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "repro").mkdir()
        bad = tmp_path / "repro" / "bad.py"
        bad.write_text("import time\ny = time.time()\n")
        assert main([str(bad)]) == 1
        assert "R001" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_exit_two_on_no_args(self, capsys):
        assert main([]) == 2

    def test_exit_two_on_bad_config(self, tmp_path, capsys):
        (tmp_path / "x.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--config",
                     str(tmp_path / "missing.toml")]) == 2

    def test_exit_two_on_syntax_error(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def (:\n")
        assert main([str(tmp_path)]) == 2

    def test_json_report_shape(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\ny = time.time()\n")
        main([str(bad), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["findings"] == 1
        finding = report["findings"][0]
        assert finding["rule"] == "R001"
        assert finding["line"] == 2
        assert not finding["suppressed"]

    def test_config_disable(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\ny = time.time()\n")
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.repro-lint]\ndisable = ["R001"]\n')
        assert main([str(bad), "--config", str(pyproject)]) == 0


class TestRepoIsClean:
    def test_src_tree_has_zero_unsuppressed_findings(self):
        """The acceptance gate CI enforces, as a unit test."""
        config = load_config(REPO_ROOT / "pyproject.toml")
        findings = lint_paths([REPO_ROOT / "src"], config)
        unsuppressed = [f for f in findings if not f.suppressed]
        assert unsuppressed == [], "\n".join(f.render() for f in unsuppressed)

    def test_every_suppression_is_justified(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        findings = lint_paths([REPO_ROOT / "src"], config)
        for finding in findings:
            if finding.suppressed:
                assert finding.justification
