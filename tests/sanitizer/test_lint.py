"""The static lint gate, driven as CI drives it: ``python -m repro.staticcheck``.

These inputs are single files outside any package layout, with the
wall-clock read at module level, so they also pin that module-level
statements and bare-file arguments are analysed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.staticcheck.analyzer import analyze
from repro.staticcheck.baseline import Baseline
from repro.staticcheck.cli import main
from repro.staticcheck.config import load_staticcheck_config

REPO_ROOT = Path(__file__).resolve().parents[2]

PRAGMA = re.compile(r"#\s*repro-lint:\s*disable=")


def write_bad(tmp_path: Path) -> Path:
    (tmp_path / "repro").mkdir()
    bad = tmp_path / "repro" / "bad.py"
    bad.write_text("import time\ny = time.time()\n")
    return bad


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--no-baseline"]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        bad = write_bad(tmp_path)
        assert main([str(bad), "--no-baseline"]) == 1
        assert "SC001" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope"), "--no-baseline"]) == 2

    def test_json_report_shape(self, tmp_path, capsys):
        bad = write_bad(tmp_path)
        main([str(bad), "--no-baseline", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert len(report["findings"]) == 1
        finding = report["findings"][0]
        assert finding["rule"] == "SC001"
        assert finding["line"] == 2
        assert finding["symbol"].endswith(":<module>")
        assert not finding["suppressed"]
        assert report["gate"]["new"] == [finding["fingerprint"]]


class TestRepoIsClean:
    def test_src_tree_has_zero_unsuppressed_findings(self, monkeypatch):
        """Outside the committed SC006 debt, every finding is waived."""
        monkeypatch.chdir(REPO_ROOT)
        config = load_staticcheck_config(REPO_ROOT / "pyproject.toml")
        findings = analyze([Path("src/repro")], config)
        baseline = Baseline.load(REPO_ROOT / "staticcheck-baseline.json")
        assert baseline.delta(findings).new == []
        unsuppressed = [f for f in findings
                        if not f.suppressed and f.rule != "SC006"]
        assert unsuppressed == [], "\n".join(f.render() for f in unsuppressed)

    def test_every_suppression_is_justified(self):
        # Checks the pragma text itself, so a pragma that no longer
        # suppresses anything must still say why it is there.
        pragmas = 0
        for path in sorted((REPO_ROOT / "src").rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                match = PRAGMA.search(line)
                if match is None:
                    continue
                pragmas += 1
                _, sep, why = line[match.end():].partition("--")
                assert sep and why.strip(), f"{path}:{lineno}: {line.strip()}"
        assert pragmas, "expected the sanctioned SC001 waivers"
