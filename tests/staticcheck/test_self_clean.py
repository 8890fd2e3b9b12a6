"""The self-clean guarantee: src/repro passes its own verifier.

The committed baseline is exact-gated: the tree must produce exactly
the baselined findings — anything new fails, and any baseline entry
that stops firing fails too, so the accepted-debt list only shrinks.
"""

from __future__ import annotations

from pathlib import Path

from repro.staticcheck.analyzer import analyze
from repro.staticcheck.baseline import Baseline
from repro.staticcheck.cli import main
from repro.staticcheck.config import load_staticcheck_config

ROOT = Path(__file__).resolve().parents[2]


def test_tree_matches_committed_baseline_exactly(monkeypatch):
    monkeypatch.chdir(ROOT)
    config = load_staticcheck_config(ROOT / "pyproject.toml")
    findings = analyze([Path("src/repro")], config)
    baseline = Baseline.load(ROOT / "staticcheck-baseline.json")
    delta = baseline.delta(findings)
    assert delta.new == [], [f.render() for f in delta.new]
    assert delta.stale == [], delta.stale
    assert delta.matched == len(baseline.entries)


def test_cli_gate_exits_zero(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(["src/repro"]) == 0


def test_every_suppression_pragma_has_a_justification(monkeypatch):
    # Suppressed findings must carry the pragma's why-text; an SC pragma
    # without a justification does not suppress at all (project.py), so
    # every suppressed finding here proves the shared syntax works.
    monkeypatch.chdir(ROOT)
    config = load_staticcheck_config(ROOT / "pyproject.toml")
    findings = analyze([Path("src/repro")], config)
    suppressed = [f for f in findings if f.suppressed]
    assert suppressed, "expected the sanctioned SC001 waivers to appear"
    for finding in suppressed:
        assert finding.justification


def test_baseline_only_contains_design_debt():
    # Every baselined entry is the known osim-manages-its-own-memory
    # pattern; nothing else may hide in the accepted-debt list.
    baseline = Baseline.load(ROOT / "staticcheck-baseline.json")
    for entry in baseline.entries.values():
        assert entry["rule"] == "SC006"
        assert entry["path"] == "src/repro/osim/kernel.py"
