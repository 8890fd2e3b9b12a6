"""Mutation tests: inject real violations into the live tree.

Each mutation overlays a violation onto ``src/repro`` (no files are
touched on disk) and asserts the analyzer catches it with the correct
call chain.  A final end-to-end case copies the repo into a tmp dir,
mutates it for real, and checks the CLI exit codes flip 0 -> 1.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.staticcheck.analyzer import analyze
from repro.staticcheck.cli import main
from repro.staticcheck.config import load_staticcheck_config

ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = ROOT / "src" / "repro"


def repo_config():
    """The repo's own [tool.repro-staticcheck] settings."""
    return load_staticcheck_config(ROOT / "pyproject.toml")


def run_with_overlay(overlay: dict[str, str]):
    """Analyze the real tree with injected sources."""
    return analyze([SRC_REPRO], repo_config(), overlay)


class TestInjectedViolations:
    def test_wall_clock_in_hw_is_caught_with_chain(self):
        target = SRC_REPRO / "hw" / "cycles.py"
        mutated = target.read_text() + (
            '\n\ndef _mutated_probe(counter):\n'
            '    """Mutation fixture: wall clock feeding a charge."""\n'
            '    import time\n'
            '    counter.charge(time.time(), "mutation")\n'
            '    return 0\n')
        found = run_with_overlay({target.as_posix(): mutated})
        hits = [f for f in found
                if f.rule == "SC001" and not f.suppressed
                and f.symbol.endswith(":_mutated_probe")]
        assert len(hits) == 1
        assert hits[0].sink == "time.time"
        assert hits[0].chain[-1] == "time.time"
        assert hits[0].chain[0] == "repro.hw.cycles:_mutated_probe"

    def test_uncharged_monitor_entry_is_caught(self):
        target = SRC_REPRO / "monitor" / "rustmonitor.py"
        source = target.read_text()
        anchor = "    def demote_primary_os(self"
        assert anchor in source
        mutated = source.replace(anchor, (
            '    def mutated_entry(self):\n'
            '        """Mutation fixture: entry point with no charge."""\n'
            '        return self.os_demoted\n\n' + anchor))
        found = run_with_overlay({target.as_posix(): mutated})
        hits = [f for f in found
                if f.rule == "SC003" and not f.suppressed]
        assert [f.symbol for f in hits] == \
            ["repro.monitor.rustmonitor:RustMonitor.mutated_entry"]
        assert hits[0].chain == [hits[0].symbol]

    def test_unmarshalled_taint_flow_is_caught(self):
        leak = (SRC_REPRO / "apps" / "mutated_leak.py").as_posix()
        found = run_with_overlay({leak: (
            '"""Mutation fixture: app writes phys memory directly."""\n\n\n'
            'def leak(machine, data):\n'
            '    """Bypass the marshalling barrier."""\n'
            '    machine.phys.write(4096, data)\n'
            '    return None\n')})
        hits = [f for f in found
                if f.rule == "SC006" and not f.suppressed
                and f.path == leak]
        assert len(hits) == 1
        assert hits[0].sink == "repro.hw.phys:PhysicalMemory.write"
        assert hits[0].chain == ["repro.apps.mutated_leak:leak",
                                 "repro.hw.phys:PhysicalMemory.write"]

    def test_wall_clock_trace_id_in_tracer_is_caught(self):
        """The request tracer is an SC001 root: a trace id derived from
        the wall clock (instead of the per-vCPU counter) must be a new
        finding, with no pragma able to hide behind the package."""
        target = SRC_REPRO / "telemetry" / "requests.py"
        mutated = target.read_text() + (
            '\n\ndef _mutated_request_id(tracer):\n'
            '    """Mutation fixture: wall-clock trace id."""\n'
            '    import time\n'
            '    return f"{tracer.label}/{time.time()}"\n')
        found = run_with_overlay({target.as_posix(): mutated})
        hits = [f for f in found
                if f.rule == "SC001" and not f.suppressed
                and f.symbol.endswith(":_mutated_request_id")]
        assert len(hits) == 1
        assert hits[0].sink == "time.time"
        assert hits[0].chain[0] == \
            "repro.telemetry.requests:_mutated_request_id"

    def test_random_tie_break_in_critpath_is_caught(self):
        """The critical-path analyzer promises bit-identical reports,
        so it is a root too: an unseeded-random tie-break is SC001."""
        target = SRC_REPRO / "analysis" / "critpath.py"
        mutated = target.read_text() + (
            '\n\ndef _mutated_tie_break(children):\n'
            '    """Mutation fixture: random critical-path tie-break."""\n'
            '    import random\n'
            '    return random.choice(children)\n')
        found = run_with_overlay({target.as_posix(): mutated})
        hits = [f for f in found
                if f.rule == "SC001" and not f.suppressed
                and f.symbol.endswith(":_mutated_tie_break")]
        assert len(hits) == 1
        assert hits[0].sink == "random.choice"

    def test_unmutated_tree_has_no_such_findings(self):
        found = analyze([SRC_REPRO], repo_config())
        assert not any("mutated" in f.symbol for f in found)


#: Per-file checks the whole-program rules now cover: id -> (file under
#: src/repro, text appended to it, the one expected rule).
APPENDED = {
    "unseeded_random_in_apps": ("apps/ycsb.py", (
        '\n\ndef _mutated_pick():\n'
        '    """Mutation fixture: unseeded draw in an app."""\n'
        '    return random.random()\n'), "SC001"),
    "module_level_clock_in_hw": ("hw/cycles.py", (
        '\n\nimport time\n'
        '_MUTATED_T0 = time.time()\n'), "SC001"),
    "direct_phys_read_in_urts": ("sdk/urts.py", (
        '\n\ndef _mutated_peek(self, pa):\n'
        '    """Mutation fixture: barrier module reading phys directly."""\n'
        '    return self.machine.phys.read(pa, 8)\n'), "SC006"),
    "unclosed_span_in_swap": ("monitor/swap.py", (
        '\n\ndef _mutated_trace(tel):\n'
        '    """Mutation fixture: span never closed."""\n'
        '    span = tel.span("swap")\n'
        '    span.annotate(1)\n'), "SC007"),
    "bare_except_in_tlb": ("hw/tlb.py", (
        '\n\ndef _mutated_swallow(fn):\n'
        '    """Mutation fixture: bare except in a trusted layer."""\n'
        '    try:\n'
        '        return fn()\n'
        '    except:\n'
        '        return None\n'), "SC008"),
}


def _site(finding):
    return (finding.rule, finding.path, finding.line, finding.symbol,
            finding.sink, finding.suppressed)


@pytest.fixture(scope="module")
def unmutated_sites():
    """Every finding site on the live tree, before any mutation."""
    return {_site(f) for f in analyze([SRC_REPRO], repo_config())}


class TestAppendedViolations:
    @pytest.mark.parametrize("case", APPENDED)
    def test_caught_as_exactly_one_new_finding(self, unmutated_sites, case):
        rel, text, rule = APPENDED[case]
        target = SRC_REPRO / rel
        found = run_with_overlay(
            {target.as_posix(): target.read_text() + text})
        new = [f for f in found if _site(f) not in unmutated_sites]
        assert [(f.rule, f.path, f.suppressed) for f in new] == \
            [(rule, target.as_posix(), False)]


class TestEndToEndExitCodes:
    def test_cli_flips_zero_to_one_on_mutation(self, tmp_path,
                                               monkeypatch, capsys):
        shutil.copytree(SRC_REPRO, tmp_path / "src" / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
        shutil.copy(ROOT / "staticcheck-baseline.json",
                    tmp_path / "staticcheck-baseline.json")
        monkeypatch.chdir(tmp_path)

        assert main(["src/repro"]) == 0

        cycles = tmp_path / "src" / "repro" / "hw" / "cycles.py"
        cycles.write_text(cycles.read_text() + (
            '\n\ndef _mutated_probe(counter):\n'
            '    """Mutation fixture."""\n'
            '    import time\n'
            '    counter.charge(time.time(), "mutation")\n'
            '    return 0\n'))
        capsys.readouterr()
        assert main(["src/repro"]) == 1
        out = capsys.readouterr().out
        assert "_mutated_probe" in out
        assert "time.time" in out
