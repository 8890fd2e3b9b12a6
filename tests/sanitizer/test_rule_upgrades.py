"""Rule upgrades: R001 alias tracking, new clocks, shared SC pragmas."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.sanitizer.lintconfig import LintConfig
from repro.sanitizer.rules import lint_source, parse_suppressions


def findings_for(source: str, path: str,
                 config: LintConfig | None = None):
    """Lint a source snippet as if it lived at ``path``."""
    return lint_source(textwrap.dedent(source), Path(path),
                       config or LintConfig())


class TestR001Gaps:
    def test_clock_gettime_flagged(self):
        found = findings_for("""
            import time
            def charge():
                return time.clock_gettime(0)
            """, "src/repro/hw/fake.py")
        assert [f.rule for f in found] == ["R001"]

    def test_clock_gettime_ns_flagged(self):
        found = findings_for("""
            import time
            def charge():
                return time.clock_gettime_ns(0)
            """, "src/repro/hw/fake.py")
        assert [f.rule for f in found] == ["R001"]

    def test_module_alias_flagged(self):
        found = findings_for("""
            import time as tm
            def charge():
                return tm.time()
            """, "src/repro/hw/fake.py")
        assert [f.rule for f in found] == ["R001"]

    def test_from_import_alias_flagged(self):
        found = findings_for("""
            from time import time as t
            def charge():
                return t()
            """, "src/repro/hw/fake.py")
        assert [f.rule for f in found] == ["R001"]

    def test_aliased_random_flagged(self):
        found = findings_for("""
            from random import randint as ri
            def pick():
                return ri(0, 9)
            """, "src/repro/hw/fake.py")
        assert [f.rule for f in found] == ["R001"]

    def test_unrelated_alias_not_flagged(self):
        found = findings_for("""
            from math import sin as time
            def charge():
                return time(0.5)
            """, "src/repro/hw/fake.py")
        assert found == []


class TestSharedScPragmas:
    def test_sc_directive_parsed(self):
        sup = parse_suppressions(
            "x = 1  # repro-lint: disable=SC001 -- sanctioned knob\n")
        assert sup.lookup(1, "SC001") == "sanctioned knob"

    def test_mixed_r_and_sc_rules(self):
        sup = parse_suppressions(
            "# repro-lint: disable=R001, SC001 -- both waived\n"
            "x = read_clock()\n")
        assert sup.lookup(2, "R001") == "both waived"
        assert sup.lookup(2, "SC001") == "both waived"

    def test_sc_directive_without_justification_ignored(self):
        sup = parse_suppressions(
            "x = 1  # repro-lint: disable=SC001\n")
        assert sup.lookup(1, "SC001") is None
