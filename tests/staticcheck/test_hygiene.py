"""SC007/SC008: unclosed spans and bare excepts in trusted layers."""

from __future__ import annotations

import pytest

from repro.staticcheck.config import StaticcheckConfig

UNCLOSED_SPAN = '''
    def leak(tel):
        span = tel.span("oops")
        span.annotate(1)
    '''

BARE_EXCEPT = '''
    def swallow():
        try:
            risky()
        except:
            pass
    '''

#: Positive inputs: id -> (files, the one expected rule).
FLAGGED = {
    "unclosed_span": ({"hw/fake.py": UNCLOSED_SPAN}, "SC007"),
    "unclosed_span_in_apps": ({"apps/fake.py": UNCLOSED_SPAN}, "SC007"),
    "module_level_span": ({"monitor/fake.py": '''
        from repro.telemetry import tel
        SPAN = tel.span("import-time")
        '''}, "SC007"),
    "bare_except_in_monitor": ({"monitor/fake.py": BARE_EXCEPT}, "SC008"),
    "bare_except_in_hw": ({"hw/fake.py": BARE_EXCEPT}, "SC008"),
}


class TestPositives:
    @pytest.mark.parametrize("case", FLAGGED)
    def test_flagged(self, run_passes, case):
        files, rule = FLAGGED[case]
        found = run_passes(files)
        assert [(f.rule, f.suppressed) for f in found] == [(rule, False)]

    @pytest.mark.parametrize("case", FLAGGED)
    def test_silent_when_disabled(self, run_passes, case):
        # The twin of test_flagged: nothing but the case's rule sees the
        # input, so that test proves the rule ran.
        files, rule = FLAGGED[case]
        assert run_passes(files, StaticcheckConfig(disable=(rule,))) == []

    def test_pragma_waives_with_justification(self, run_passes):
        found = run_passes({"hw/fake.py": '''
            def handoff(tel):
                # repro-lint: disable=SC007 -- closed by the caller's finally
                span = tel.span("manual")
                return span.name
            '''})
        assert [(f.rule, f.justification) for f in found] == \
            [("SC007", "closed by the caller's finally")]


class TestSC007:
    def test_unclosed_span_flagged(self, run_passes):
        found = run_passes({"hw/fake.py": UNCLOSED_SPAN})
        assert [(f.rule, f.line, f.sink) for f in found] == \
            [("SC007", 3, "tel.span")]
        assert "with-statement" in found[0].message

    def test_with_statement_allowed(self, run_passes):
        assert run_passes({"hw/fake.py": '''
            def fine(tel):
                with tel.span("ok"):
                    pass
            '''}) == []

    def test_returned_span_allowed(self, run_passes):
        assert run_passes({"hw/fake.py": '''
            def handoff(tel):
                return tel.span("callers-problem")
            '''}) == []


class TestSC008:
    def test_bare_except_in_monitor_flagged(self, run_passes):
        found = run_passes({"monitor/fake.py": BARE_EXCEPT})
        assert [(f.rule, f.line) for f in found] == [("SC008", 5)]
        assert "SecurityViolation" in found[0].message

    def test_untrusted_layer_exempt(self, run_passes):
        assert run_passes({"apps/fake.py": BARE_EXCEPT}) == []

    def test_typed_except_allowed(self, run_passes):
        assert run_passes({"monitor/fake.py": '''
            def careful():
                try:
                    risky()
                except KeyError:
                    pass
            '''}) == []
