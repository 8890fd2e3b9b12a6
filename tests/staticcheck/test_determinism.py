"""SC001/SC002: the determinism pass over fixture corpora."""

from __future__ import annotations

import pytest

from repro.staticcheck.config import StaticcheckConfig


def by_rule(findings, rule):
    """Unsuppressed findings for one rule."""
    return [f for f in findings if f.rule == rule and not f.suppressed]


def one_call(call, imports="import time", path="hw/fake.py"):
    """A one-file tree whose single function returns ``call``."""
    return {path: f'''
        """Fixture."""
        {imports}

        def probe(seed):
            """Probe."""
            return {call}
        '''}


#: Single-source inputs: id -> (files, the one expected SC001 sink).
FLAGGED = {
    "wall_clock": (one_call("time.perf_counter()"), "time.perf_counter"),
    "clock_gettime": (one_call("time.clock_gettime(0)"),
                      "time.clock_gettime"),
    "clock_gettime_ns": (one_call("time.clock_gettime_ns(0)"),
                         "time.clock_gettime_ns"),
    "module_alias": (one_call("tm.time()", "import time as tm"),
                     "time.time"),
    "from_import_alias": (one_call("t()", "from time import time as t"),
                          "time.time"),
    "aliased_random": (one_call("ri(0, 9)",
                                "from random import randint as ri"),
                       "random.randint"),
    "global_random": (one_call("random.randrange(10)", "import random",
                               "apps/fake.py"), "random.randrange"),
    "unseeded_rng": (one_call("random.Random()", "import random",
                              "apps/fake.py"), "random.Random"),
    "sdk": (one_call("time.time()", path="sdk/fake.py"), "time.time"),
    "libos": (one_call("time.time()", path="libos/fake.py"), "time.time"),
    "crypto": (one_call("time.time()", path="crypto/fake.py"),
               "time.time"),
    "platform": (one_call("time.time()", path="platform.py"), "time.time"),
    "module_level": ({"hw/fake.py": '''
        """Fixture."""
        import time

        _T0 = time.time()
        '''}, "time.time"),
}

#: Inputs that must stay clean: id -> (files, config).
CLEAN = {
    "seeded_rng": (one_call("random.Random(seed).randrange(10)",
                            "import random", "apps/fake.py"), None),
    "unrelated_alias": (one_call("time(0.5)", "from math import sin as time"),
                        None),
    "config_exclude": (one_call("time.time()", path="telemetry/fake.py"),
                       StaticcheckConfig(
                           determinism_exclude=("repro/telemetry/",))),
}


class TestSC001:
    @pytest.mark.parametrize("case", FLAGGED)
    def test_single_source_flagged(self, run_passes, case):
        files, sink = FLAGGED[case]
        found = run_passes(files)
        assert [(f.rule, f.sink, f.suppressed) for f in found] == \
            [("SC001", sink, False)]
        assert "must be a pure function" in found[0].message

    @pytest.mark.parametrize("case", FLAGGED)
    def test_single_source_silent_when_disabled(self, run_passes, case):
        # The twin of test_single_source_flagged: nothing but SC001 sees
        # the input, so that test proves SC001 ran.
        files, _ = FLAGGED[case]
        assert run_passes(files, StaticcheckConfig(disable=("SC001",))) == []

    @pytest.mark.parametrize("case", CLEAN)
    def test_clean_source_not_flagged(self, run_passes, case):
        files, config = CLEAN[case]
        assert run_passes(files, config) == []

    def test_module_level_call_is_a_module_body_finding(self, run_passes):
        found = run_passes(FLAGGED["module_level"][0])
        assert [(f.symbol, f.line) for f in found] == \
            [("repro.hw.fake:<module>", 5)]

    def test_direct_wall_clock_in_hw(self, run_passes):
        found = run_passes({"hw/engine.py": '''
            """Fixture."""
            import time

            def step(n):
                """Step."""
                return time.time() + n
            '''})
        hits = by_rule(found, "SC001")
        assert len(hits) == 1
        assert hits[0].sink == "time.time"
        assert hits[0].chain[-1] == "time.time"
        assert "wall clock" in hits[0].message

    def test_interprocedural_chain_across_modules(self, run_passes):
        found = run_passes({
            "hw/engine.py": '''
                """Fixture."""
                from repro.support.clocks import now

                def step(n):
                    """Step."""
                    return now() + n
                ''',
            "support/clocks.py": '''
                """Fixture."""
                import time

                def now():
                    """Now."""
                    return time.time()
                ''',
        })
        hits = by_rule(found, "SC001")
        assert len(hits) == 1
        assert hits[0].chain == ["repro.hw.engine:step",
                                 "repro.support.clocks:now", "time.time"]
        assert hits[0].path.endswith("support/clocks.py")

    def test_renamed_import_still_caught(self, run_passes):
        found = run_passes({"hw/engine.py": '''
            """Fixture."""
            from time import perf_counter as pc

            def step():
                """Step."""
                return pc()
            '''})
        assert [f.sink for f in by_rule(found, "SC001")] == \
            ["time.perf_counter"]

    def test_local_alias_still_caught(self, run_passes):
        found = run_passes({"monitor/mod.py": '''
            """Fixture."""
            import time

            def step():
                """Step."""
                t = time.clock_gettime_ns
                return t(0)
            '''})
        assert [f.sink for f in by_rule(found, "SC001")] == \
            ["time.clock_gettime_ns"]

    def test_environ_and_id_flagged(self, run_passes):
        found = run_passes({"osim/mod.py": '''
            """Fixture."""
            import os

            def step(obj):
                """Step."""
                return os.environ.get("X"), id(obj)
            '''})
        sinks = sorted(f.sink for f in by_rule(found, "SC001"))
        assert sinks == ["builtins.id", "os.environ.get"]

    def test_seeded_random_allowed_unseeded_flagged(self, run_passes):
        found = run_passes({"hw/rng.py": '''
            """Fixture."""
            import random

            def good(seed):
                """Good."""
                return random.Random(seed).random()

            def bad():
                """Bad."""
                return random.random()
            '''})
        hits = by_rule(found, "SC001")
        assert [f.symbol for f in hits] == ["repro.hw.rng:bad"]

    def test_sanctioned_clock_not_flagged(self, run_passes):
        found = run_passes({
            "hw/engine.py": '''
                """Fixture."""
                from repro.profiler.wall import host_clock_ns

                def step():
                    """Step."""
                    return host_clock_ns()
                ''',
            "profiler/wall.py": '''
                """Fixture."""
                import time

                def host_clock_ns():
                    """Sanctioned."""
                    return time.perf_counter_ns()
                ''',
        })
        assert by_rule(found, "SC001") == []

    def test_excluded_observer_layer_not_flagged(self, run_passes):
        found = run_passes({
            "hw/engine.py": '''
                """Fixture."""
                from repro.telemetry.export import stamp

                def step():
                    """Step."""
                    return stamp()
                ''',
            "telemetry/export.py": '''
                """Fixture."""
                import time

                def stamp():
                    """Host-side export timestamp."""
                    return time.time()
                ''',
        })
        assert by_rule(found, "SC001") == []

    def test_every_layer_is_a_root(self, run_passes):
        # Roots are every function outside determinism-exclude: a wall
        # clock in apps/ is flagged although no charged code calls it.
        found = run_passes({"apps/tool.py": '''
            """Fixture."""
            import time

            def stamp():
                """Stamp."""
                return time.time()
            '''})
        assert [f.symbol for f in by_rule(found, "SC001")] == \
            ["repro.apps.tool:stamp"]

    def test_pragma_suppresses_with_justification(self, run_passes):
        found = run_passes({"hw/engine.py": '''
            """Fixture."""
            import time

            def step():
                """Step."""
                # repro-lint: disable=SC001 -- fixture waiver
                return time.time()
            '''})
        hits = [f for f in found if f.rule == "SC001"]
        assert len(hits) == 1
        assert hits[0].suppressed
        assert hits[0].justification == "fixture waiver"

    def test_timeline_sampler_is_a_root_despite_telemetry_exclude(
            self, run_passes):
        # Mirrors the repository's pyproject: the timeline sampler runs
        # on the charged path (CycleCounter.charge calls it), so
        # determinism-exclude lists telemetry's host-side files one by
        # one and repro/telemetry/timeline.py stays a root.
        config = StaticcheckConfig(
            determinism_exclude=("repro/telemetry/core.py",
                                 "repro/telemetry/export.py",
                                 "repro/profiler/wall.py"))
        files = {
            "telemetry/timeline.py": '''
                """Fixture."""
                import time

                def on_charge(total):
                    """A sampler that cheats with host time."""
                    return time.monotonic() + total
                ''',
            "telemetry/export.py": '''
                """Fixture."""
                import time

                def stamp():
                    """Host-side export timestamp: legitimately excluded."""
                    return time.time()
                ''',
        }
        hits = by_rule(run_passes(files, config), "SC001")
        assert [f.sink for f in hits] == ["time.monotonic"]
        assert hits[0].symbol == "repro.telemetry.timeline:on_charge"
        assert "wall clock" in hits[0].message

    def test_disable_rule_via_config(self, run_passes):
        found = run_passes({"hw/engine.py": '''
            """Fixture."""
            import time

            def step():
                """Step."""
                return time.time()
            '''}, StaticcheckConfig(disable=("SC001",)))
        assert by_rule(found, "SC001") == []


class TestSuppression:
    def test_justified_suppression(self, run_passes):
        found = run_passes(one_call(
            "time.time()  # repro-lint: disable=SC001 -- host-side only"))
        assert [(f.suppressed, f.justification) for f in found] == \
            [(True, "host-side only")]

    def test_directive_without_justification_does_not_suppress(
            self, run_passes):
        found = run_passes(one_call(
            "time.time()  # repro-lint: disable=SC001"))
        assert [f.suppressed for f in found] == [False]

    def test_comment_block_above_covers_next_code_line(self, run_passes):
        found = run_passes({"hw/fake.py": '''
            import time
            # repro-lint: disable=SC001 -- profiling shim, never charged
            # (continued rationale on a second comment line)
            def now():
                return 1

            def charged():
                return time.time()
            '''})
        # The directive covers only its block and first code line, so the
        # later time.time() call is still reported.
        assert [f.suppressed for f in found] == [False]

    def test_inline_directive_covers_only_its_own_line(self, run_passes):
        found = run_passes({"hw/fake.py": '''
            import time
            def pair():
                a = time.time()  # repro-lint: disable=SC001 -- host-side only
                b = time.time()
                return a, b
            '''})
        # An end-of-line directive must not bleed onto the next line, and
        # the waived call must not hide the second one.
        assert [(f.line, f.suppressed) for f in found] == \
            [(4, True), (5, False)]

    def test_sc_directive_parsed(self, run_passes):
        found = run_passes({"hw/fake.py": '''
            import time
            x = time.time()  # repro-lint: disable=SC001 -- sanctioned knob
            '''})
        assert [(f.symbol, f.justification) for f in found] == \
            [("repro.hw.fake:<module>", "sanctioned knob")]

    def test_sc_directive_without_justification_ignored(self, run_passes):
        found = run_passes({"hw/fake.py": '''
            import time
            x = time.time()  # repro-lint: disable=SC001
            '''})
        assert [f.suppressed for f in found] == [False]

    def test_retired_r_codes_do_not_suppress(self, run_passes):
        found = run_passes(one_call(
            "time.time()  # repro-lint: disable=R001 -- old code"))
        assert [f.suppressed for f in found] == [False]


class TestSC002:
    def test_set_loop_feeding_charge(self, run_passes):
        found = run_passes({"hw/epc.py": '''
            """Fixture."""

            def sweep(counter, frames):
                """Sweep."""
                live = set(frames)
                for frame in live:
                    counter.charge(frame, 'epc')
                return 0
            '''})
        hits = by_rule(found, "SC002")
        assert len(hits) == 1
        assert "live" in hits[0].sink

    def test_sorted_set_loop_allowed(self, run_passes):
        found = run_passes({"hw/epc.py": '''
            """Fixture."""

            def sweep(counter, frames):
                """Sweep."""
                live = set(frames)
                for frame in sorted(live):
                    counter.charge(frame, 'epc')
                return 0
            '''})
        assert by_rule(found, "SC002") == []

    def test_set_loop_without_charges_allowed(self, run_passes):
        found = run_passes({"hw/epc.py": '''
            """Fixture."""

            def count(frames):
                """Count."""
                total = 0
                for frame in set(frames):
                    total += frame
                return total
            '''})
        assert by_rule(found, "SC002") == []
