"""Planted-violation fixtures for every code rule of ``repro.lint``."""

import pathlib
import textwrap

import pytest

from repro.lint import Severity, run_lint


def lint_snippet(tmp_path: pathlib.Path, code: str, subdir: str = "sim"):
    """Write a snippet under a sim-scoped dir and lint it (code rules only)."""
    d = tmp_path / subdir
    d.mkdir(parents=True, exist_ok=True)
    f = d / "snippet.py"
    f.write_text(textwrap.dedent(code))
    return run_lint([d])


def rules_hit(result) -> set[str]:
    return {f.rule for f in result.findings}


class TestUnseededRandom:
    def test_module_level_random_call(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import random

            def pick(n):
                return random.randrange(n)
        """)
        assert rules_hit(res) == {"unseeded-random"}
        assert res.findings[0].line == 5

    def test_unseeded_random_instance(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import random

            rng = random.Random()
        """)
        assert rules_hit(res) == {"unseeded-random"}

    def test_from_import_alias(self, tmp_path):
        res = lint_snippet(tmp_path, """
            from random import choice as pick_one

            def pick(xs):
                return pick_one(xs)
        """)
        assert rules_hit(res) == {"unseeded-random"}

    def test_system_random_always_flagged(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import random

            rng = random.SystemRandom()
        """)
        assert rules_hit(res) == {"unseeded-random"}

    def test_seeded_random_is_clean(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import random

            def make_rng(seed):
                return random.Random(seed)
        """)
        assert res.findings == []

    def test_rule_scoped_to_sim_packages(self, tmp_path):
        # The same draw in a reporting-layer dir is allowed.
        res = lint_snippet(tmp_path, """
            import random

            def jitter():
                return random.random()
        """, subdir="src/repro/experiments")
        assert "unseeded-random" not in rules_hit(res)


class TestWallClock:
    def test_time_time(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time

            def stamp():
                return time.time()
        """)
        assert rules_hit(res) == {"wall-clock"}

    def test_datetime_now(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import datetime

            def stamp():
                return datetime.datetime.now()
        """)
        assert rules_hit(res) == {"wall-clock"}

    def test_from_import_time(self, tmp_path):
        res = lint_snippet(tmp_path, """
            from time import time

            def stamp():
                return time()
        """)
        assert rules_hit(res) == {"wall-clock"}

    def test_flagged_outside_sim_packages_too(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time

            def stamp():
                return time.time()
        """, subdir="src/repro/experiments")
        assert rules_hit(res) == {"wall-clock"}

    def test_perf_counter_is_clean(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time

            def stamp():
                return time.perf_counter()
        """)
        assert res.findings == []


class TestBlanketExcept:
    def test_silent_except_exception(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(job):
                try:
                    job()
                except Exception:
                    pass
        """)
        assert rules_hit(res) == {"blanket-except"}

    def test_bare_except(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(job):
                try:
                    job()
                except:
                    return None
        """)
        assert rules_hit(res) == {"blanket-except"}

    def test_reraise_is_clean(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(job):
                try:
                    job()
                except Exception:
                    raise
        """)
        assert res.findings == []

    def test_printing_handler_is_clean(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import sys

            def run(job):
                try:
                    job()
                except Exception as exc:
                    print(exc, file=sys.stderr)
        """)
        assert res.findings == []

    def test_narrow_except_is_clean(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def run(job):
                try:
                    job()
                except ValueError:
                    pass
        """)
        assert res.findings == []


class TestFloatTimeEq:
    def test_timestamp_equality(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def same_arrival(arrival_time, deadline):
                return arrival_time == deadline
        """)
        assert rules_hit(res) == {"float-time-eq"}

    def test_inequality_also_flagged(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def moved(latency, old_latency):
                return latency != old_latency
        """)
        assert rules_hit(res) == {"float-time-eq"}

    def test_tolerance_compare_is_clean(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def close(t0, t1):
                return abs(t0 - t1) < 1e-9
        """)
        assert res.findings == []

    def test_non_time_names_clean(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def same_switch(switch, dest_switch):
                return switch == dest_switch
        """)
        assert res.findings == []


class TestMutableDefault:
    def test_list_default(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def collect(item, acc=[]):
                acc.append(item)
                return acc
        """)
        assert rules_hit(res) == {"mutable-default"}

    def test_dict_call_default(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def tally(key, counts=dict()):
                counts[key] = counts.get(key, 0) + 1
                return counts
        """)
        assert rules_hit(res) == {"mutable-default"}

    def test_none_default_is_clean(self, tmp_path):
        res = lint_snippet(tmp_path, """
            def collect(item, acc=None):
                acc = [] if acc is None else acc
                acc.append(item)
                return acc
        """)
        assert res.findings == []


class TestImportCycle:
    def test_two_module_cycle(self, tmp_path):
        d = tmp_path / "pkg"
        d.mkdir()
        (d / "alpha.py").write_text("import beta\n")
        (d / "beta.py").write_text("import alpha\n")
        res = run_lint([d])
        assert rules_hit(res) == {"import-cycle"}
        [f] = res.findings
        assert "alpha" in f.message and "beta" in f.message

    def test_function_local_import_breaks_cycle(self, tmp_path):
        d = tmp_path / "pkg"
        d.mkdir()
        (d / "alpha.py").write_text(
            "def go():\n    import beta\n    return beta\n"
        )
        (d / "beta.py").write_text("import alpha\n")
        res = run_lint([d])
        assert res.findings == []

    def test_submodule_import_resolves_past_package_init(self, tmp_path):
        # `from pkg import leaf` inside pkg must depend on pkg.leaf, not on
        # the package __init__ that imported us (the registry idiom).
        d = tmp_path / "repro" / "pkg"
        d.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (d / "__init__.py").write_text("from repro.pkg.registry import R\n")
        (d / "leaf.py").write_text("X = 1\n")
        (d / "registry.py").write_text("from repro.pkg import leaf\nR = leaf.X\n")
        res = run_lint([tmp_path / "repro"])
        assert res.findings == []


class TestSuppressionsAndReporting:
    def test_inline_suppression(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import random

            def pick(n):
                return random.randrange(n)  # lint: disable=unseeded-random
        """)
        assert res.findings == []
        assert res.suppressed == 1

    def test_suppression_is_rule_specific(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import random

            def pick(n):
                return random.randrange(n)  # lint: disable=wall-clock
        """)
        assert rules_hit(res) == {"unseeded-random"}

    def test_disable_all(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time

            def stamp():
                return time.time()  # lint: disable=all
        """)
        assert res.findings == []

    def test_findings_carry_location_and_severity(self, tmp_path):
        res = lint_snippet(tmp_path, """
            import time

            def stamp():
                return time.time()
        """)
        [f] = res.findings
        assert f.severity is Severity.ERROR
        assert f.path.endswith("snippet.py")
        assert f.line == 5
        assert f.render().startswith(f.path)
        assert res.exit_code == 1

    def test_syntax_error_reported_not_crash(self, tmp_path):
        d = tmp_path / "sim"
        d.mkdir()
        (d / "broken.py").write_text("def oops(:\n")
        res = run_lint([d])
        assert rules_hit(res) == {"parse-error"}
        assert res.exit_code == 1


@pytest.mark.parametrize("rule_id", [
    "unseeded-random", "wall-clock", "blanket-except",
    "float-time-eq", "mutable-default", "import-cycle",
])
def test_every_code_rule_registered(rule_id):
    from repro.lint import all_rules

    assert rule_id in all_rules()
