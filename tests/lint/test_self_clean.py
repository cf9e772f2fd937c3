"""Tier-1 gate: the shipped tree must be lint-clean (ISSUE: §5.4 analogue).

A build whose own sources violate D1–D5 cannot qualify; this test is the
CI face of the same check `storage.qualification.qualify_build` applies.
"""

import importlib
from pathlib import Path

import pytest

import repro
from repro.lint import all_rules, check_shipped_tree, default_config, run_lint
from repro.lint.callgraph import BLOCKING_PROJECT_FUNCTIONS

pytestmark = pytest.mark.lint

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def test_shipped_tree_is_clean():
    findings = run_lint([PACKAGE_ROOT])
    assert findings == [], "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in findings
    )


def test_check_shipped_tree_is_clean_and_memoised():
    assert check_shipped_tree() == []
    # Second call must serve the memoised copy (same contents, cheap).
    assert check_shipped_tree() == []


def test_registry_holds_all_ten_rules_in_numeric_order():
    assert [rule.id for rule in all_rules()] == [
        "D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "D10",
    ]


def test_dataflow_scopes_cover_serve_and_the_linter_itself():
    """The self-clean gate only means something if the expanded scopes
    actually bind: the serve path gets all four dataflow rules, and the
    linter's own sources are under D4/D5/D9/D10 (so the analysis code is
    held to the invariants it enforces)."""
    config = default_config()
    for rule_id in ("D7", "D8", "D9", "D10"):
        assert config.in_scope(rule_id, "repro.serve.app"), rule_id
    assert config.in_scope("D7", "repro.storage.blockstore")  # callee summaries
    for rule_id in ("D4", "D5", "D9", "D10"):
        assert config.in_scope(rule_id, "repro.lint.engine"), rule_id


@pytest.mark.parametrize("dotted", sorted(BLOCKING_PROJECT_FUNCTIONS))
def test_blocking_project_functions_all_resolve(dotted):
    """A renamed or deleted entry point must leave this list with it:
    a name that no longer resolves silently stops being checked."""
    module_name, _, attr = dotted.rpartition(".")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{dotted} does not resolve"
