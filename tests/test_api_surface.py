"""The frozen v1 public API surface, and the import-hygiene lint.

Two guards on the API freeze:

* ``repro.__all__`` is the contract — every name resolves, the v1
  additions (:class:`EvalOptions`, the parallelism markers) are present,
  and nothing slips in or out of the list unnoticed;
* a grep-lint over ``src/`` pins exactly which modules import the
  ``Term``/``Atom`` *internals* (``repro.datamodel.terms`` /
  ``repro.datamodel.atoms``) directly instead of going through the
  ``repro.datamodel`` package facade.  New code must use the facade —
  extending the allowlist is a reviewed decision, not an accident;
* a second grep-lint keeps the fact store's layout inside
  ``repro.datamodel``: no module outside that package reads a private
  field of :class:`~repro.datamodel.Instance`.
"""

import re
from pathlib import Path

import repro
from repro.datamodel import Instance

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules allowed to import term/atom internals directly — the datamodel
#: package itself (the internals' home) plus two long-standing offenders
#: grandfathered with a reason.  Paths are relative to ``src/repro``.
ALLOWED_INTERNAL_IMPORTERS = {
    # The datamodel package: these ARE the internals' neighbourhood.
    "datamodel/__init__.py",
    "datamodel/atoms.py",
    "datamodel/homomorphisms.py",
    "datamodel/instances.py",
    "datamodel/interning.py",
    "datamodel/io.py",
    "datamodel/joins.py",
    "datamodel/planner.py",
    "datamodel/schema.py",
    # Grandfathered: typing-only import under TYPE_CHECKING.
    "governance/checkpoint.py",
    # Grandfathered: needs the private null-counter accessor.
    "chase/cache.py",
}

_INTERNAL_IMPORT = re.compile(
    r"^\s*(?:from|import)\s+(?:repro\.)?(?:\.+)?datamodel\.(?:terms|atoms)\b"
    r"|^\s*from\s+\.\.?(?:terms|atoms)\s+import",
    re.MULTILINE,
)


#: A read of one of Instance's private fields on anything but ``self``.
_INSTANCE_PRIVATE = re.compile(
    r"\b(?!self\b)\w+\.(?:"
    + "|".join(
        re.escape(name) for name in Instance.__slots__ if name.startswith("_")
    )
    + r")\b"
)


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ names missing {name}"

    def test_v1_additions_are_exported(self):
        for name in ("EvalOptions", "Parallelism", "ProcessPool", "ThreadPool"):
            assert name in repro.__all__, name

    def test_all_is_sorted_and_unique(self):
        assert list(repro.__all__) == sorted(set(repro.__all__))

    def test_removed_shim_is_gone(self):
        """The deprecated chase_strategy= spelling was removed in v1."""
        import inspect

        from repro.omq import certain_answers

        assert "chase_strategy" not in inspect.signature(
            certain_answers
        ).parameters

    def test_frozen_surface(self):
        """The v1 contract: this exact set.  Additions are deliberate —
        update this list *and* docs/api.md in the same change."""
        expected = {
            "Atom", "Budget", "BudgetExceeded", "CQ", "CQS", "ChaseCache",
            "ChaseCheckpoint", "ChaseResult", "ChaseWorkerError",
            "CheckpointError", "Database", "DatalogProgram", "DatalogRule",
            "Engine", "EvalOptions", "EvalStats", "Instance", "JoinPlan",
            "Null", "OMQ", "OMQAnswer", "Parallelism", "ProcessPool",
            "Schema", "TGD", "ThreadPool", "UCQ", "__version__",
            "certain_answers", "chase", "compile_plan", "compile_program",
            "core", "cq_treewidth", "evaluate", "evaluate_fpt", "evaluate_td",
            "extend_chase", "fresh_null", "ground_saturation", "in_cq_k",
            "in_cq_k_equiv", "in_ucq_k", "is_answer", "is_certain_answer",
            "is_uniformly_ucq_k_equivalent", "linearize", "parse_atom",
            "parse_atoms", "parse_cq", "parse_database", "parse_tgd",
            "parse_tgds", "parse_ucq", "plan_for", "resume_chase",
            "rewrite_ucq", "saturate", "saturated_expansion",
            "semantic_treewidth", "ucq_k_approximation", "ucq_treewidth",
            "variables",
        }
        assert set(repro.__all__) == expected


class TestImportHygiene:
    def _offenders(self):
        found = set()
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if _INTERNAL_IMPORT.search(path.read_text()):
                found.add(rel)
        return found

    def test_lint_matches_known_offenders(self):
        """Exactly the allowlist — a new direct importer fails here (route
        it through the repro.datamodel facade instead), and a cleaned-up
        module must be removed from the allowlist so it cannot regress."""
        found = self._offenders()
        new = found - ALLOWED_INTERNAL_IMPORTERS
        gone = ALLOWED_INTERNAL_IMPORTERS - found
        assert not new, (
            f"new module(s) import Term/Atom internals directly: {sorted(new)}"
            " — import from repro.datamodel instead"
        )
        assert not gone, (
            f"allowlisted module(s) no longer need the exemption: "
            f"{sorted(gone)} — remove them from ALLOWED_INTERNAL_IMPORTERS"
        )

    def test_lint_actually_detects(self, tmp_path):
        """The regex catches every spelling the codebase could use."""
        for line in (
            "from repro.datamodel.terms import Term",
            "from ..datamodel.atoms import Atom",
            "from .terms import Term",
            "from ..atoms import Atom",
            "import repro.datamodel.terms",
        ):
            assert _INTERNAL_IMPORT.search(line), line
        for line in (
            "from repro.datamodel import Atom",
            "from ..datamodel import Term",
            "from .interning import InternPool",
        ):
            assert not _INTERNAL_IMPORT.search(line), line


class TestStoreEncapsulation:
    def test_no_private_instance_reads_outside_datamodel(self):
        """Only repro.datamodel knows the store's layout; elsewhere, add an
        accessor there (as joins.body_atoms does for the chase)."""
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel.startswith("datamodel/"):
                continue
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if _INSTANCE_PRIVATE.search(line):
                    offenders.append(f"{rel}:{number}: {line.strip()}")
        assert not offenders, "\n".join(offenders)

    def test_lint_actually_detects(self):
        for line in (
            "inst_facts = instance._facts",
            "row = delta._postings[pid]",
            "if atom in db._atoms:",
            "cached = result.instance._stats_cache",
        ):
            assert _INSTANCE_PRIVATE.search(line), line
        for line in (
            "self._pool = pool",
            "pool = instance.pool",
            "levels[atom] for atom in body_atoms(instance, program, ids)",
            "self._facts_seen = {}",
        ):
            assert not _INSTANCE_PRIVATE.search(line), line
