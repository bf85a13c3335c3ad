"""Documentation quality gates.

Every public module, class, and function in the library must carry a
docstring (the README promises "doc comments on every public item"),
the package's ``__all__`` lists must be accurate, and the prose docs
(README, DESIGN.md, EXPERIMENTS.md) must only reference CLI commands,
pipeline stages, and metric names that actually exist in the code.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

IGNORED_MODULES = {"repro.__main__"}

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/operations.md")


def _walk_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return [n for n in names if n not in IGNORED_MODULES]


ALL_MODULES = _walk_modules()


class TestDocstrings:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), module_name

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_public_items_have_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        missing = []
        for name in getattr(module, "__all__", []):
            item = getattr(module, name)
            if inspect.isclass(item) or inspect.isfunction(item):
                if item.__module__ != module_name and module_name != "repro":
                    continue  # re-export; checked at its home module
                if not (item.__doc__ and item.__doc__.strip()):
                    missing.append(name)
        assert not missing, f"{module_name}: missing docstrings on {missing}"

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_public_methods_have_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        missing = []
        for name in getattr(module, "__all__", []):
            item = getattr(module, name)
            if not inspect.isclass(item) or item.__module__ != module_name:
                continue
            for method_name, method in inspect.getmembers(item, inspect.isfunction):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != item.__name__:
                    continue  # inherited
                # An override documented by its base-class method counts
                # as documented: walk the MRO for a docstring.
                doc = None
                for klass in item.__mro__:
                    candidate = klass.__dict__.get(method_name)
                    if candidate is not None and getattr(candidate, "__doc__", None):
                        doc = candidate.__doc__
                        break
                if not (doc and doc.strip()):
                    missing.append(f"{name}.{method_name}")
        assert not missing, f"{module_name}: missing docstrings on {missing}"


class TestExports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name}"

    def test_top_level_all_is_sorted_sections(self):
        # Not alphabetical by design, but must be duplicate-free.
        assert len(repro.__all__) == len(set(repro.__all__))


def _read_doc(name: str) -> str:
    return (REPO_ROOT / name).read_text(encoding="utf-8")


def _source_corpus() -> str:
    return "\n".join(
        path.read_text(encoding="utf-8")
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
    )


class TestDocsReferenceCode:
    """Prose docs may only reference things that exist in the code."""

    def test_documented_cli_subcommands_exist(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        action = next(
            a
            for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        known = set(action.choices)
        referenced = set()
        for doc in DOC_FILES:
            text = _read_doc(doc)
            referenced.update(re.findall(r"python -m repro ([a-z0-9]+)", text))
            # Pipe-separated usage summaries: `fig7|fig9|...|faults`.
            for summary in re.findall(r"repro ([a-z0-9]+(?:\|[a-z0-9]+)+)", text):
                referenced.update(summary.split("|"))
        assert referenced, "docs no longer show any CLI invocations"
        missing = referenced - known
        assert not missing, f"docs reference unknown CLI subcommands: {missing}"

    def test_documented_cli_invocations_parse(self):
        """Every full `python -m repro ...` line in the docs must be
        accepted by the real argument parser, flags and all."""
        import shlex

        from repro.cli import build_parser

        parser = build_parser()
        invocations = []
        for doc in DOC_FILES:
            # Capture through end-of-line but stop at backticks and
            # comments; require a subcommand-shaped first token so
            # placeholders like `python -m repro <artifact>` are skipped.
            for argv in re.findall(
                r"python -m repro ([a-z0-9]+(?: [^`\n#]*)?)", _read_doc(doc)
            ):
                if "|" in argv or "..." in argv:
                    continue  # usage summary, not an invocation
                invocations.append((doc, argv.strip()))
        assert invocations, "docs no longer show any CLI invocations"
        rejected = []
        for doc, argv in invocations:
            try:
                parser.parse_args(shlex.split(argv))
            except SystemExit:
                rejected.append(f"{doc}: python -m repro {argv}")
        assert not rejected, f"docs show invocations the CLI rejects: {rejected}"

    def test_every_pipeline_stage_is_documented(self):
        from repro.core.pipeline import CANONICAL_STAGES

        design = _read_doc("DESIGN.md")
        missing = {
            cls.name for cls, _ in CANONICAL_STAGES if cls.name not in design
        }
        assert not missing, f"DESIGN.md never mentions stages: {missing}"

    def test_readme_architecture_diagram_uses_real_stage_names(self):
        from repro.core.pipeline import CANONICAL_STAGES

        known = {cls.name for cls, _ in CANONICAL_STAGES}
        readme = _read_doc("README.md")
        diagram = readme.split("## Architecture")[1].split("```")[1]
        # Every arrow-joined token inside the ServiceBroker box must be a
        # real stage name.
        mentioned = set(re.findall(r"([a-z][a-z-]*[a-z])\s*(?:→|‖)", diagram))
        assert mentioned, "README architecture diagram lost its stage chain"
        unknown = mentioned - known
        assert not unknown, f"README diagram names unknown stages: {unknown}"

    def test_documented_metric_names_exist(self):
        corpus = _source_corpus()
        referenced = set()
        for doc in DOC_FILES:
            referenced.update(
                re.findall(
                    r"broker\.(?:fault|retry|breaker|degraded_replies"
                    r"|cachetier|cache)(?:\.[a-z_]+)*",
                    _read_doc(doc),
                )
            )
        assert referenced, "docs no longer mention any fault metrics"
        missing = set()
        for token in referenced:
            # Counters like broker.breaker.closed are emitted through an
            # f-string; accept the token when its dotted parent prefix
            # appears literally in the source.
            parent = token.rsplit(".", 1)[0] + "."
            if token not in corpus and parent not in corpus:
                missing.add(token)
        assert not missing, f"docs reference unknown metrics: {missing}"


class TestDocLinks:
    """Relative links and anchors in the prose docs must resolve."""

    LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")

    @staticmethod
    def _anchors(text: str) -> set:
        anchors = set()
        for heading in re.findall(r"^#+\s+(.+)$", text, flags=re.MULTILINE):
            slug = heading.strip().lower()
            slug = re.sub(r"[^\w\s-]", "", slug)
            anchors.add(re.sub(r"\s+", "-", slug))
        return anchors

    @pytest.mark.parametrize("doc", DOC_FILES)
    def test_relative_links_resolve(self, doc):
        text = _read_doc(doc)
        broken = []
        for target in self.LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            # Relative links resolve against the doc's own directory so
            # that `../DESIGN.md` from docs/operations.md works.
            base = (
                REPO_ROOT / doc
                if not path_part
                else ((REPO_ROOT / doc).parent / path_part).resolve()
            )
            if path_part and not base.exists():
                broken.append(target)
                continue
            if anchor and base.suffix == ".md":
                if anchor not in self._anchors(
                    base.read_text(encoding="utf-8")
                ):
                    broken.append(target)
        assert not broken, f"{doc}: broken links {broken}"

    @pytest.mark.parametrize("doc", DOC_FILES)
    def test_referenced_repo_paths_exist(self, doc):
        text = _read_doc(doc)
        missing = []
        for path in re.findall(
            r"`((?:src|tests|benchmarks|examples|docs)/[\w./-]+\.(?:py|md))`",
            text,
        ):
            if not (REPO_ROOT / path).exists():
                missing.append(path)
        assert not missing, f"{doc}: references missing files {missing}"
