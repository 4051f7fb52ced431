"""Documentation is executable: every fenced ``python`` snippet in the
markdown docs runs, and every intra-repo markdown link resolves.

Snippets within one file execute *in order, sharing one namespace* —
docs read like notebooks (define an app in section 1, analyse its trace
in section 2).  Each file gets a fresh temporary working directory
pre-seeded with the small artifacts the guides reference (``site.xml``).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: markdown files whose ``python`` snippets must execute
SNIPPET_DOCS = sorted(p.relative_to(REPO) for p in (REPO / "docs").glob("*.md"))
SNIPPET_DOCS += [Path("README.md"), Path("EXPERIMENTS.md")]

#: markdown files whose intra-repo links must resolve
LINK_DOCS = SNIPPET_DOCS + [
    Path(p) for p in ("DESIGN.md", "ROADMAP.md", "CHANGES.md")
    if (REPO / p).exists()
]

_FENCE = re.compile(r"^```(\w*)\s*$")
_LINK = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(?:#[^)\s]*)?\)")
# bare `path` references like `docs/tracing.md` or `benchmarks/bench_x.py`
_BACKTICK_PATH = re.compile(r"`([A-Za-z0-9_./-]+\.(?:md|py|xml|json|txt))`")


def fenced_blocks(path: Path, language: str) -> list[tuple[int, str]]:
    """(start line, source) of each fenced block tagged ``language``."""
    blocks = []
    lines = (REPO / path).read_text(encoding="utf-8").splitlines()
    in_block = False
    tag_matches = False
    start = 0
    body: list[str] = []
    for i, line in enumerate(lines, start=1):
        fence = _FENCE.match(line)
        if fence and not in_block:
            in_block = True
            tag_matches = fence.group(1) == language
            start = i + 1
            body = []
        elif line.strip() == "```" and in_block:
            in_block = False
            if tag_matches and body:
                blocks.append((start, "\n".join(body)))
        elif in_block:
            body.append(line)
    return blocks


@pytest.fixture
def docs_cwd(tmp_path, monkeypatch):
    """A scratch cwd holding the files the guides casually reference."""
    from repro.surf import cluster, save_platform_xml

    save_platform_xml(cluster("site", 4), tmp_path / "site.xml")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.coroutine_contexts  # the docs show the contexts ranks get
@pytest.mark.parametrize("doc", SNIPPET_DOCS, ids=str)
def test_python_snippets_execute(doc, docs_cwd):
    blocks = fenced_blocks(doc, "python")
    if not blocks:
        pytest.skip(f"{doc} has no python snippets")
    namespace: dict = {"__name__": f"docs_{doc.stem}"}
    for start, source in blocks:
        code = compile(source, f"{doc}:{start}", "exec")
        try:
            exec(code, namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"{doc} snippet at line {start} raised "
                        f"{type(exc).__name__}: {exc}")


#: roots tried when a doc names a file by its short path
#: (`bench_fig3.py` lives in benchmarks/, `surf/maxmin.py` in src/repro/)
_SEARCH_ROOTS = ("", "docs", "benchmarks", "examples", "tests",
                 "src/repro", "src")


@pytest.mark.parametrize("doc", LINK_DOCS, ids=str)
def test_intra_repo_links_resolve(doc):
    text = (REPO / doc).read_text(encoding="utf-8")
    missing = []
    for target in _LINK.findall(text) + _BACKTICK_PATH.findall(text):
        if "://" in target or target.startswith("mailto:"):
            continue
        candidates = [(REPO / doc).parent / target]
        candidates += [REPO / root / target for root in _SEARCH_ROOTS]
        if not any(c.exists() for c in candidates):
            missing.append(target)
    assert not missing, f"{doc} references missing paths: {missing}"
