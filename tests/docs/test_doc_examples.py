"""Doc examples are tests: the documentation cannot drift from the code.

Four layers of enforcement:

* every ```` ```python ```` block in ``docs/SERVING.md``,
  ``docs/ARCHITECTURE.md`` and ``docs/OBSERVABILITY.md`` is **executed**
  (they are written at tiny resolutions so this is cheap);
* every ```` ```python ```` block in ``docs/API.md`` and ``README.md`` is
  **compiled** (some of those snippets train models or bind ports, so they
  are syntax-checked rather than run);
* every dotted ``repro...`` name mentioned in ``docs/API.md`` — including
  each "old → new" mapping row — must **import/resolve**, so the reference
  can never point at a renamed symbol;
* every relative Markdown link in ``README.md`` and ``docs/*.md`` must
  name an existing file, so a deleted or moved document leaves no dangling
  link behind.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = REPO_ROOT / "docs"

_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)


def _python_blocks(path: Path):
    text = path.read_text(encoding="utf-8")
    return [(index, match.group(1)) for index, match in enumerate(_FENCE.finditer(text))]


def _block_params(path: Path):
    blocks = _python_blocks(path)
    assert blocks, f"{path.name} documents a Python API but has no python blocks"
    return [
        pytest.param(source, id=f"{path.name}-block{index}")
        for index, source in blocks
    ]


@pytest.mark.parametrize("source", _block_params(DOCS / "SERVING.md"))
def test_serving_md_examples_run(source):
    exec(compile(source, "docs/SERVING.md", "exec"), {"__name__": "__doc_example__"})


@pytest.mark.parametrize("source", _block_params(DOCS / "ARCHITECTURE.md"))
def test_architecture_md_examples_run(source):
    exec(compile(source, "docs/ARCHITECTURE.md", "exec"), {"__name__": "__doc_example__"})


@pytest.mark.parametrize("source", _block_params(DOCS / "OBSERVABILITY.md"))
def test_observability_md_examples_run(source):
    exec(compile(source, "docs/OBSERVABILITY.md", "exec"), {"__name__": "__doc_example__"})


@pytest.mark.parametrize("source", _block_params(DOCS / "API.md"))
def test_api_md_examples_compile(source):
    compile(source, "docs/API.md", "exec")


@pytest.mark.parametrize("source", _block_params(REPO_ROOT / "README.md"))
def test_readme_examples_compile(source):
    compile(source, "README.md", "exec")


# ----------------------------------------------------------------------
# Old -> new mapping rows must keep importing.
# ----------------------------------------------------------------------
_DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")


def _resolve(dotted: str) -> bool:
    import importlib

    parts = dotted.split(".")
    # Longest importable module prefix, then attribute access for the rest.
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _mentioned_names():
    text = (DOCS / "API.md").read_text(encoding="utf-8")
    names = sorted(set(_DOTTED.findall(text)))
    assert names, "docs/API.md mentions no repro.* names — wrong file?"
    return names


@pytest.mark.parametrize("dotted", _mentioned_names())
def test_api_md_mentioned_names_resolve(dotted):
    assert _resolve(dotted), f"docs/API.md references '{dotted}', which does not resolve"


def test_mapping_table_names_are_covered():
    """The old->new table's `now` column names all resolve (sanity that the
    regex actually captured the mapping rows, not just prose)."""
    text = (DOCS / "API.md").read_text(encoding="utf-8")
    table = text.split("## Old → new entry points", 1)[1].split("##", 1)[0]
    names = set(_DOTTED.findall(table))
    assert {"repro.api.pool.LRUPool", "repro.api.registry.ModelRegistry"} <= names
    for dotted in sorted(names):
        assert _resolve(dotted), f"mapping table references unresolvable '{dotted}'"


# ----------------------------------------------------------------------
# Relative links must land on a file.
# ----------------------------------------------------------------------
_LINK = re.compile(r"\]\(([^)\s]+)\)")


def _relative_links(path: Path):
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if re.match(r"[a-z][a-z0-9+.-]*:", target) or target.startswith("#"):
            continue  # absolute URL, mailto: or an in-page anchor
        yield target


def test_relative_markdown_links_resolve():
    pages = [REPO_ROOT / "README.md", *sorted(DOCS.glob("*.md"))]
    links = [(page, target) for page in pages for target in _relative_links(page)]
    assert links, "no relative links found — wrong pattern?"
    dangling = [
        f"{page.relative_to(REPO_ROOT)}: {target}"
        for page, target in links
        if not (page.parent / target.split("#", 1)[0]).exists()
    ]
    assert not dangling, "relative links to missing files:\n  " + "\n  ".join(dangling)
