"""Bundled fiber-model documents spanning every pipeline path.

* ``trivial`` — one orbit of size 1 and multiplicity 1, no generators;
  the absolute minimum a document can say.
* ``irreducible`` — the good-degeneration case: the geometric fiber is a
  single multiplicity-one component, so the degree map is an isomorphism
  onto Z and the report carries the irreducible-fiber tag.
* ``split-orbit`` — irreducible over the base field but splitting into
  two conjugate components, the boundary of the previous case: still
  B(X) = Z, but the index is 2 and the tag stays unset.
* ``synthetic-z2`` — the smallest model with torsion: two components,
  one degree column (2, -2), giving B(X)_0 = Z/2 by both routes.
* ``example31`` — a seven-component degeneration of an intersection of
  two quadrics, with the ten degree columns transcribed verbatim from
  the published table.  Four columns fail the weighted-sum law (the
  published alignment was evidently lost), so the fixture only parses
  in permissive mode into a formal cokernel; the published expected
  result is recorded in the document, not asserted.
"""

from __future__ import annotations

from pathlib import Path

_DIR = Path(__file__).resolve().parent


def fixture_path(name: str) -> Path:
    """Filesystem path of the bundled fixture ``name``; ``.json`` may be omitted.

    Only a name from :func:`fixture_names` is accepted, so no path, absolute
    or relative, reaches a file outside the bundle; any other name raises
    :class:`FileNotFoundError`.
    """
    stem = name.removesuffix(".json")
    if stem not in fixture_names():
        raise FileNotFoundError(
            f"no bundled fixture {name!r}; available: {', '.join(fixture_names())}"
        )
    return _DIR / f"{stem}.json"


def fixture_names() -> list[str]:
    """Names of all bundled fixtures, sorted."""
    return sorted(p.stem for p in _DIR.glob("*.json"))
