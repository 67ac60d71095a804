"""Each shared numerical piece has one owner in ``src/ad1n``: the
condition-number guard of the normal-equation blocks lives in
``ad1n.model`` (``symmetric_cond`` and ``COND_LIMIT``), and the
augmented-block integrals of the one-step map are called only inside
``ad1n._matfun`` (``step_integrals``).  A second copy fails here."""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ad1n"

#: an assignment to a name ending in COND_LIMIT, annotated or not
_COND_LIMIT_ASSIGNMENT = re.compile(r"^\s*\w*COND_LIMIT\s*(:[^=\n]*)?=(?!=)", re.M)


def _sources():
    files = sorted(SRC.glob("*.py"))
    assert files
    return {f.name: f.read_text(encoding="utf-8") for f in files}


def test_condition_guard_lives_in_model():
    sources = _sources()
    for name, text in sources.items():
        if name != "model.py":
            assert "np.linalg.cond(" not in text, name
            assert not _COND_LIMIT_ASSIGNMENT.search(text), name
    assert len(_COND_LIMIT_ASSIGNMENT.findall(sources["model.py"])) == 1


def test_step_integrals_live_in_matfun():
    for name, text in _sources().items():
        if name != "_matfun.py":
            assert "expm_integral(" not in text, name
